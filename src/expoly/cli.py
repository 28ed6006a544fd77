"""Command-line interface.

Exit codes:

- 0: success.
- 1: domain error: partiality, a precondition violation, an `--order`
  too large for an index, terms nested deeper than the recursion limit,
  a monomial exponent or block degree of 2^63 or more in a Groebner
  computation, or a result with a number too long for `str()`; a tower of
  any height answers.
- 2: step budget exceeded: `--budget` counts every reduction step of the
  command and every tower level `extend` builds.
- 3: I/O or syntax error: a file that is not UTF-8, a numeral too long
  for `int()`, a variable index above 100,000 where the count is
  inferred, an `--at` coefficient that is not a term-language constant,
  or a usage error, such as a `--vars` above 100,000, an integer option
  that is not decimal, such as `--order 1_0`, or a `derive` with both or
  neither of `--var` and `--action`.  An error in an ideal file names its
  line of the file, one in `--at` its column of the whole text, and one
  in an expression its own line and column.
- 4: internal error: a failed consistency check, such as a certificate
  that does not re-expand.

Each subcommand returns its `--json` document and its text lines; `main`
alone prints one of them, or maps an error to its exit code.  `--json`
switches every subcommand to machine-readable output.  Each text is
parsed once, by `textio`; without `--vars`, the variable count is the
largest index the command's texts name, such as a file and its query, or
`derive`'s expression, actions and `--var`.
Argparse enforces the option rules, and `eval_epoly` checks a point's
coordinate count.  Every option but `-h` starts with `--`, so an
argument that starts with one `-`, such as the printed value `-2*X1` or
the point `-1/2`, is a value.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .ediff import DerivationSpec, apply_derivation, jacobian, partial_derivative
from .errors import (DEFAULT_BUDGET, BudgetExceededError, ExpolyError,
                     InternalError, ParseError)
from .ideals import IdealHandle
from .models import SeriesPoint, eval_epoly, khovanskii_check
from .rabin import nullstellensatz_pipeline
from .textio import _MAX_VARS, _error, _parse_all, parse_epoly
from .tower import (TowerIdeal, augmentation, augmentation_mod, dagger_check,
                    saturate_level_one)


def _load_ideal(args, text=None):
    """The `--ideal` handle, and the value of `text` (None without one),
    over `--vars` variables or else the largest index the file or `text`
    names."""
    nvars, gens, values = _parse_all(
        args.ideal, [] if text is None else [text], args.vars)
    ideal = IdealHandle(gens, nvars=nvars, budget_limit=args.budget)
    return ideal, (values or [None])[0]


def _point(args):
    """The `--at` point: `;` separates the variables (a blank group is
    skipped) and `,` the series coefficients of one.  `eval_epoly` checks
    the coordinate count."""
    coords = []
    for group in re.finditer(r"[^;]+", args.at):
        if group[0].strip():
            start, coeffs = group.start(), []
            for piece in group[0].split(","):
                coeffs.append(_coefficient(args.at, start, piece))
                start += len(piece) + 1
            coords.append(coeffs)
    return SeriesPoint(coords, order=args.order)


def _coefficient(text, start, piece):
    """The term-language constant `piece`, which starts at offset `start`
    of `text`; a syntax error names its line and column in `text`."""
    try:
        p = parse_epoly(piece, 1)
    except ParseError as exc:
        # From the line and column in `piece` back to an offset of `text`.
        skipped = piece.split("\n")[:exc.line - 1]
        raise _error(text, start + sum(len(ln) + 1 for ln in skipped)
                     + exc.col - 1, exc.message) from None
    c = p.constant_term()
    if p != c:
        raise _error(text, start + len(piece) - len(piece.lstrip()),
                     f"expected a constant, found {piece.strip()!r}")
    return c


def _true_false(flag) -> str:
    return "true" if flag else "false"


def cmd_ord(args):
    p = parse_epoly(args.expr, args.vars)
    measure = p.complexity()
    return ({"ord": str(measure), "terms": [list(t) for t in measure.terms],
             "height": p.height(), "rank": p.rank()}, [str(measure)])


def cmd_eval(args):
    p = parse_epoly(args.expr, args.vars)
    point = _point(args)
    value = eval_epoly(p, point)
    return ({"model": "series", "order": point.order,
             "coefficients": [str(c) for c in value.coeffs]},
            [str(value)])


def cmd_derive(args):
    # Without --vars, the variable `--var` names counts like an action.
    texts = [args.expr, *(args.action or ())]
    if args.var is not None and args.vars is None:
        texts.append(f"X{args.var}")
    p, *actions = _parse_all(None, texts, args.vars)[2]
    if args.action:
        result = apply_derivation(DerivationSpec(actions), p)
    else:
        result = partial_derivative(p, args.var - 1)
    return {"result": str(result)}, [str(result)]


def cmd_jacobian(args):
    result = jacobian([parse_epoly(t, len(args.exprs)) for t in args.exprs])
    return {"result": str(result)}, [str(result)]


def cmd_khovanskii(args):
    fs = [parse_epoly(t, len(args.exprs)) for t in args.exprs]
    verdict = khovanskii_check(fs, _point(args))
    return {"khovanskii": verdict}, [_true_false(verdict)]


def cmd_member(args):
    ideal, p = _load_ideal(args, args.expr)
    result = ideal.membership(p)
    cofactors = (None if result.cofactors is None
                 else [str(c) for c in result.cofactors])
    return ({"member": result.member, "cofactors": cofactors,
             "lattice": ideal.presentation().describe()},
            [_true_false(result.member)]
            + [f"  cofactor of {g}: {c}"
               for c, g in zip(cofactors or (), ideal.gens)])


def cmd_intersect(args):
    cut = _load_ideal(args)[0].intersect_subring(args.layer)
    gens = [str(g) for g in cut.gens]
    return {"generators": gens}, gens or ["0"]


def cmd_aug(args):
    if args.ideal is None:
        image = augmentation(parse_epoly(args.expr, args.vars), args.layer)
        return {"image": str(image)}, [str(image)]
    ideal, u = _load_ideal(args, args.expr)
    image, member = augmentation_mod(u, ideal, args.layer)
    return ({"image": str(image), "in_kernel": member},
            [str(image), "in kernel: " + _true_false(member)])


def cmd_dagger(args):
    report = dagger_check(_load_ideal(args)[0], args.layer)
    return ({"layer": report.layer,
             "holds_on_generators": report.holds,
             "witness": (None if report.witness is None
                         else str(report.witness)),
             "checked": [str(g) for g in report.checked],
             "skipped": [str(g) for g in report.skipped]},
            [f"layer {report.layer}: {report.describe()}"])


def cmd_extend(args):
    ideal, q = _load_ideal(args, args.query)
    tower = TowerIdeal(ideal)
    tower.extend(args.levels)
    doc = {
        "base_layer": tower.base_layer,
        "top_level": tower.top_level,
        "tracked": [[str(s.element) for s in dec.seeds]
                    for dec in tower.decomps],
    }
    lines = [f"tower over layers [{tower.base_layer}, {tower.top_level}]"]
    for layer, seeds in enumerate(doc["tracked"], tower.base_layer):
        lines.append(f"  layer {layer} tracked: "
                     f"{', '.join(seeds) or '(none)'}")
    if q is not None:
        level = args.level if args.level is not None else tower.top_level
        doc.update(query=str(q), level=level,
                   member=tower.membership(q, level))
        lines.append(f"membership of {q} at level {level}: "
                     f"{_true_false(doc['member'])}")
    return doc, lines


def cmd_saturate(args):
    outcome = saturate_level_one(_load_ideal(args)[0])
    doc = {"status": outcome.status,
           "rounds": outcome.rounds,
           "generators": [str(g) for g in outcome.generators],
           "added": [str(g) for g in outcome.added]}
    if outcome.status == "unit":
        doc["certificate"] = [str(c) for c in outcome.certificate]
        lines = [f"failure certificate after {outcome.rounds} round(s): "
                 "1 lies in the extended ideal"]
        lines += [f"  1 += ({c}) * ({g})"
                  for c, g in zip(outcome.certificate, outcome.generators)
                  if not c.is_zero()]
        return doc, lines
    doc["dagger_holds"] = outcome.dagger.holds
    return doc, [f"stabilized after {outcome.rounds} round(s)",
                 "  generators: " + "; ".join(doc["generators"]),
                 f"  exp-compatibility: {outcome.dagger.describe()}"]


def cmd_rabinowitsch(args):
    ideal, g = _load_ideal(args, args.g)
    report = nullstellensatz_pipeline(ideal.gens, g, budget_limit=args.budget)
    return report.to_dict(), [report.describe()]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        """Every option but `-h` starts with `--`, so an argument that starts
        with one `-`, such as `-2*X1`, is a value: argparse's pattern for
        negative numbers, which it reads as values, is widened to match."""
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        """A usage error is a syntax error: usage line, then exit 3."""
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        """Arguments a subcommand does not know, and an `extend --level`
        with no `--query` to read it, are its own usage error."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        if (getattr(namespace, "level", None) is not None
                and namespace.query is None):
            self.error("--level needs --query")
        return namespace, extras


def _int_at_least(low: float, what: str, high: float = math.inf):
    """An argparse type for decimal integers >= low (and <= high); anything
    else is a usage error.  An infinite bound is no bound."""
    def parse(text: str) -> int:
        digits = text[1:] if text.startswith("-") else text
        if not digits.isdecimal() or not low <= int(text) <= high:
            bounds = " and".join(
                f" {op} {b}" for op, b in ((">=", low), ("<=", high))
                if math.isfinite(b))
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer{bounds}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="expoly",
        description="Exact computation in exponential polynomial rings")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=False, vars_flag=True):
        """Add the shared options the subcommand reads (no --vars where the
        expression count gives the arity)."""
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if budget:
            p.add_argument("--budget", type=_int_at_least(0, "step budget"),
                           default=DEFAULT_BUDGET,
                           help="reduction steps and tower levels the "
                                "whole command may spend (default 10^6)")
        if vars_flag:
            # Memory grows by about 0.2 KB per variable, so it is bounded.
            p.add_argument("--vars",
                           type=_int_at_least(1, "variable count", _MAX_VARS),
                           default=None,
                           help=f"variable count <= {_MAX_VARS:,} "
                                "(default inferred)")

    p = sub.add_parser("ord", help="ordinal complexity of a value")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=cmd_ord)

    def series_point(p):
        """Add the series point options of eval and khovanskii."""
        # An order below 1 is a domain error of the series model (exit 1).
        p.add_argument("--order", type=_int_at_least(-math.inf, "order"),
                       default=8,
                       help="series truncation order (default 8)")
        p.add_argument("--at", required=True,
                       help="point: per-variable groups separated by ';', "
                            "series coefficients separated by ','")

    p = sub.add_parser("eval", help="evaluate at a truncated-series point")
    p.add_argument("expr")
    series_point(p)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("derive", help="partial derivative or derivation")
    p.add_argument("expr")
    rule = p.add_mutually_exclusive_group(required=True)
    rule.add_argument("--var", type=_int_at_least(1, "variable index"),
                      help="1-based variable index for a partial derivative")
    rule.add_argument("--action", action="append",
                      help="D(Xj) for j = 1.. (repeat; applies the "
                           "derivation)")
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("jacobian", help="determinant of the derivative matrix")
    p.add_argument("exprs", nargs="+")
    common(p, vars_flag=False)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("khovanskii",
                       help="system vanishes with nonzero jacobian at a point")
    p.add_argument("exprs", nargs="+")
    series_point(p)
    common(p, vars_flag=False)
    p.set_defaults(func=cmd_khovanskii)

    p = sub.add_parser("member", help="ideal membership with cofactors")
    p.add_argument("expr")
    p.add_argument("--ideal", required=True,
                   help="file with one generator per line")
    common(p, budget=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("intersect", help="intersection with a lower ring")
    p.add_argument("--ideal", required=True)
    p.add_argument("--layer", type=_int_at_least(0, "layer"), required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("aug", help="augmentation image (and kernel test)")
    p.add_argument("expr")
    p.add_argument("--layer", type=_int_at_least(1, "layer"), default=1)
    p.add_argument("--ideal", default=None)
    common(p, budget=True)
    p.set_defaults(func=cmd_aug)

    p = sub.add_parser("dagger",
                       help="exp-compatibility of the subring intersection")
    p.add_argument("--ideal", required=True)
    p.add_argument("--layer", type=_int_at_least(0, "layer"), default=None)
    common(p, budget=True)
    p.set_defaults(func=cmd_dagger)

    p = sub.add_parser("extend", help="build tower levels above an ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--levels", type=_int_at_least(0, "level count"),
                   default=1)
    p.add_argument("--query", default=None)
    p.add_argument("--level", type=_int_at_least(0, "level"), default=None)
    common(p, budget=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("saturate",
                       help="close an R_1 ideal under f -> E(f)-1")
    p.add_argument("--ideal", required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("rabinowitsch",
                       help="radical membership certificate pipeline")
    p.add_argument("--ideal", required=True)
    p.add_argument("--g", required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_rabinowitsch)

    return top


# Exit code of each error kind, most specific first.  A file that is not
# UTF-8 text is an I/O error.  A number too large for an index (such as an
# `eval --order` of 10^20) and a nesting of terms deeper than the recursion
# limit are domain errors.
_EXIT_CODES = ((BudgetExceededError, 2), (ParseError, 3), (OSError, 3),
               (UnicodeDecodeError, 3), (InternalError, 4), (ExpolyError, 1),
               (OverflowError, 1), (RecursionError, 1))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, lines = args.func(args)
        if args.json:
            lines = [json.dumps(doc)]
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))
    except ValueError as exc:
        # Printing an int longer than sys.get_int_max_str_digits(); every
        # other ValueError is a bug and keeps its traceback.
        if "integer string conversion" not in str(exc):
            raise
        sys.stderr.write("error: a number in the result has more digits "
                         "than Python converts to text "
                         f"({sys.get_int_max_str_digits()})\n")
        return 1
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
