"""Command-line interface.

Exit codes: 0 success, 1 domain error (partiality, precondition violation,
an `--order` too large for an index, terms nested deeper than the
recursion limit; a tower of any height answers), 2 step budget exceeded
(`--budget` counts every reduction step of the command and every tower
level `extend` builds), 3 I/O or syntax error (a usage error such as a
`--vars` above 100,000, or a file that is not UTF-8, included; an error in
an ideal file names its line of the file), 4 internal error (a failed
consistency check such as a certificate that does not re-expand).

Each subcommand returns its `--json` document and its text lines; `main`
alone prints one of them, or maps an error to its exit code.  `--json`
switches every subcommand but `demo` to machine-readable output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys
from fractions import Fraction

from .ediff import DerivationSpec, apply_derivation, jacobian, partial_derivative
from .epoly import EPoly, ord_reduce
from .errors import (BudgetExceededError, ExpolyError, InternalError,
                     ParseError, PreconditionError, VariableCountError)
from .ideals import IdealHandle
from .models import (SeriesPoint, TruncatedSeries, eval_epoly,
                     khovanskii_check, series_exp)
from .rabin import nullstellensatz_pipeline
from .scalars import parse_scalar
from .textio import max_var_index, parse_epoly, parse_ideal_file
from .tower import (TowerIdeal, augmentation, augmentation_mod, dagger_check,
                    saturate_level_one)


def _parse_exprs(texts, nvars):
    if nvars is None:
        nvars = max((max_var_index(t) for t in texts), default=1)
        nvars = max(nvars, 1)
    return [parse_epoly(t, nvars) for t in texts], nvars


def _load_ideal(args):
    gens = parse_ideal_file(args.ideal, args.vars)
    nvars = gens[0].nvars if gens else (args.vars or 1)
    return IdealHandle(gens, nvars=nvars, budget_limit=args.budget)


def _point(args, nvars):
    groups = [g for g in args.at.split(";") if g.strip()]
    point = SeriesPoint(
        [TruncatedSeries([parse_scalar(c) for c in g.split(",")], args.order)
         for g in groups],
        order=args.order)
    if len(point.values) != nvars:
        raise VariableCountError(
            f"point has {len(point.values)} coordinates, need {nvars}")
    return point


def _true_false(flag) -> str:
    return "true" if flag else "false"


def cmd_ord(args):
    [p], _ = _parse_exprs([args.expr], args.vars)
    measure = p.complexity()
    return ({"ord": str(measure), "terms": [list(t) for t in measure.terms],
             "height": p.height(), "rank": p.rank()}, [str(measure)])


def cmd_eval(args):
    [p], nvars = _parse_exprs([args.expr], args.vars)
    point = _point(args, nvars)
    value = eval_epoly(p, point)
    return ({"model": "series", "order": point.order,
             "coefficients": [str(c) for c in value.coeffs]},
            [str(value)])


def cmd_derive(args):
    [p], nvars = _parse_exprs([args.expr], args.vars)
    if args.action:
        actions, _ = _parse_exprs(args.action, nvars)
        result = apply_derivation(DerivationSpec(actions), p)
    elif args.var is not None:
        if args.var > nvars:
            raise VariableCountError(
                f"variable X{args.var} out of range for {nvars} variables")
        result = partial_derivative(p, args.var - 1)
    else:
        raise PreconditionError("derive needs --var or --action")
    return {"result": str(result)}, [str(result)]


def cmd_jacobian(args):
    fs, _ = _parse_exprs(args.exprs, len(args.exprs))
    result = jacobian(fs)
    return {"result": str(result)}, [str(result)]


def cmd_khovanskii(args):
    nvars = len(args.exprs)
    fs, _ = _parse_exprs(args.exprs, nvars)
    verdict = khovanskii_check(fs, _point(args, nvars))
    return {"khovanskii": verdict}, [_true_false(verdict)]


def cmd_member(args):
    ideal = _load_ideal(args)
    [p], _ = _parse_exprs([args.expr], ideal.nvars)
    result = ideal.membership(p)
    cofactors = (None if result.cofactors is None
                 else [str(c) for c in result.cofactors])
    return ({"member": result.member, "cofactors": cofactors,
             "lattice": ideal.presentation().describe()},
            [_true_false(result.member)]
            + [f"  cofactor of {g}: {c}"
               for c, g in zip(cofactors or (), ideal.gens)])


def cmd_intersect(args):
    cut = _load_ideal(args).intersect_subring(args.layer)
    gens = [str(g) for g in cut.gens]
    return {"generators": gens}, gens or ["0"]


def cmd_aug(args):
    ideal = _load_ideal(args) if args.ideal else None
    [u], _ = _parse_exprs([args.expr],
                          args.vars if ideal is None else ideal.nvars)
    if ideal is None:
        image = augmentation(u, args.layer)
        return {"image": str(image)}, [str(image)]
    image, member = augmentation_mod(u, ideal, args.layer)
    return ({"image": str(image), "in_kernel": member},
            [str(image), "in kernel: " + _true_false(member)])


def cmd_dagger(args):
    report = dagger_check(_load_ideal(args), args.layer)
    return ({"layer": report.layer,
             "holds_on_generators": report.holds,
             "witness": (None if report.witness is None
                         else str(report.witness)),
             "checked": [str(g) for g in report.checked],
             "skipped": [str(g) for g in report.skipped]},
            [f"layer {report.layer}: {report.describe()}"])


def cmd_extend(args):
    ideal = _load_ideal(args)
    tower = TowerIdeal(ideal)
    tower.extend(args.levels)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(tower.to_dict(), fh, indent=1)
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
    if args.query:
        [q], _ = _parse_exprs([args.query], ideal.nvars)
        level = args.level if args.level is not None else tower.top_level
        doc.update(query=str(q), level=level,
                   member=tower.membership(q, level))
        lines.append(f"membership of {q} at level {level}: "
                     f"{_true_false(doc['member'])}")
    return doc, lines


def cmd_saturate(args):
    outcome = saturate_level_one(_load_ideal(args))
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
    ideal = _load_ideal(args)
    [g], _ = _parse_exprs([args.g], ideal.nvars)
    report = nullstellensatz_pipeline(ideal.gens, g, budget_limit=args.budget)
    return report.to_dict(), [report.describe()]


def cmd_demo(args):
    lines = []
    out = lines.append
    rng = random.Random(0)
    x = EPoly.var(1, 0)
    x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)

    out("== canonical arithmetic and the exponential law ==")
    out(f"(1+E(X1))*(1-E(X1)) = {(1 + x.exp()) * (1 - x.exp())}")
    out(f"E(X1+X2) == E(X1)*E(X2): {(x1 + x2).exp() == x1.exp() * x2.exp()}")

    out("")
    out("== ordinal complexity and reduction ==")
    for text in ("X1^2 + 1", "X1 + 2*E(X1)", "E(X1) - E(2*X1)",
                 "E(E(X1)) + E(X1)"):
        q = parse_epoly(text)
        out(f"ord({text}) = {q.complexity()}")
    q = parse_epoly("E(E(X1)) + E(X1)")
    chain = [str(q.complexity())]
    while not q.is_zero() and q.layer_component(0).is_zero():
        _, q = ord_reduce(q)
        chain.append(str(q.complexity()))
    out("reduction chain: " + " > ".join(chain))

    out("")
    out("== derivations ==")
    spec = DerivationSpec([x1, EPoly.const(2, 1)])
    q = x1 * x2.exp()
    out(f"D(X1*E(X2)) with D(X1)=X1, D(X2)=1: {apply_derivation(spec, q)}")

    out("")
    out("== series model ==")
    t = TruncatedSeries.t(6)
    out(f"exp(t) mod t^6 = {series_exp(t)}")
    point = SeriesPoint([t])
    out(f"E(X1)-1 at X1=t: {eval_epoly(x.exp() - 1, point)}")
    out(f"khovanskii (E(X1)-1) at 0: "
        f"{khovanskii_check([x.exp() - 1], SeriesPoint([[0]], order=6))}")

    out("")
    out("== ideal membership with certificates ==")
    half = x * Fraction(1, 2)
    ideal = IdealHandle([half.exp() - 1])
    res = ideal.membership(x.exp() - 1)
    out(f"E(X1)-1 in <E(X1/2)-1>: {res.member}, "
        f"cofactor {res.cofactors[0]}")

    out("")
    out("== augmentation ==")
    out(f"aug(3*E(X1) - 2*E(X1^2)) = "
        f"{augmentation(3 * x.exp() - 2 * (x * x).exp(), 1)}")
    out(f"aug(E(X1) - 1) = {augmentation(x.exp() - 1, 1)}")

    out("")
    out("== tower over <X1> ==")
    tower = TowerIdeal(IdealHandle([x])).extend(2)
    for text, level in (("E(X1) - 1", 1), ("E(X1^2) - 1", 1),
                        ("E(X1)", 1), ("1", 2)):
        q = parse_epoly(text)
        out(f"{text} at level {level}: "
            f"{_true_false(tower.membership(q, level))}")

    out("")
    out("== saturation: success and failure certificate ==")
    good = saturate_level_one(IdealHandle([x, x.exp() - 1]))
    out(f"<X1, E(X1)-1>: {good.status}, "
        f"exp-compatibility {good.dagger.describe()}")
    bad = saturate_level_one(IdealHandle([x, x.exp() - 2]))
    out(f"<X1, E(X1)-2>: {bad.status}")
    for c, g in zip(bad.certificate, bad.generators):
        if not c.is_zero():
            out(f"  1 += ({c}) * ({g})")

    out("")
    out("== the obstruction from the complex exponential ==")
    out("take f = E(X1) - 2 and g = E(i*X1) - 1: the ideal they generate")
    out("is proper, yet no common zero exists over the complex exponential.")
    gi = IdealHandle([parse_epoly("E(X1) - 2"), parse_epoly("E(i*X1) - 1")])
    out(f"1 member of <f, g>: {gi.membership(EPoly.const(1, 1)).member}")
    for val in (math.log(2), 2 * math.pi):
        fval, gval = cmath.exp(val) - 2, cmath.exp(1j * val) - 1
        out(f"  at x={val:.6f}: |f| = {abs(fval):.6f}, |g| = {abs(gval):.6f}")
    report = nullstellensatz_pipeline(
        [parse_epoly("E(X1) - 1"), parse_epoly("E(i*X1) - 1")],
        EPoly.const(1, 1))
    out(f"certificate for g=1: "
        f"{'found' if report.found else 'not found within the slice'}")

    out("")
    out("== rabinowitsch certificate ==")
    report = nullstellensatz_pipeline([x], x)
    out(report.describe())

    out("")
    out("== seeded property spot-checks ==")
    failures = 0
    for _ in range(25):
        a = _random_zero_const(rng, 2)
        b = _random_zero_const(rng, 2)
        if (a + b).exp() != a.exp() * b.exp():
            failures += 1
    out(f"exponential law on 25 random pairs: {25 - failures}/25 ok")
    return None, lines


def _random_zero_const(rng, nvars):
    """One to three random X-monomials with the constant one left out."""
    draws = [(tuple(rng.randint(0, 2) for _ in range(nvars)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    return EPoly(nvars, (((mono, None), c) for mono, c in draws if any(mono)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a syntax error: usage line, then exit 3."""
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        """Arguments a subcommand does not know are its own usage error."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _int_at_least(low: int, what: str, high: float = math.inf):
    """An argparse type for decimal integers >= low (and <= high); anything
    else is a usage error."""
    def parse(text: str) -> int:
        digits = text[1:] if text.startswith("-") else text
        if not digits.isdecimal() or not low <= int(text) <= high:
            bound = "" if high == math.inf else f" and <= {high}"
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer >= {low}{bound}, got {text!r}")
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
                           default=1_000_000,
                           help="reduction steps and tower levels the "
                                "whole command may spend (default 10^6)")
        if vars_flag:
            # Memory grows by about 0.2 KB per variable, so it is bounded.
            p.add_argument("--vars",
                           type=_int_at_least(1, "variable count", 100_000),
                           default=None,
                           help="variable count <= 100,000 (default inferred)")

    p = sub.add_parser("ord", help="ordinal complexity of a value")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=cmd_ord)

    def series_point(p):
        """Add the series point options of eval and khovanskii."""
        p.add_argument("--order", type=int, default=8,
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
    p.add_argument("--var", type=_int_at_least(1, "variable index"),
                   default=None,
                   help="1-based variable index for a partial derivative")
    p.add_argument("--action", action="append", default=None,
                   help="D(Xj) for j = 1.. (repeat; applies the derivation)")
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
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--out", default=None, help="write tower/1 JSON here")
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

    p = sub.add_parser("demo", help="deterministic worked examples")
    p.set_defaults(func=cmd_demo)

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
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))
    if getattr(args, "json", False):
        lines = [json.dumps(doc)]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
