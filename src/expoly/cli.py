"""Command-line interface.

Exit codes: 0 success, 1 domain error (partiality, precondition violation),
2 step budget exceeded, 3 I/O or syntax error, 4 internal error (a failed
consistency check such as a certificate that does not re-expand).  `--json` switches every
subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .ediff import DerivationSpec, apply_derivation, jacobian, partial_derivative
from .epoly import EPoly, ord_reduce
from .errors import (BudgetExceededError, ExpolyError, InternalError,
                     ParseError, PartialityError, PreconditionError,
                     VariableCountError)
from .ideals import IdealHandle, augmentation, augmentation_mod
from .models import (FloatPoint, SeriesPoint, TruncatedSeries, eval_epoly,
                     khovanskii_check, series_exp)
from .rabin import nullstellensatz_pipeline
from .scalars import parse_scalar
from .textio import parse_epoly, parse_ideal_file
from .tower import TowerIdeal, dagger_check, saturate_level_one


def _parse_exprs(texts, nvars):
    from .textio import max_var_index
    if nvars is None:
        nvars = max((max_var_index(t) for t in texts), default=1)
        nvars = max(nvars, 1)
    return [parse_epoly(t, nvars) for t in texts], nvars


def _load_ideal(args):
    gens = parse_ideal_file(args.ideal, getattr(args, "vars", None))
    nvars = gens[0].nvars if gens else (getattr(args, "vars", None) or 1)
    return IdealHandle(gens, nvars=nvars, budget_limit=args.budget)


def _point(args, nvars):
    groups = [g for g in args.at.split(";") if g.strip()]
    if args.model == "series":
        series = [TruncatedSeries([parse_scalar(c) for c in g.split(",")],
                                  args.order)
                  for g in groups]
        if len(series) != nvars:
            raise VariableCountError(
                f"point has {len(series)} coordinates, need {nvars}")
        return SeriesPoint(series, order=args.order)
    values = [complex(float(Fraction(g.strip()))) for g in groups]
    if len(values) != nvars:
        raise VariableCountError(
            f"point has {len(values)} coordinates, need {nvars}")
    return FloatPoint(values, tolerance=args.tol)


def _fmt_float(v) -> str:
    if abs(v.imag) < 1e-12:
        return f"{v.real:.6g}"
    return f"{v.real:.6g}{v.imag:+.6g}i"


def cmd_ord(args, out):
    [p], _ = _parse_exprs([args.expr], args.vars)
    measure = p.complexity()
    if args.json:
        out(json.dumps({"ord": str(measure),
                        "terms": [list(t) for t in measure.terms],
                        "height": p.height(), "rank": p.rank()}))
    else:
        out(str(measure))
    return 0


def cmd_eval(args, out):
    [p], nvars = _parse_exprs([args.expr], args.vars)
    point = _point(args, nvars)
    value = eval_epoly(p, point)
    if args.model == "series":
        if args.json:
            out(json.dumps({"model": "series", "order": point.order,
                            "coefficients": [str(c) for c in value.coeffs]}))
        else:
            out(str(value))
    else:
        if args.json:
            out(json.dumps({"model": "float", "re": value.real,
                            "im": value.imag}))
        else:
            out(_fmt_float(value))
    return 0


def cmd_derive(args, out):
    [p], nvars = _parse_exprs([args.expr], args.vars)
    if args.action:
        actions, _ = _parse_exprs(args.action, nvars)
        result = apply_derivation(DerivationSpec(actions), p)
    elif args.var is not None:
        result = partial_derivative(p, args.var - 1)
    else:
        raise PreconditionError("derive needs --var or --action")
    out(json.dumps({"result": str(result)}) if args.json else str(result))
    return 0


def cmd_jacobian(args, out):
    fs, _ = _parse_exprs(args.exprs, len(args.exprs))
    result = jacobian(fs)
    out(json.dumps({"result": str(result)}) if args.json else str(result))
    return 0


def cmd_khovanskii(args, out):
    nvars = len(args.exprs)
    fs, _ = _parse_exprs(args.exprs, nvars)
    point = _point(args, nvars)
    verdict = khovanskii_check(fs, point)
    out(json.dumps({"khovanskii": verdict}) if args.json
        else ("true" if verdict else "false"))
    return 0


def cmd_member(args, out):
    ideal = _load_ideal(args)
    [p], _ = _parse_exprs([args.expr], ideal.nvars)
    result = ideal.membership(p)
    if args.json:
        out(json.dumps({
            "member": result.member,
            "cofactors": (None if result.cofactors is None
                          else [str(c) for c in result.cofactors]),
            "lattice": ideal.presentation().describe()}))
    else:
        out("true" if result.member else "false")
        if result.member:
            for c, g in zip(result.cofactors, ideal.gens):
                out(f"  cofactor of {g}: {c}")
    return 0


def cmd_intersect(args, out):
    ideal = _load_ideal(args)
    cut = ideal.intersect_subring(args.layer)
    if args.json:
        out(json.dumps({"generators": [str(g) for g in cut.gens]}))
    else:
        if not cut.gens:
            out("0")
        for g in cut.gens:
            out(str(g))
    return 0


def cmd_aug(args, out):
    nvars = args.vars
    ideal = None
    if args.ideal:
        ideal = _load_ideal(args)
        nvars = ideal.nvars
    [u], _ = _parse_exprs([args.expr], nvars)
    if ideal is not None:
        image, member = augmentation_mod(u, ideal, args.layer)
        if args.json:
            out(json.dumps({"image": str(image), "in_kernel": member}))
        else:
            out(str(image))
            out("in kernel: " + ("true" if member else "false"))
    else:
        image = augmentation(u, args.layer)
        out(json.dumps({"image": str(image)}) if args.json else str(image))
    return 0


def cmd_dagger(args, out):
    ideal = _load_ideal(args)
    report = dagger_check(ideal, args.layer)
    if args.json:
        out(json.dumps({
            "layer": report.layer,
            "holds_on_generators": report.holds,
            "witness": None if report.witness is None else str(report.witness),
            "checked": [str(g) for g in report.checked],
            "skipped": [str(g) for g in report.skipped]}))
    else:
        out(f"layer {report.layer}: {report.describe()}")
    return 0


def cmd_extend(args, out):
    ideal = _load_ideal(args)
    tower = TowerIdeal(ideal)
    tower.extend(args.levels)
    doc = tower.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    lines = {
        "base_layer": tower.base_layer,
        "top_level": tower.top_level,
        "tracked": [[str(s.element) for s in dec.seeds]
                    for dec in tower.decomps],
    }
    if args.query:
        [q], _ = _parse_exprs([args.query], ideal.nvars)
        level = args.level if args.level is not None else tower.top_level
        lines["query"] = str(q)
        lines["level"] = level
        lines["member"] = tower.membership(q, level)
    if args.json:
        out(json.dumps(lines))
    else:
        out(f"tower over layers [{tower.base_layer}, {tower.top_level}]")
        for i, dec in enumerate(tower.decomps):
            seeds = ", ".join(str(s.element) for s in dec.seeds) or "(none)"
            out(f"  layer {tower.base_layer + i} tracked: {seeds}")
        if args.query:
            verdict = "true" if lines["member"] else "false"
            out(f"membership of {lines['query']} at level {lines['level']}: "
                f"{verdict}")
    return 0


def cmd_saturate(args, out):
    ideal = _load_ideal(args)
    outcome = saturate_level_one(ideal)
    if args.json:
        doc = {"status": outcome.status,
               "rounds": outcome.rounds,
               "generators": [str(g) for g in outcome.generators],
               "added": [str(g) for g in outcome.added]}
        if outcome.status == "unit":
            doc["certificate"] = [str(c) for c in outcome.certificate]
        else:
            doc["dagger_holds"] = outcome.dagger.holds
        out(json.dumps(doc))
    else:
        if outcome.status == "unit":
            out(f"failure certificate after {outcome.rounds} round(s): "
                "1 lies in the extended ideal")
            for c, g in zip(outcome.certificate, outcome.generators):
                if not c.is_zero():
                    out(f"  1 += ({c}) * ({g})")
        else:
            out(f"stabilized after {outcome.rounds} round(s)")
            out("  generators: " + "; ".join(str(g)
                                             for g in outcome.generators))
            out(f"  exp-compatibility: {outcome.dagger.describe()}")
    return 0


def cmd_rabinowitsch(args, out):
    ideal_gens = parse_ideal_file(args.ideal, args.vars)
    nvars = ideal_gens[0].nvars if ideal_gens else (args.vars or 1)
    [g], _ = _parse_exprs([args.g], nvars)
    report = nullstellensatz_pipeline(ideal_gens, g,
                                      budget_limit=args.budget)
    out(json.dumps(report.to_dict()) if args.json else report.describe())
    return 0


def cmd_demo(args, out):
    rng = random.Random(args.seed)
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
        verdict = "true" if tower.membership(q, level) else "false"
        out(f"{text} at level {level}: {verdict}")

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
    import math
    for val in (math.log(2), 2 * math.pi):
        fp = FloatPoint([complex(val)])
        fval = eval_epoly(parse_epoly("E(X1) - 2"), fp)
        gval = eval_epoly(parse_epoly("E(i*X1) - 1"), fp)
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
    return 0


def _random_zero_const(rng, nvars):
    p = EPoly.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff:
            p = p + EPoly(nvars, {(mono, None): coeff})
    return p - p.constant_term()


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="expoly",
        description="Exact computation in exponential polynomial rings")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, vars_flag=True):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--budget", type=int, default=1_000_000,
                       help="reduction step budget (default 10^6)")
        if vars_flag:
            p.add_argument("--vars", type=int, default=None,
                           help="variable count (default: inferred)")

    p = sub.add_parser("ord", help="ordinal complexity of a value")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=cmd_ord)

    p = sub.add_parser("eval", help="evaluate in a model")
    p.add_argument("expr")
    p.add_argument("--model", choices=("series", "float"), default="series")
    p.add_argument("--order", type=int, default=8,
                   help="series truncation order (default 8)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="float-model zero tolerance")
    p.add_argument("--at", required=True,
                   help="point: per-variable groups separated by ';', "
                        "series coefficients separated by ','")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("derive", help="partial derivative or derivation")
    p.add_argument("expr")
    p.add_argument("--var", type=int, default=None,
                   help="1-based variable index for a partial derivative")
    p.add_argument("--action", action="append", default=None,
                   help="D(Xj) for j = 1.. (repeat; applies the derivation)")
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("jacobian", help="determinant of the derivative matrix")
    p.add_argument("exprs", nargs="+")
    common(p)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("khovanskii",
                       help="system vanishes with nonzero jacobian at a point")
    p.add_argument("exprs", nargs="+")
    p.add_argument("--model", choices=("series", "float"), default="series")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--at", required=True)
    common(p)
    p.set_defaults(func=cmd_khovanskii)

    p = sub.add_parser("member", help="ideal membership with cofactors")
    p.add_argument("expr")
    p.add_argument("--ideal", required=True,
                   help="file with one generator per line")
    common(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("intersect", help="intersection with a lower ring")
    p.add_argument("--ideal", required=True)
    p.add_argument("--layer", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("aug", help="augmentation image (and kernel test)")
    p.add_argument("expr")
    p.add_argument("--layer", type=int, default=1)
    p.add_argument("--ideal", default=None)
    common(p)
    p.set_defaults(func=cmd_aug)

    p = sub.add_parser("dagger",
                       help="exp-compatibility of the subring intersection")
    p.add_argument("--ideal", required=True)
    p.add_argument("--layer", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_dagger)

    p = sub.add_parser("extend", help="build tower levels above an ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--query", default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--out", default=None, help="write tower/1 JSON here")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("saturate",
                       help="close an R_1 ideal under f -> E(f)-1")
    p.add_argument("--ideal", required=True)
    common(p)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("rabinowitsch",
                       help="radical membership certificate pipeline")
    p.add_argument("--ideal", required=True)
    p.add_argument("--g", required=True)
    common(p)
    p.set_defaults(func=cmd_rabinowitsch)

    p = sub.add_parser("demo", help="deterministic worked examples")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_demo)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    def out(line=""):
        sys.stdout.write(line + "\n")

    try:
        return args.func(args, out)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InternalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (PartialityError, PreconditionError, VariableCountError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ExpolyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
