"""Per-layer tracing from outside the library.

`Tracer.install()` wraps the public functions and methods of each traced
module of `expoly`, replacing every module attribute that names the same
function (so `expoly.ideals.buchberger` and `expoly.rabin.buchberger` are
both wrapped), and `uninstall()` puts the originals back.  Each call to a
wrapped callable records a span (id, parent id, session id, name, start,
end), kept in memory and written out by `write_spans`.  Self time is a
span's duration minus the time its child spans cover.  For callables that
take a `budget`, the steps spent during the call are read from
`Budget.used` before and after.

Leaf helpers called once per term or per comparison (monomial arithmetic,
term comparators, scalar coercions, Poly arithmetic, the monomial order)
are not wrapped: their cost stays in their caller's self time.
Gaussian-rational arithmetic is counted without a span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter

TRACED_MODULES = ("scalars", "epoly", "textio", "polyring", "linalg",
                  "ideals", "tower", "rabin")

NOT_WRAPPED = {
    "epoly.cmp_term_key", "epoly.cmp_epoly", "epoly.term_layer",
    "epoly.EPoly.is_zero", "epoly.EPoly.height", "epoly.EPoly.constant_term",
    "polyring.mono_mul", "polyring.mono_divides", "polyring.mono_div",
    "polyring.mono_lcm", "polyring.MonomialOrder", "polyring.PolyRing",
    "polyring.Poly", "polyring.TrackedPoly",
    "linalg.vec_add", "linalg.vec_scale",
    "ideals.LaurentPresentation.uv_index",
    "ideals.LaurentPresentation.extra_index",
    "scalars.gaussian", "scalars.as_scalar", "scalars.scalar_re",
    "scalars.scalar_im", "scalars.scalar_inv", "scalars.scalar_sort_key",
    "scalars.format_scalar", "scalars.parse_scalar", "scalars.BaseField",
}
COUNTED_ONLY = {"scalars.GaussianRational"}
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
           "__pow__", "__str__"}


class Tracer:
    def __init__(self):
        self.session = -1
        self.spans = []          # (id, parent, session, name, start, end) ns
        self.calls = Counter()
        self.self_ns = Counter()
        self.steps = Counter()   # budget steps per callable name
        self.session_steps = Counter()  # (session, name) -> budget steps
        self.active = Counter()  # open spans per callable name
        self.stats = Counter()   # counts observed on results
        self.maxima = Counter()
        self._stack = []         # [span id, child ns]
        self._next_id = 1
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        budget_at = _budget_position(fn)
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter_ns
        stack, spans, active = self._stack, self.spans, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            budget = None
            if budget_at is not None:
                budget = (args[budget_at] if len(args) > budget_at
                          else kwargs.get("budget"))
            before = budget.used if budget is not None else 0
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            if observe is not None:
                observe(self, "enter", None)
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                spans.append((span_id, parent, self.session, name, start,
                              end))
                if budget is not None:
                    self.steps[name] += budget.used - before
                    self.session_steps[(self.session, name)] += (budget.used
                                                                 - before)
                    if (name == "polyring.reduce_full"
                            and not active["polyring.buchberger"]):
                        self.stats["normal_form_steps"] += (budget.used
                                                            - before)
            if observe is not None:
                observe(self, "exit", result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import expoly
        modules = [sys.modules[f"expoly.{m}"] for m in TRACED_MODULES]
        holders = [expoly] + [m for k, m in sorted(sys.modules.items())
                              if k.startswith("expoly.")]
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in NOT_WRAPPED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._span_wrapper(name, obj)
                    for holder in holders:
                        if holder.__dict__.get(attr) is obj:
                            self._patch(holder, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(
                        obj, (tuple, BaseException)):
                    self._wrap_class(name, obj)

    def _wrap_class(self, prefix, cls):
        counted = prefix in COUNTED_ONLY
        for attr, member in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if name in NOT_WRAPPED:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                fn = member.__func__
                self._patch(cls, attr, kind(self._span_wrapper(name, fn)))
            elif inspect.isfunction(member):
                make = self._count_wrapper if counted else self._span_wrapper
                self._patch(cls, attr, make(name, member))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_ms(self, *names):
        """Summed self time of the named callables; a name ending in "."
        stands for every callable under that prefix."""
        return sum(ns for name, ns in self.self_ns.items()
                   if _matches(name, names)) / 1e6

    def count(self, *names):
        return sum(c for name, c in self.calls.items()
                   if _matches(name, names))

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tsession\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _matches(name, patterns):
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in patterns)


def _budget_position(fn):
    params = list(inspect.signature(fn).parameters)
    return params.index("budget") if "budget" in params else None


def _observe_buchberger(tracer, phase, result):
    if phase == "exit":
        tracer.maxima["basis_size_max"] = max(
            tracer.maxima["basis_size_max"], len(result.elements))


def _observe_membership(tracer, phase, result):
    if phase == "enter" and not tracer.active["tower.TowerIdeal.membership"]:
        tracer.stats["tower_queries"] += 1


def _observe_try_add(tracer, phase, result):
    if (phase == "exit" and result is None
            and tracer.active["tower.TowerIdeal.membership"]):
        tracer.stats["slice_refreshes"] += 1


def _observe_saturate(tracer, phase, result):
    if phase == "exit":
        tracer.stats["saturate_rounds"] += result.rounds


def _observe_certificate(tracer, phase, result):
    if phase == "exit" and result.found:
        degree = max((max(s.coeffs, default=0) for s in result.t), default=0)
        tracer.maxima["certificate_degree_max"] = max(
            tracer.maxima["certificate_degree_max"], degree)


_OBSERVERS = {
    "polyring.buchberger": _observe_buchberger,
    "tower.TowerIdeal.membership": _observe_membership,
    "tower.TrackedDecomposition.try_add": _observe_try_add,
    "tower.saturate_level_one": _observe_saturate,
    "rabin.one_certificate": _observe_certificate,
}


def layer_metrics(tracer, ops):
    """The per-layer metrics of one traced pass over `ops` ops."""
    t = tracer
    bb = "polyring.buchberger"
    values = {
        "polyring.buchberger_calls": (t.calls[bb], "count"),
        "polyring.buchberger_self_ms": (t.self_ms(bb), "ms"),
        "polyring.buchberger_steps": (t.steps[bb], "count"),
        "polyring.basis_size_max": (t.maxima["basis_size_max"], "count"),
        "polyring.reduce_full_calls": (t.calls["polyring.reduce_full"],
                                       "count"),
        "polyring.reduce_full_self_ms": (t.self_ms("polyring.reduce_full"),
                                         "ms"),
        "polyring.normal_form_steps": (t.stats["normal_form_steps"], "count"),
        "polyring.cofactor_lift_self_ms": (
            t.self_ms("polyring.GroebnerBasis.cofactors"), "ms"),
        "epoly.values_built": (t.calls["epoly.EPoly.__init__"], "count"),
        "epoly.init_self_ms": (t.self_ms("epoly.EPoly.__init__"), "ms"),
        "epoly.mul_calls": (t.count("epoly.EPoly.__mul__",
                                    "epoly.EPoly.__rmul__"), "count"),
        "epoly.mul_self_ms": (t.self_ms("epoly.EPoly.__mul__",
                                        "epoly.EPoly.__rmul__"), "ms"),
        "epoly.add_self_ms": (t.self_ms("epoly.EPoly.__add__",
                                        "epoly.EPoly.__radd__",
                                        "epoly.EPoly.__sub__",
                                        "epoly.EPoly.__rsub__"), "ms"),
        "epoly.exp_calls": (t.calls["epoly.EPoly.exp"], "count"),
        "epoly.print_self_ms": (t.self_ms("epoly.EPoly.__str__"), "ms"),
        "scalars.gaussian_ops": (t.count("scalars.GaussianRational."),
                                 "count"),
        "textio.parse_calls": (t.calls["textio.parse_epoly"], "count"),
        "textio.parse_self_ms": (t.self_ms("textio."), "ms"),
        "ideals.present_calls": (t.calls["ideals.present"], "count"),
        "ideals.present_self_ms": (t.self_ms("ideals.present"), "ms"),
        "ideals.encode_calls": (t.calls["ideals.LaurentPresentation.encode"],
                                "count"),
        "ideals.encode_self_ms": (
            t.self_ms("ideals.LaurentPresentation.encode",
                      "ideals.LaurentPresentation.exponent_coordinates"),
            "ms"),
        "ideals.decode_self_ms": (
            t.self_ms("ideals.LaurentPresentation.decode"), "ms"),
        "ideals.membership_calls": (t.calls["ideals.IdealHandle.membership"],
                                    "count"),
        "ideals.groebner_runs_per_op": (t.calls[bb] / ops, "1/op"),
        "linalg.echelon_self_ms": (t.self_ms("linalg.RationalEchelon."),
                                   "ms"),
        "linalg.lattice_basis_self_ms": (
            t.self_ms("linalg.lattice_basis", "linalg.hnf_with_transform",
                      "linalg.solve_upper_integer"), "ms"),
        "linalg.integer_kernel_self_ms": (t.self_ms("linalg.integer_kernel"),
                                          "ms"),
        "tower.membership_calls": (t.calls["tower.TowerIdeal.membership"],
                                   "count"),
        "tower.membership_fanout": (
            t.calls["tower.TowerIdeal.membership"]
            / max(t.stats["tower_queries"], 1), "1/query"),
        "tower.rewrite_calls": (t.calls["tower.rewrite"], "count"),
        "tower.rewrite_self_ms": (t.self_ms("tower.rewrite"), "ms"),
        "tower.slice_refreshes": (t.stats["slice_refreshes"], "count"),
        "tower.saturate_rounds": (t.stats["saturate_rounds"], "count"),
        "tower.dagger_self_ms": (t.self_ms("tower.dagger_check"), "ms"),
        "rabin.one_certificate_self_ms": (t.self_ms("rabin.one_certificate"),
                                          "ms"),
        "rabin.spoly_self_ms": (t.self_ms("rabin.SPoly."), "ms"),
        "rabin.extract_power_self_ms": (t.self_ms("rabin.extract_power"),
                                        "ms"),
        "rabin.certificate_degree_max": (
            t.maxima["certificate_degree_max"], "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
