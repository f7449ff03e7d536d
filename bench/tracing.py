"""Opt-in tracing of lsakit, installed from outside and removed afterwards.

Spans: every public function of an lsakit module is replaced, in every
module namespace that binds it (its own module, the package, and each
module that did ``from .x import y``), by one wrapper that records a span
(name, start, end, parent, job id) and per-name call counts, inclusive
time and self time.  Self time is a span's duration minus the time its
child spans cover.

Hot methods (``Poly.__mul__``, ``Poly.__rmul__``, ``Poly.__add__``,
``Poly.__radd__`` and ``VectorField.apply``) are patched on their classes
and only aggregated (count and inclusive time), since one span per call
would cost more than the work itself.

Spans are kept in flat arrays in memory and written out by ``dump`` when
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter

# report.py holds the record types the CLI emits, so it belongs to the cli
# layer; errors.py defines only exceptions and has nothing to trace.
LAYER_OF_MODULE = {"report": "cli"}
# Called once per coefficient inside the Poly constructor: a span per call
# would dwarf the work it measures, and no metric reads it.
UNTRACED = {"polyring.as_rational"}


def _lsakit_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "lsakit" or name.startswith("lsakit."))
            and isinstance(mod, types.ModuleType)]


def _public_functions():
    """Map each public lsakit function to its span name."""
    found = {}
    for mod in _lsakit_modules():
        for attr, value in vars(mod).items():
            if not isinstance(value, types.FunctionType):
                continue
            home = value.__module__ or ""
            if attr.startswith("_") or value.__name__.startswith("_") \
                    or not home.startswith("lsakit."):
                continue
            short = home.split(".", 1)[1]
            layer = LAYER_OF_MODULE.get(short, short)
            name = f"{layer}.{value.__name__}"
            if name not in UNTRACED:
                found[value] = name
    return found


class Tracer:
    """Span and counter store; ``install`` patches lsakit, ``remove``
    restores every patched attribute."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.calls = array("q")
        self.total_s = array("d")
        self.self_s = array("d")
        self.job = -1
        # [calls, seconds] per hot method group, plus mul-specific counts
        self.hot = {"mul": [0, 0.0], "add": [0, 0.0], "vf_apply": [0, 0.0]}
        self.mul_term_products = 0
        self.mul_zero = 0
        self.elim_entries = 0
        self.assembly_cols = 0
        self.term_pairs = 0
        self.distinct_pairs: set = set()
        self._stack: list = []   # [span index, child seconds]
        self._patches: list = []
        self._job_name = None
        self.origin = perf_counter()

    # -- spans --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(name.split(".", 1)[0])
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def span(self, name_id: int, fn, args, kwargs, observe=None):
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self.span_start.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        self.span_start[index] = start
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.span_end[index] = end
            self.calls[name_id] += 1
            self.total_s[name_id] += duration
            self.self_s[name_id] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
        if observe is not None:
            observe(args, kwargs, result)
        return result

    def run_job(self, job: int, fn):
        """Run one benchmark job under a root span tagged with its id."""
        if self._job_name is None:
            self._job_name = self._name_id("bench.job")
        self.job = job
        try:
            return self.span(self._job_name, fn, (), {})
        finally:
            self.job = -1

    # -- observers for counters that need arguments or results --------

    def _observe_elim(self, args, kwargs, result):
        matrix = args[0]
        self.elim_entries += len(matrix) * len(matrix[0]) if matrix else 0

    def _observe_assembly(self, args, kwargs, result):
        self.assembly_cols += len(result[1])

    def _observe_graded_product(self, args, kwargs, result):
        # a memo of the extended product would be keyed per algebroid
        alg, x, y = id(args[0]), args[1], args[2]
        seen = self.distinct_pairs
        for kx, px in x.terms.items():
            for ky, py in y.terms.items():
                self.term_pairs += len(px.terms) * len(py.terms)
                for ex in px.terms:
                    for ey in py.terms:
                        seen.add((alg, kx, ex, ky, ey))

    # -- install / remove ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {"polyring.rational_kernel_and_rank": self._observe_elim,
                     "cohomology.assemble_point_differential":
                         self._observe_assembly,
                     "multivector.graded_product":
                         self._observe_graded_product}
        wrappers = {}
        for fn, name in _public_functions().items():
            wrappers[fn] = self._span_wrapper(fn, self._name_id(name),
                                              observers.get(name))
        for mod in _lsakit_modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        from lsakit.polyring import Poly, VectorField
        for attr in ("__mul__", "__rmul__"):
            self._patch(Poly, attr, self._mul_wrapper(Poly, Poly.__dict__[attr]))
        for attr in ("__add__", "__radd__"):
            self._patch(Poly, attr, self._hot_wrapper(Poly.__dict__[attr],
                                                      self.hot["add"]))
        self._patch(VectorField, "apply",
                    self._hot_wrapper(VectorField.__dict__["apply"],
                                      self.hot["vf_apply"]))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, fn, name_id, observe):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(name_id, fn, args, kwargs, observe)
        traced.__bench_traced__ = True
        return traced

    def _hot_wrapper(self, fn, stats):
        @functools.wraps(fn)
        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            stats[1] += perf_counter() - start
            stats[0] += 1
            return result
        traced.__bench_traced__ = True
        return traced

    def _mul_wrapper(self, poly_cls, fn):
        stats = self.hot["mul"]
        tracer = self

        @functools.wraps(fn)
        def traced(left, right):
            start = perf_counter()
            result = fn(left, right)
            stats[1] += perf_counter() - start
            stats[0] += 1
            if isinstance(right, poly_cls):
                tracer.mul_term_products += len(left.terms) * len(right.terms)
                if not left.terms or not right.terms:
                    tracer.mul_zero += 1
            elif not left.terms or right == 0:
                tracer.mul_zero += 1
            return result
        traced.__bench_traced__ = True
        return traced

    # -- results --------------------------------------------------------

    def by_name(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) summed over every
        span name equal to ``name``."""
        calls, total, self_time = 0, 0.0, 0.0
        for i, n in enumerate(self.names):
            if n == name:
                calls += self.calls[i]
                total += self.total_s[i]
                self_time += self.self_s[i]
        return calls, total, self_time

    def by_layer(self, layer: str) -> tuple[int, float]:
        """(calls, self seconds) over every span of one layer."""
        calls, self_time = 0, 0.0
        for i, owner in enumerate(self.layer_of):
            if owner == layer:
                calls += self.calls[i]
                self_time += self.self_s[i]
        return calls, self_time

    def dump(self, handle) -> None:
        """Write the name table and the span log as JSON; times are
        seconds since the tracer was created."""
        origin = self.origin
        json.dump({
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "start": [s - origin for s in self.span_start],
                "end": [e - origin for e in self.span_end],
                "parent": list(self.span_parent),
                "job": list(self.span_job),
            },
        }, handle)


def installed_wrappers() -> list[str]:
    """Names of lsakit attributes that are still tracing wrappers."""
    from lsakit.polyring import Poly, VectorField
    left = []
    owners = list(_lsakit_modules()) + [Poly, VectorField]
    for owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, "__bench_traced__", False):
                left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left


# Per-layer metrics of one traced pass, in report order, with units.
# Times named *_s are inclusive unless the name says self_s.
LAYER_UNITS = {
    "polyring.mul_calls": "count",
    "polyring.mul_term_products": "count",
    "polyring.mul_zero_frac": "ratio",
    "polyring.mul_s": "s",
    "polyring.add_calls": "count",
    "polyring.add_s": "s",
    "polyring.vf_apply_calls": "count",
    "polyring.vf_apply_s": "s",
    "polyring.elim_calls": "count",
    "polyring.elim_s": "s",
    "polyring.elim_entries": "count",
    "core.section_mult_calls": "count",
    "core.section_mult_self_s": "s",
    "core.axiom_checks": "count",
    "core.axiom_checks_per_job": "count/job",
    "core.axiom_s": "s",
    "multivector.graded_product_calls": "count",
    "multivector.graded_product_self_s": "s",
    "multivector.term_pairs": "count",
    "multivector.term_pair_reuse": "ratio",
    "cohomology.rep_d_calls": "count",
    "cohomology.rep_d_s": "s",
    "cohomology.def_d_calls": "count",
    "cohomology.def_d_s": "s",
    "cohomology.assembly_s": "s",
    "cohomology.assembly_cols": "count",
    "constructions.calls": "count",
    "constructions.self_s": "s",
    "deformations.calls": "count",
    "deformations.self_s": "s",
    "instances.parse_calls": "count",
    "instances.parse_s": "s",
    "cli.run_suite_self_s": "s",
    "cli.emit_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Every LAYER_UNITS metric except trace.overhead, which needs the
    untraced pass."""
    mul_calls, mul_s = tracer.hot["mul"]
    add_calls, add_s = tracer.hot["add"]
    vf_calls, vf_s = tracer.hot["vf_apply"]
    elim_calls, elim_s, _ = tracer.by_name("polyring.rational_kernel_and_rank")
    mult_calls, _, mult_self = tracer.by_name("core.section_mult")
    axiom_calls, axiom_s, _ = tracer.by_name("core.check_left_symmetric")
    gp_calls, _, gp_self = tracer.by_name("multivector.graded_product")
    rep_d_calls, rep_d_s, _ = tracer.by_name("cohomology.rep_d")
    def_d_calls, def_d_s, _ = tracer.by_name("cohomology.def_d")
    _, assembly_s, _ = tracer.by_name(
        "cohomology.assemble_point_differential")
    cons_calls, cons_self = tracer.by_layer("constructions")
    deform_calls, deform_self = tracer.by_layer("deformations")
    parse_calls, parse_s, _ = tracer.by_name("instances.parse_instance")
    _, _, suite_self = tracer.by_name("cli.run_suite")
    _, _, main_self = tracer.by_name("cli.main")
    distinct = len(tracer.distinct_pairs)
    return {
        "polyring.mul_calls": mul_calls,
        "polyring.mul_term_products": tracer.mul_term_products,
        "polyring.mul_zero_frac": tracer.mul_zero / mul_calls
        if mul_calls else 0.0,
        "polyring.mul_s": mul_s,
        "polyring.add_calls": add_calls,
        "polyring.add_s": add_s,
        "polyring.vf_apply_calls": vf_calls,
        "polyring.vf_apply_s": vf_s,
        "polyring.elim_calls": elim_calls,
        "polyring.elim_s": elim_s,
        "polyring.elim_entries": tracer.elim_entries,
        "core.section_mult_calls": mult_calls,
        "core.section_mult_self_s": mult_self,
        "core.axiom_checks": axiom_calls,
        "core.axiom_checks_per_job": axiom_calls / jobs,
        "core.axiom_s": axiom_s,
        "multivector.graded_product_calls": gp_calls,
        "multivector.graded_product_self_s": gp_self,
        "multivector.term_pairs": tracer.term_pairs,
        "multivector.term_pair_reuse": tracer.term_pairs / distinct
        if distinct else 0.0,
        "cohomology.rep_d_calls": rep_d_calls,
        "cohomology.rep_d_s": rep_d_s,
        "cohomology.def_d_calls": def_d_calls,
        "cohomology.def_d_s": def_d_s,
        "cohomology.assembly_s": assembly_s,
        "cohomology.assembly_cols": tracer.assembly_cols,
        "constructions.calls": cons_calls,
        "constructions.self_s": cons_self,
        "deformations.calls": deform_calls,
        "deformations.self_s": deform_self,
        "instances.parse_calls": parse_calls,
        "instances.parse_s": parse_s,
        "cli.run_suite_self_s": suite_self,
        "cli.emit_s": main_self,
    }
