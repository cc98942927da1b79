"""Span tracing of the polyfunctor modules from outside the package.

`Tracer.install` replaces every public function and public method of the
nine package modules (plus the arithmetic operators of `Scalar` and
`GradedPoly`) with a wrapper that records one span per call: name, start,
end, parent span and job id.  Module-level functions are rebound in every
namespace that imported them, so `matrices.divide_exact` and
`cli.run_rank_one_example` are traced as well.  `Tracer.uninstall` puts the
original objects back.

Spans of one job are kept in memory as flat arrays; `end_job` derives each
span's self time (duration minus the time its direct children cover) and
folds the job into per-name totals before the next job starts, so memory
stays bounded by the largest job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("fields", "rings", "parsing", "groebner", "hasse", "matrices", "functors", "proofstep", "cli")

# Operators are not public names but carry the ring and field arithmetic.
OPERATORS = {
    "Scalar": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__pow__"),
    "GradedPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                   "__rmul__", "__pow__"),
    "LinearMapMatrix": ("__matmul__",),
}

_ADDSUB = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
_SCALAR_OPS = _ADDSUB + ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inverse")

# Layer metric -> span names it sums.  Each gets `.calls` and `.self_s`.
TIMED = {
    "rings.substitute": ("rings.GradedPoly.substitute",),
    "rings.evaluate": ("rings.GradedPoly.evaluate",),
    "rings.mul": ("rings.GradedPoly.__mul__", "rings.GradedPoly.__rmul__"),
    "rings.addsub": tuple(f"rings.GradedPoly.{op}" for op in _ADDSUB),
    "rings.mul_term": ("rings.GradedPoly.mul_term",),
    "rings.leading_item": ("rings.GradedPoly.leading_item",),
    "rings.coeff_of_power": ("rings.GradedPoly.coeff_of_power",),
    "rings.convert": ("rings.GradedPoly.convert",),
    "fields.scalar_ops": tuple(f"fields.Scalar.{op}" for op in _SCALAR_OPS),
    "groebner.buchberger": ("groebner.buchberger",),
    "groebner.reduce_poly": ("groebner.reduce_poly",),
    "groebner.divide_exact": ("groebner.divide_exact",),
    "matrices.poly_matrix_det": ("matrices.poly_matrix_det",),
    "matrices.compose": ("matrices.LinearMapMatrix.compose",),
    "matrices.matrix_rank": ("matrices.matrix_rank",),
    "functors.induced_map": ("functors.induced_map",),
    "functors.shift_maps": ("functors.shift_maps",),
    "hasse.taylor_expand": ("hasse.taylor_expand",),
    "hasse.hasse_derivative": ("hasse.hasse_derivative",),
    "hasse.directional_data": ("hasse.directional_data",),
    "hasse.joint_laws": ("hasse.joint_additivity_holds", "hasse.joint_scaling_holds"),
    "parsing.parse_polynomial": ("parsing.parse_polynomial",),
    "proofstep.delta_degree": ("proofstep.delta_degree",),
    "proofstep.derivative_step": ("proofstep.derivative_step",),
    "proofstep.projection_coefficients": ("proofstep.projection_coefficients",),
    "proofstep.extract_additive_element": ("proofstep.extract_additive_element",),
    "proofstep.sample_rank_one_split": ("proofstep.sample_rank_one_split",),
    "proofstep.eliminate": ("proofstep.eliminate",),
    "proofstep.run_rank_one_example": ("proofstep.run_rank_one_example",),
    "proofstep.run_proofstep": ("proofstep.run_proofstep",),
    "cli.main": ("cli.main",),
}

# Counters kept by the wrappers or derived from the spans, with their units.
COUNTERS = {
    "rings.peak_terms": "count",
    "rings.substitute.sampling.self_s": "s",
    "fields.lucas_binomial.calls": "count",
    "groebner.pairs_considered": "count",
    "groebner.spairs_reduced": "count",
    "groebner.spairs_useful_ratio": "ratio",
    "groebner.budget_steps": "count",
    "matrices.det_max_n": "count",
    "matrices.det_entries": "count",
    "functors.induced_entries": "count",
}


# Metrics that are sums over spans, so a per-workload share is a difference.
ADDITIVE = (
    {f"{key}.{part}" for key in TIMED for part in ("calls", "self_s")}
    | {f"{layer}.{part}" for layer in LAYERS for part in ("calls", "self_s")}
    | {"rings.substitute.sampling.self_s", "fields.lucas_binomial.calls",
       "groebner.pairs_considered", "groebner.spairs_reduced", "groebner.budget_steps",
       "matrices.det_entries", "functors.induced_entries"}
)


def metric_units() -> dict:
    """Every metric `Tracer.layer_metrics` reports, with its unit."""
    units = {}
    for key in TIMED:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units.update(COUNTERS)
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    return units


def self_times(names, parents, starts, ends) -> list:
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(names))]


def _public_targets(module):
    """(owner, attribute, span name) for every traced callable of a module."""
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            out.append((module, name, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                public = not attr.startswith("_") or attr in OPERATORS.get(name, ())
                if public and isinstance(value, (types.FunctionType, staticmethod)):
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Records spans of the wrapped package functions for one job at a time."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.jobs = array("i")
        self._stack = [-1]
        self.job = 0
        self.active = False  # spans are recorded only between start_job and end_job
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {
            "rings.peak_terms": 0,
            "rings.substitute.sampling.self_s": 0.0,
            "groebner.pairs_considered": 0,
            "groebner.spairs_reduced": 0,
            "groebner.spairs_nonzero": 0,
            "matrices.det_max_n": 0,
            "matrices.det_entries": 0,
            "functors.induced_entries": 0,
        }
        self._restore: list = []

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _observer(self, span: str):
        """Counter update run on a span's arguments and result, if any."""
        counters = self.counters
        if span.startswith("rings.GradedPoly."):
            def peak(args, result, parent):
                n = len(result.terms) if type(result) is self._poly_type else 0
                if n > counters["rings.peak_terms"]:
                    counters["rings.peak_terms"] = n
            return peak
        if span == "matrices.poly_matrix_det":
            def det(args, result, parent):
                n = len(args[0])
                counters["matrices.det_entries"] += n * n
                if n > counters["matrices.det_max_n"]:
                    counters["matrices.det_max_n"] = n
            return det
        if span == "functors.induced_map":
            own = self._name_id(span)

            def entries(args, result, parent):
                if parent < 0 or self.names[parent] != own:
                    rows, cols = result.shape
                    counters["functors.induced_entries"] += rows * cols
            return entries
        if span == "groebner.reduce_poly":
            owner = self._name_id("groebner.buchberger")

            def spair(args, result, parent):
                if parent >= 0 and self.names[parent] == owner:
                    counters["groebner.spairs_reduced"] += 1
                    counters["groebner.spairs_nonzero"] += bool(result)
            return spair
        return None

    def _wrap(self, fn, span: str):
        name_id = self._name_id(span)
        observe = self._observer(span)
        names, parents, starts, ends, jobs, stack = (
            self.names, self.parents, self.starts, self.ends, self.jobs, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, result, parents[idx])
            return result

        return wrapper

    def install(self):
        """Wrap every traced callable and rebind imported module-level names."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"polyfunctor.{layer}") for layer in LAYERS]
        self._poly_type = importlib.import_module("polyfunctor.rings").GradedPoly
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "polyfunctor" or name.startswith("polyfunctor.")]
        for module in modules:
            for owner, attr, span in _public_targets(module):
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(original.__func__, span))
                else:
                    wrapped = self._wrap(original, span)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                if inspect.isclass(owner):
                    continue
                for ns in namespaces:
                    if ns is not owner and vars(ns).get(attr) is original:
                        self._restore.append((ns, attr, original))
                        setattr(ns, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- per-job folding -----------------------------------------------------

    def start_job(self, job_id: int):
        self.job = job_id
        self.active = True

    def end_job(self):
        """Stop recording, fold the job's spans into the totals and drop them."""
        self.active = False
        names, parents = self.names, self.parents
        own = self_times(names, parents, self.starts, self.ends)
        sampling_parent = self._name_ids.get("proofstep.run_rank_one_example", -2)
        substitute = self._name_ids.get("rings.GradedPoly.substitute", -2)
        buchberger = self._name_ids.get("groebner.buchberger", -2)
        spend = self._name_ids.get("groebner.Budget.spend", -2)
        for i, name_id in enumerate(names):
            name = self.span_names[name_id]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own[i]
            p = parents[i]
            if name_id == substitute and p >= 0 and names[p] == sampling_parent:
                self.counters["rings.substitute.sampling.self_s"] += own[i]
            elif name_id == spend and p >= 0 and names[p] == buchberger:
                self.counters["groebner.pairs_considered"] += 1
        for column in (self.names, self.parents, self.starts, self.ends, self.jobs):
            del column[:]

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for key, spans in TIMED.items():
            out[f"{key}.calls"] = sum(self.calls.get(s, 0) for s in spans)
            out[f"{key}.self_s"] = sum(self.self_s.get(s, 0.0) for s in spans)
        c = self.counters
        out["rings.peak_terms"] = c["rings.peak_terms"]
        out["rings.substitute.sampling.self_s"] = c["rings.substitute.sampling.self_s"]
        out["fields.lucas_binomial.calls"] = self.calls.get("fields.lucas_binomial", 0)
        out["groebner.pairs_considered"] = c["groebner.pairs_considered"]
        out["groebner.spairs_reduced"] = c["groebner.spairs_reduced"]
        reduced = c["groebner.spairs_reduced"]
        out["groebner.spairs_useful_ratio"] = c["groebner.spairs_nonzero"] / reduced if reduced else 0.0
        out["groebner.budget_steps"] = self.calls.get("groebner.Budget.spend", 0)
        out["matrices.det_max_n"] = c["matrices.det_max_n"]
        out["matrices.det_entries"] = c["matrices.det_entries"]
        out["functors.induced_entries"] = c["functors.induced_entries"]
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(v for k, v in self.calls.items() if k.startswith(prefix))
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items() if k.startswith(prefix))
        return out
