"""Spans around energylab's public entry points, recorded from outside.

The tracer wraps each entry point and patches the wrapper into every
``energylab`` module namespace that holds the function by name (for
example ``ratio_report`` is bound by name in ``optimizer``), so calls from
inside the package are seen too.  Spans stay in memory; the worker writes
them out when it ends.  An entry point missing from the package is recorded
as absent and its layer reads zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, entry points, attributes taken from (args, result))
LAYERS = {
    "discrete_core.pow4": ("discrete_core", ("fourier_l4_pow4_with_error", "fourier_l4_pow4"),
                           lambda args, res: {"support": len(args[0].values)}),
    "discrete_core.lq": ("discrete_core", ("lq_norm_with_error", "lq_norm"), None),
    "discrete_core.ratio_report": ("discrete_core", ("ratio_report",), None),
    "discrete_core.energy": ("discrete_core", ("energy_of_set",),
                             lambda args, res: {"points": args[0].size, "pairs": args[0].size ** 2}),
    "certificates.evaluate": ("certificates", ("evaluate_certificate",),
                              lambda args, res: {"valid": bool(res.valid)}),
    "certificates.gaussian": ("certificates", ("build_gaussian_certificate",), None),
    "certificates.perturbation": ("certificates", ("build_perturbation_certificate",), None),
    "certificates.discretization": ("certificates", ("continuum_discretization_report",), None),
    "continuum.quadrature": ("continuum", ("quadrature_l4hat", "quadrature_lq_pow",
                                           "truncated_gaussian_l4hat_pow4"), None),
    "optimizer.maximize": ("optimizer", ("maximize_ratio",), None),
    "optimizer.estimate": ("optimizer", ("estimate_qn",), None),
    "experiments.ball_set": ("experiments", ("ball_lattice_set",), None),
    "cli.main": ("cli", ("main",), None),
}
# Called thousands of times per ascent: counted, not timed.
COUNTERS = {"optimizer.objective": ("optimizer", "objective")}

# name -> unit, in the order reported; also the per_layer list of BENCHMARK.json
LAYER_METRICS = {
    "discrete_core.pow4.calls": "count",
    "discrete_core.pow4.busy_s": "s",
    "discrete_core.pow4.support_max": "count",
    "discrete_core.pow4.support_sum": "count",
    "discrete_core.lq.calls": "count",
    "discrete_core.lq.busy_s": "s",
    "discrete_core.ratio_report.calls": "count",
    "discrete_core.ratio_report.busy_s": "s",
    "discrete_core.ratio_report.self_s": "s",
    "discrete_core.energy.calls": "count",
    "discrete_core.energy.busy_s": "s",
    "discrete_core.energy.points_sum": "count",
    "discrete_core.energy.pairs_sum": "count",
    "certificates.evaluate.calls": "count",
    "certificates.evaluate.busy_s": "s",
    "certificates.evaluate.self_s": "s",
    "certificates.evaluate.valid_ratio": "1",
    "certificates.gaussian.busy_s": "s",
    "certificates.gaussian.self_s": "s",
    "certificates.perturbation.calls": "count",
    "certificates.perturbation.busy_s": "s",
    "certificates.discretization.busy_s": "s",
    "certificates.discretization.self_s": "s",
    "continuum.quadrature.calls": "count",
    "continuum.quadrature.busy_s": "s",
    "optimizer.maximize.calls": "count",
    "optimizer.maximize.busy_s": "s",
    "optimizer.maximize.self_s": "s",
    "optimizer.maximize.ratio_reports_per_call": "1",
    "optimizer.estimate.probes": "count",
    "optimizer.estimate.fired_ratio": "1",
    "optimizer.objective.calls": "count",
    "experiments.ball_set.calls": "count",
    "experiments.ball_set.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
}


class Tracer:
    """Records spans (id, parent, layer, entry, start, end, attrs) while
    installed.  Single-threaded: ENERGY_LAB_THREADS is unset in the worker."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self.pass_index = None
        self._stack = []
        self._wrappers = []  # (original, wrapper)
        self._patched = []  # (module, attr, original)
        for layer, (modname, entries, attrs) in LAYERS.items():
            for entry in entries:
                fn = self._lookup(modname, entry)
                if fn is not None:
                    self._wrappers.append((fn, self._span_wrapper(layer, entry, fn, attrs)))
        for name, (modname, entry) in COUNTERS.items():
            fn = self._lookup(modname, entry)
            if fn is not None:
                self._wrappers.append((fn, self._count_wrapper(name, fn)))

    def _lookup(self, modname, entry):
        try:
            fn = getattr(importlib.import_module(f"energylab.{modname}"), entry, None)
        except ImportError:
            fn = None
        if fn is None:
            self.absent.append(f"{modname}.{entry}")
        return fn

    def _span_wrapper(self, layer, entry, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = attrs(args, result) if attrs and result is not None else {}
                spans[sid] = (sid, parent, layer, entry, t0, t1, extra, self.pass_index)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.pass_index, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, pass_index) -> None:
        """Patch every energylab namespace that binds a wrapped function."""
        self.pass_index = pass_index
        originals = {id(fn): wrapper for fn, wrapper in self._wrappers}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "energylab" or name.startswith("energylab.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.pass_index = None

    def pass_metrics(self, pass_index) -> dict:
        """Per-layer metrics of one traced pass.

        calls and busy_s count only a layer's outermost spans (pow4 calls
        pow4); self_s is each span's time minus its direct children's.
        """
        spans = {s[0]: s for s in self.spans if s is not None and s[7] == pass_index}
        child_time = defaultdict(float)
        for sid, parent, _, _, t0, t1, _, _ in spans.values():
            if parent is not None:
                child_time[parent] += t1 - t0

        def layer_of(sid):
            return spans[sid][2] if sid in spans else None

        def outermost(span):
            parent = span[1]
            while parent is not None and parent in spans:
                if spans[parent][2] == span[2]:
                    return False
                parent = spans[parent][1]
            return True

        calls, busy, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        attr_sum, attr_max = defaultdict(float), defaultdict(float)
        under = defaultdict(int)  # (parent layer, child layer) -> direct calls
        for span in spans.values():
            sid, parent, layer, _, t0, t1, extra, _ = span
            self_s[layer] += (t1 - t0) - child_time[sid]
            under[(layer_of(parent), layer)] += 1
            if outermost(span):
                calls[layer] += 1
                busy[layer] += t1 - t0
                for key, value in extra.items():
                    attr_sum[(layer, key)] += value
                    attr_max[(layer, key)] = max(attr_max[(layer, key)], value)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in LAYER_METRICS:
            layer, _, metric = name.rpartition(".")
            if metric == "calls":
                out[name] = calls[layer]
            elif metric == "busy_s":
                out[name] = busy[layer]
            elif metric == "self_s":
                out[name] = self_s[layer]
        pow4, energy = "discrete_core.pow4", "discrete_core.energy"
        out[f"{pow4}.support_max"] = int(attr_max[(pow4, "support")])
        out[f"{pow4}.support_sum"] = int(attr_sum[(pow4, "support")])
        out[f"{energy}.points_sum"] = int(attr_sum[(energy, "points")])
        out[f"{energy}.pairs_sum"] = int(attr_sum[(energy, "pairs")])
        out["certificates.evaluate.valid_ratio"] = ratio(
            attr_sum[("certificates.evaluate", "valid")], calls["certificates.evaluate"])
        out["optimizer.maximize.ratio_reports_per_call"] = ratio(
            under[("optimizer.maximize", "discrete_core.ratio_report")],
            calls["optimizer.maximize"])
        probes = under[("optimizer.estimate", "optimizer.maximize")]
        out["optimizer.estimate.probes"] = probes
        out["optimizer.estimate.fired_ratio"] = ratio(
            under[("optimizer.estimate", "certificates.evaluate")], probes)
        out["optimizer.objective.calls"] = self.counts[(pass_index, "optimizer.objective")]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                if s is None:
                    continue
                sid, parent, layer, entry, t0, t1, extra, pass_index = s
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "entry": entry, "pass": pass_index, "start": t0,
                                     "end": t1, "attrs": extra}) + "\n")
