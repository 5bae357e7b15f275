"""Spans around the calls into pzbeam's modules, recorded from outside, and
the per-layer metrics computed from them.

install() wraps the public functions of each traced module and rebinds
every pzbeam module attribute that names one of them, so a call made inside
pzbeam (section.build_section calling materials.as_plane, say) passes
through the wrapper too and its span gets the caller's span as parent.
Section.terminal_of runs once per layer and unit state, so it is counted
rather than spanned.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# module -> functions to span; None spans every public function defined there.
# Only cli.main is spanned in the CLI, so its self time is parse and render.
TRACED = {"materials": None, "section": None, "oracle": None, "beam": None, "cli": ("main",)}
COUNTED = ("section", "Section", "terminal_of")

# traced functions whose self time per op is reported; those also marked
# True report their calls per op
SPAN_METRICS = {
    "materials.builtin_materials": True, "materials.convert_d_to_e": True,
    "materials.load_material_db": False, "section.build_section": False,
    "section.compare_closures": False, "section.reduce_section": True,
    "section.nsr_transverse_field": False, "section.recover_stress_profile": False,
    "beam.make_beam": False, "beam.modal_frequencies": False,
    "beam.coupling_factor": False, "cli.main": False,
}


class Tracer:
    """In-memory spans, one entry per span in each of the parallel lists.

    Plain lists of strings, ints and floats keep the garbage collector's
    cost of a long traced run low.
    """

    def __init__(self):
        self.names, self.parents, self.ops, self.starts, self.ends = [], [], [], [], []
        self.op = -1              # -1 marks spans made outside a timed op
        self.counts = {}          # op id -> terminal_of calls
        self._stack = []
        self._patches = []

    def _spanned(self, name, fn):
        names, parents, ops, starts, ends = (self.names, self.parents, self.ops,
                                             self.starts, self.ends)
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[tracer.op] = counts.get(tracer.op, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, *callers):
        """Wrap the traced functions, also where the caller modules bound them."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pzbeam" or n.startswith("pzbeam."))]
        modules += callers
        for short, names in TRACED.items():
            module = sys.modules.get(f"pzbeam.{short}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and (names is None or attr in names)):
                    continue
                wrapper = self._spanned(f"{short}.{attr}", fn)
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, bound, wrapper)
        module_name, cls_name, method = COUNTED
        cls = getattr(sys.modules.get(f"pzbeam.{module_name}"), cls_name, None)
        if cls is not None and method in vars(cls):
            self._patch(cls, method, self._counted(vars(cls)[method]))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def table(self):
        """Arrays (names, op, duration, self time) over all spans, seconds."""
        parent = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return (np.array(self.names, dtype=object), np.array(self.ops, dtype=np.int64),
                dur, dur - children)

    def write_tsv(self, path):
        """One line per span: id, parent, op, name, start and duration in ns."""
        t_ref = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("id\tparent\top\tname\tstart_ns\tdur_ns\n")
            for i, row in enumerate(zip(self.parents, self.ops, self.names,
                                        self.starts, self.ends)):
                parent, op, name, t0, t1 = row
                f.write(f"{i}\t{parent}\t{op}\t{name}\t{round((t0 - t_ref) * 1e9)}\t"
                        f"{round((t1 - t0) * 1e9)}\n")


def layer_exponent(layers, times) -> float | None:
    """Log-log slope of time against layer count; None without two counts."""
    layers, times = np.asarray(layers, dtype=float), np.asarray(times)
    keep = times > 0
    if len(np.unique(layers[keep])) < 2:
        return None
    return float(np.polyfit(np.log(layers[keep]), np.log(times[keep]), 1)[0])


def per_layer_metrics(tracer, plan, traced, untraced, oracle) -> tuple:
    """Per-layer metrics of the traced ops, and how reduce_section scales.

    traced and untraced are the two phases of the run; oracle is the
    workload's log of its checks against discretized_oracle.
    """
    names, op, dur, self_time = tracer.table()
    n_ops = len(traced.keys)
    in_op = op >= 0
    metrics = {}
    for name, with_calls in SPAN_METRICS.items():
        mask = in_op & (names == name)
        if with_calls:
            metrics[f"{name}.calls_per_op"] = (int(mask.sum()) / n_ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (float(self_time[mask].sum()) * 1e3 / n_ops, "ms")
    calls = sum(c for o, c in tracer.counts.items() if o >= 0)
    metrics["section.terminal_of.calls_per_op"] = (calls / n_ops, "count")

    reduce_mask = in_op & (names == "section.reduce_section")
    reduce_ms = np.bincount(op[reduce_mask], weights=self_time[reduce_mask],
                            minlength=n_ops) * 1e3
    layers = np.array([plan.inputs[k]["layers"] for k in traced.keys])
    wiring = np.array([plan.inputs[k]["wiring"] for k in traced.keys])
    exponent = layer_exponent(layers, reduce_ms)
    metrics["section.reduce_section.layer_exponent"] = (exponent or 0.0, "1")

    checks = (~in_op) & (names == "oracle.discretized_oracle")
    metrics["oracle.discretized_oracle.ms_per_check"] = (
        float(dur[checks].mean()) * 1e3 if checks.any() else 0.0, "ms")
    metrics["oracle.max_scaled_dev"] = (oracle.max_dev, "1")
    slowdown = (len(untraced.keys) / untraced.wall) / (len(traced.keys) / traced.wall)
    metrics["trace.overhead_pct"] = ((slowdown - 1.0) * 100.0, "%")

    bucket = np.array([plan.inputs[k]["bucket"] for k in traced.keys])
    buckets = []
    for b, w in sorted(set(zip(bucket, wiring))):
        sel = (bucket == b) & (wiring == w)
        buckets.append({"bucket": str(b), "wiring": str(w), "ops": int(sel.sum()),
                        "layers_mean": float(layers[sel].mean()),
                        "reduce_self_ms_p50": float(np.median(reduce_ms[sel]))})
    scaling = {"buckets": buckets,
               "layer_exponent_by_wiring": {str(w): layer_exponent(layers[wiring == w],
                                                                   reduce_ms[wiring == w])
                                            for w in sorted(set(wiring))},
               "oracle_checks": oracle.checks}
    return metrics, scaling
