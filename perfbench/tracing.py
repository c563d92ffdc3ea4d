"""Spans and counts taken from outside the program.

The tracer replaces public functions of the ``bioright`` modules with
wrappers for the length of one traced workload run, then puts the
originals back. The package calls across modules as ``module.func`` and
within a module through its globals, so swapping the module attribute
(and any alias another bioright module holds) sees every call. A function
a later version removes is skipped and its metrics read 0.

Spans are kept in memory as (name, parent, start, end) with the parent's
index, and written out once when the benchmark ends.
"""

import inspect
import sys
import time
import warnings

import numpy as np

#: Traced public functions per module (the layers).
LAYERS = {
    "keypoints": ("load_dataset", "save_dataset", "reassociate_identities",
                  "interpolate_gaps", "pixel_to_world"),
    "track_quality": ("stability_report", "write_report_csv"),
    "frames": ("segment_series", "relative_leg_series", "righting_window",
               "write_series_csv"),
    "rotmath": ("dcm_from_axes", "dcm_to_euler321", "relative_rotation"),
    "traj": ("synth_second_order", "step_metrics", "write_trajectory_csv",
             "read_trajectory_csv", "differentiate", "time_scale"),
    "smsdyn": ("simulate_pd", "simulate_prescribed", "write_trajectory_csv"),
    "objective": ("weight_sweep", "write_report_csv"),
    "cli": ("main",),
}

#: Functions whose span name carries the value of their `format` argument.
BY_FORMAT = {"keypoints.load_dataset", "keypoints.save_dataset"}

_SPAN_METRICS = (
    "keypoints.load_dataset.csv", "keypoints.load_dataset.json",
    "keypoints.save_dataset.json", "keypoints.reassociate_identities",
    "keypoints.interpolate_gaps", "keypoints.pixel_to_world",
    "track_quality.stability_report", "track_quality.write_report_csv",
    "frames.segment_series", "frames.relative_leg_series",
    "frames.righting_window", "frames.write_series_csv",
    "traj.synth_second_order", "traj.step_metrics",
    "traj.write_trajectory_csv", "traj.read_trajectory_csv",
    "traj.differentiate", "traj.time_scale",
    "smsdyn.simulate_pd", "smsdyn.simulate_prescribed",
    "smsdyn.write_trajectory_csv",
    "objective.weight_sweep", "objective.write_report_csv",
)
_CALL_METRICS = ("rotmath.dcm_from_axes", "rotmath.dcm_to_euler321",
                 "rotmath.relative_rotation")
_COUNTS = ("keypoints.rows_read", "keypoints.swap_events",
           "keypoints.samples_interpolated", "track_quality.rows_too_sparse",
           "frames.frames_attempted", "frames.gimbal_lock_warnings",
           "smsdyn.pd_steps", "objective.weights_evaluated")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in _SPAN_METRICS},
    **{f"{module}.self_s": "s" for module in LAYERS},
    **{f"{name}.calls": "count" for name in _CALL_METRICS},
    **{name: "count" for name in _COUNTS},
    "frames.valid_ratio": "ratio",
    "smsdyn.pd_steps_per_s": "1/s",
    "smsdyn.momentum_drift_rel": "ratio",
    "cli.import.s": "s",
    "trace_overhead_s": "s",
}


def momentum_drift_rel(momentum):
    """Criterion 3: max |L - L0| relative to max(|L0|, 1e-6)."""
    momentum = np.asarray(momentum)
    drift = float(np.max(np.abs(momentum - momentum[0])))
    return drift / max(abs(float(momentum[0])), 1e-6)


def _observe(name, args, result, counts):
    """Counts taken at the boundary of a traced call."""
    if name.startswith("keypoints.load_dataset"):
        counts["keypoints.rows_read"] += sum(
            len(t.frames) for t in result.tracks.values())
    elif name == "keypoints.reassociate_identities":
        counts["keypoints.swap_events"] += len(result[1])
    elif name == "keypoints.interpolate_gaps":
        counts["keypoints.samples_interpolated"] += int(
            result.interpolated.sum() - args[0].interpolated.sum())
    elif name == "track_quality.stability_report":
        counts["track_quality.rows_too_sparse"] += sum(
            row.metrics is None for row in result)
    elif name in ("frames.segment_series", "frames.relative_leg_series"):
        counts["frames.frames_attempted"] += len(result.times)
        counts["frames.frames_valid"] += int(result.valid.sum())
    elif name == "smsdyn.simulate_pd":
        counts["smsdyn.pd_steps"] += len(result.times) - 1
        counts["smsdyn.momentum_drift_rel"] = max(
            counts["smsdyn.momentum_drift_rel"],
            momentum_drift_rel(result.momentum))
    elif name == "objective.weight_sweep":
        counts["objective.weights_evaluated"] += len(result.rows)


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.names = []        # span name table
        self.spans = []        # (name index, parent index, start, end)
        self._stack = []
        self._originals = []   # (namespace, attribute, original)
        self.counts = None

    def _wrap(self, name, func):
        index = self._label(name)
        spans, stack = self.spans, self._stack
        signature = inspect.signature(func) if name in BY_FORMAT else None
        tracer = self

        def wrapper(*args, **kwargs):
            label = index
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = tracer._label(f"{name}.{bound.arguments['format']}")
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[me] = (label, stack[-1] if stack else -1, start, end)
            tracer.counts[tracer.names[label] + ".calls"] += 1
            _observe(tracer.names[label], args, result, tracer.counts)
            return result
        return wrapper

    def _label(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def install(self, counts):
        """Wrap every listed function; `counts` receives the counters."""
        self.counts = counts
        modules = [m for key, m in sys.modules.items()
                   if key == "bioright" or key.startswith("bioright.")]
        for module_name, functions in LAYERS.items():
            module = sys.modules.get(f"bioright.{module_name}")
            for fname in functions:
                func = getattr(module, fname, None)
                if func is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{fname}", func)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is func:
                            self._originals.append((ns, attr, func))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, func in reversed(self._originals):
            setattr(ns, attr, func)
        self._originals.clear()

    def run(self, body, counts):
        """Call `body()` traced. Returns the wall time of the call and the
        range [first, last) of the spans it recorded."""
        first = len(self.spans)
        self.install(counts)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    body()
                finally:
                    wall = time.perf_counter() - start
        finally:
            self.uninstall()
        counts["frames.gimbal_lock_warnings"] += sum(
            w.category.__name__ == "GimbalLockWarning" for w in caught)
        return wall, first, len(self.spans)

    def summarize(self, first, last):
        """Inclusive time per span name and self time per module for the
        spans in [first, last)."""
        inclusive = {}
        children = {}
        for label, parent, start, end in self.spans[first:last]:
            name = self.names[label]
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)
        self_by_module = {m: 0.0 for m in LAYERS}
        for i in range(first, last):
            label, _, start, end = self.spans[i]
            module = self.names[label].split(".", 1)[0]
            self_by_module[module] += (end - start) - children.get(i, 0.0)
        return inclusive, self_by_module

    def write(self, path):
        """Write every span as CSV: index, parent, name, start, end."""
        with open(path, "w") as f:
            f.write("index,parent,name,start_s,end_s\n")
            for i, (label, parent, start, end) in enumerate(self.spans):
                f.write(f"{i},{parent},{self.names[label]},{start!r},"
                        f"{end!r}\n")


def layer_metrics(inclusive, self_by_module, counts):
    """Per-layer metrics of one traced run from its spans and counts."""
    metrics = {f"{name}.s": inclusive.get(name, 0.0) for name in _SPAN_METRICS}
    metrics.update({f"{m}.self_s": t for m, t in self_by_module.items()})
    metrics.update({f"{name}.calls": counts[f"{name}.calls"]
                    for name in _CALL_METRICS})
    metrics.update({name: counts[name] for name in _COUNTS})
    attempted = counts["frames.frames_attempted"]
    metrics["frames.valid_ratio"] = \
        counts["frames.frames_valid"] / attempted if attempted else 0.0
    pd_s = inclusive.get("smsdyn.simulate_pd", 0.0)
    metrics["smsdyn.pd_steps_per_s"] = \
        counts["smsdyn.pd_steps"] / pd_s if pd_s else 0.0
    metrics["smsdyn.momentum_drift_rel"] = counts["smsdyn.momentum_drift_rel"]
    return metrics
