"""Outside-in span tracer for the qmet layers.

The tracer rebinds public functions on the qmet modules with timing
wrappers, so every call that goes through a module attribute records a span
(name, start, end, parent, operation). The package calls its own functions
through module globals, so internal calls are traced as well. RandomStream
is traced through its class, because several modules import the class name
directly.

Spans are kept in memory and aggregated after each pass: a span's self time
is its duration minus the durations of its direct children. Counters taken
from return values (shots, uniforms, MLE iterations, ...) are exact and must
repeat bit-for-bit for a fixed seed.
"""
from __future__ import annotations

import functools
import gzip
import os
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). The span name is the metric prefix.
TRACED_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "emit_all", "harness.emit_all"),
    ("measurement", "sample_counts", "measurement.sample_counts"),
    ("measurement", "mix_counts", "measurement.mix_counts"),
    ("measurement", "setting_projectors", "measurement.setting_projectors"),
    ("measurement", "outcome_probabilities", "measurement.outcome_probabilities"),
    ("estimation", "estimate", "estimation.estimate"),
    ("matcore", "hermitian_eig", "matcore.hermitian_eig"),
    ("matcore", "require_hermitian", "matcore.require_hermitian"),
    ("matcore", "psd_sqrt", "matcore.psd_sqrt"),
    ("matcore", "trace_norm", "matcore.trace_norm"),
    ("states", "validate_density_matrix", "states.validate_density_matrix"),
    ("states", "family_state", "states.family_state"),
    ("states", "fit_family_params", "states.fit_family_params"),
    ("states", "fidelity", "states.fidelity"),
    ("states", "measures", "states.measures"),
    ("tomography", "simulate_tomography", "tomography.simulate_tomography"),
    ("tomography", "reconstruct_mle", "tomography.reconstruct_mle"),
    ("tomography", "reconstruct_linear", "tomography.reconstruct_linear"),
    ("tomography", "project_physical", "tomography.project_physical"),
    ("tomography", "tomo_report", "tomography.tomo_report"),
)
# (class attribute of streams.RandomStream, span name)
TRACED_METHODS = (
    ("__init__", "streams.RandomStream"),
    ("random", "streams.random"),
)

COUNTER_NAMES = (
    "streams.random.uniforms",
    "measurement.sample_counts.shots",
    "measurement.mix_counts.shots",
    "estimation.estimate.clamped",
    "states.fit_family_params.out_of_family",
    "tomography.reconstruct_mle.iterations",
    "tomography.reconstruct_mle.not_converged",
)

LAYERS = ("streams", "measurement", "estimation", "states", "matcore",
          "tomography", "harness", "cli")


def _count_result(name: str, counters: Counter, result) -> None:
    """Exact work counters taken at the layer boundary from return values."""
    if name == "streams.random":
        counters["streams.random.uniforms"] += int(result.size)
    elif name in ("measurement.sample_counts", "measurement.mix_counts"):
        counters[name + ".shots"] += result.n
    elif name == "estimation.estimate":
        counters["estimation.estimate.clamped"] += bool(result.clamped)
    elif name == "states.fit_family_params":
        counters["states.fit_family_params.out_of_family"] += bool(result.out_of_family)
    elif name == "tomography.reconstruct_mle":
        counters["tomography.reconstruct_mle.iterations"] += int(result.iterations)
        counters["tomography.reconstruct_mle.not_converged"] += not result.converged


class Tracer:
    """Installs span wrappers on the qmet modules and aggregates passes."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.emitted_paths: list[str] = []
        self.op = -1

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        keep_paths = name == "harness.emit_all"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if keep_paths:
                self.emitted_paths.extend(result)
            else:
                _count_result(name, counters, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TRACED_FUNCTIONS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        cls = self._modules["streams"].RandomStream
        for attr, name in TRACED_METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- passes ---------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.emitted_paths.clear()
        self.op = -1

    def pass_summary(self) -> tuple[dict, dict]:
        """(exact counts, self seconds by span name) of the pass since reset()."""
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            if parent >= 0:
                child[self.spans[parent][0]] += dur
        counts = {f"{name}.calls": calls[name] for name in span_names()}
        counts.update({key: self.counters[key] for key in COUNTER_NAMES})
        counts["harness.emit_all.bytes"] = sum(
            os.path.getsize(path) for path in self.emitted_paths)
        counts["trace.spans"] = len(self.spans)
        times = {name: (total[name] - child[name]) for name in span_names()}
        return counts, times

    def write_spans(self, path: str) -> None:
        """Spans of the last pass as gzipped CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def span_names() -> list[str]:
    return ([name for _, _, name in TRACED_FUNCTIONS]
            + [name for _, name in TRACED_METHODS])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per_layer metric names and units, in report order
PER_LAYER_UNITS: dict[str, str] = {}
for _name in span_names():
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
for _name, _unit in (
        ("streams.random.uniforms", "count"),
        ("streams.random.bytes_computed", "bytes"),
        ("measurement.sample_counts.shots", "count"),
        ("measurement.sample_counts.ns_per_shot", "ns"),
        ("measurement.mix_counts.shots", "count"),
        ("estimation.estimate.us_per_call", "us"),
        ("estimation.estimate.clamped", "count"),
        ("estimation.clamped_ratio", "ratio"),
        ("matcore.hermitian_eig.us_per_call", "us"),
        ("states.fit_family_params.us_per_call", "us"),
        ("states.fit_family_params.out_of_family", "count"),
        ("tomography.reconstruct_mle.iterations", "count"),
        ("tomography.reconstruct_mle.ms_per_iteration", "ms"),
        ("tomography.reconstruct_mle.not_converged", "count"),
        ("harness.emit_all.bytes", "bytes"),
        *((f"{layer}.self_s", "s") for layer in LAYERS),
        ("trace.spans", "count"), ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")):
    PER_LAYER_UNITS[_name] = _unit


def per_layer_metrics(counts: dict, times: dict, traced_wall: float,
                      untraced_wall: float) -> dict[str, float]:
    """Every per_layer metric from one pass's counts and median self times."""
    m: dict[str, float] = dict(counts)
    for name, self_s in times.items():
        m[f"{name}.self_s"] = self_s
    m["streams.random.bytes_computed"] = 8 * counts["streams.random.uniforms"]
    m["measurement.sample_counts.ns_per_shot"] = 1e9 * _ratio(
        times["measurement.sample_counts"], counts["measurement.sample_counts.shots"])
    m["estimation.estimate.us_per_call"] = 1e6 * _ratio(
        times["estimation.estimate"], counts["estimation.estimate.calls"])
    m["estimation.clamped_ratio"] = _ratio(
        counts["estimation.estimate.clamped"], counts["estimation.estimate.calls"])
    m["matcore.hermitian_eig.us_per_call"] = 1e6 * _ratio(
        times["matcore.hermitian_eig"], counts["matcore.hermitian_eig.calls"])
    m["states.fit_family_params.us_per_call"] = 1e6 * _ratio(
        times["states.fit_family_params"], counts["states.fit_family_params.calls"])
    m["tomography.reconstruct_mle.ms_per_iteration"] = 1e3 * _ratio(
        times["tomography.reconstruct_mle"],
        counts["tomography.reconstruct_mle.iterations"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s for name, self_s in times.items()
                                   if name.split(".")[0] == layer)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: m[name] for name in PER_LAYER_UNITS}
