"""qmet benchmark runner: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload sweep-shots --seed 1 --seconds 12 --trace 0

Run it from the repository root; it imports qmet from ``src/``. With
``--trace 0`` it times whole passes with tracing off and reports the
end-to-end metrics; with ``--trace 1`` it wraps the qmet layers in spans and
reports the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full record with
provenance goes to bench/_out/.

Exit codes: 0 when a result was printed (check "correct"), 2 when the qmet
sources or arguments are missing.
"""
from __future__ import annotations

import os

# Every matrix is 4x4: pin BLAS to one thread before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QMET_MODULES = ("streams", "matcore", "states", "measurement", "estimation",
                "tomography", "harness", "cli")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _fresh_import() -> dict:
    """Import qmet from scratch (NumPy stays loaded) and return its modules."""
    for name in [n for n in sys.modules if n == "qmet" or n.startswith("qmet.")]:
        del sys.modules[name]
    importlib.import_module("qmet")
    return {name: importlib.import_module(f"qmet.{name}") for name in QMET_MODULES}


def measure_setup(workload, seed: int, scratch: str) -> tuple[float, dict, dict]:
    """Median time to import qmet and build the inputs, over SETUP_REPEATS."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        modules = _fresh_import()
        inputs = workload.build(modules, seed, scratch)
        times.append(perf_counter() - start)
    return statistics.median(times), modules, inputs


def provenance(workload, seed: int) -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Run:
    """Counts operations and failures across every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, result) -> None:
        self.attempted += result.attempted
        for failure in result.failures:
            self.fail(failure)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


def run_timed(workload, modules, inputs, seconds: float, run: Run) -> tuple[dict, dict]:
    """Closed loop of untraced passes for `seconds`, then a tracemalloc pass."""
    times, latencies = [], []
    start = perf_counter()
    while len(times) < MIN_PASSES or perf_counter() - start < seconds:
        result = workload.run_pass(modules, inputs)
        run.record(result)
        times.append(result.seconds)
        latencies.extend(result.latencies)

    # peak memory from its own pass, so allocation tracing never skews wall_s
    tracemalloc.start()
    try:
        run.record(workload.run_pass(modules, inputs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    wall = statistics.median(times)
    metrics = {
        "wall_s": (wall, "s"),
        "shots_per_s": (workload.shots_per_pass() / wall, "1/s"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
    }
    extra = workload.extra_metrics(wall, latencies)
    extra["passes"] = (len(times), "count")
    extra["wall_s.min"] = (min(times), "s")
    extra["wall_s.max"] = (max(times), "s")
    return metrics, extra


def run_traced(workload, modules, inputs, seconds: float, run: Run) -> tuple[dict, object]:
    """Alternate untraced and traced passes; counts must repeat exactly."""
    tracer = tracing.Tracer(modules)
    untraced, traced, self_times = [], [], []
    reference_counts = None
    start = perf_counter()
    while len(traced) < MIN_TRACED_PASSES or perf_counter() - start < seconds:
        result = workload.run_pass(modules, inputs)
        run.record(result)
        untraced.append(result.seconds)

        tracer.reset()
        tracer.install()
        try:
            result = workload.run_pass(modules, inputs, tracer)
        finally:
            tracer.uninstall()
        run.record(result)
        traced.append(result.seconds)
        counts, times = tracer.pass_summary()
        self_times.append(times)
        if reference_counts is None:
            reference_counts = counts
        else:  # the re-run check is an operation of its own
            run.attempted += 1
            if counts != reference_counts:
                diff = sorted(k for k in counts if counts[k] != reference_counts[k])
                run.fail(f"exact counters changed between traced passes: {diff}")

    median_times = {name: statistics.median(t[name] for t in self_times)
                    for name in self_times[0]}
    return tracing.per_layer_metrics(reference_counts, median_times,
                                     statistics.median(traced),
                                     statistics.median(untraced)), tracer


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmet" / "__init__.py").is_file():
        print(f"qmet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  the dependency is loaded before set-up is timed

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    run = Run()
    try:
        setup_s, modules, inputs = measure_setup(workload, args.seed, scratch)
        qmet_file = Path(sys.modules["qmet"].__file__).resolve()
        if SRC.resolve() not in qmet_file.parents:
            print(f"imported qmet from {qmet_file}, not from {SRC}", file=sys.stderr)
            return 2
        info = provenance(workload, args.seed)
        for key, value in info.items():
            print(f"# {key}: {value}")
        try:
            workload.warm_up(modules, inputs)
        except Exception:  # counted; the passes that follow show the rest
            run.attempted += 1
            run.fail("warm-up raised:\n" + traceback.format_exc())

        label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            layer, tracer = run_traced(workload, modules, inputs, args.seconds, run)
            spans_file = OUT_DIR / f"spans-{label}.csv.gz"
            tracer.write_spans(str(spans_file))
            units = tracing.PER_LAYER_UNITS
            metrics = {name: (value, units[name]) for name, value in layer.items()}
            print_table("per-layer metrics (traced passes; times are medians)", metrics)
            wall = layer["trace.wall_s"]
            print("self-time share of the traced pass, by layer:")
            for name in tracing.LAYERS:
                print(f"  {name:<12} {layer[name + '.self_s'] / wall:7.1%}")
            extra = {"spans_file": str(spans_file.relative_to(ROOT))}
        else:
            metrics, extra_metrics = run_timed(workload, modules, inputs,
                                               args.seconds, run)
            metrics["setup_s"] = (setup_s, "s")
            print_table("end-to-end metrics (tracing off; times are medians)", metrics)
            print_table("workload figures (not gated)", extra_metrics)
            extra = {name: value for name, (value, _) in extra_metrics.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    error_rate = len(run.failures) / run.attempted
    print(f"operations: {run.attempted} attempted, {len(run.failures)} failed, "
          f"error_rate {error_rate:.6g}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, provenance=info, error_rate=error_rate, extra=extra,
                  failures=run.failures[:20])
    with open(OUT_DIR / f"result-{label}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
