"""The four benchmark workloads: inputs from a seed, one pass, output checks.

A pass is the unit a run repeats in its closed loop (one process, one
thread, one operation at a time):

* the sweeps run ``qmet.cli.main(["sweep", ...])`` in-process, so argument
  parsing and CSV/SVG emission are on the timed path; one sweep is one
  operation;
* ``tomo`` runs simulate_tomography -> reconstruct_mle -> tomo_report on
  three reference states x 40 streams; one reconstruction is one operation.

The output checks use their own closed forms, not qmet's, and hold for any
correct sampler: they test the statistics of the output, not its bytes.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

Q = 0.5
GRID = tuple(round(0.1 * k, 10) for k in range(11))  # qmet's default sweep grid
KINDS = ("negativity", "log_negativity", "qgd")
VARIANTS = ("nonoptimal", "optimal")
CSV_ROWS = len(GRID) * len(KINDS) * len(VARIANTS)
SETTINGS = 9

# Means may sit Z standard errors from theory before a row fails; with
# 66 rows a sweep then fails by chance with probability ~1e-7.
MEAN_Z = 6.0
# |p_fitted - p_true| * sqrt(n_shots) stayed below 2.5 on the seed commit
# (11 points x 100 seeds at n_shots = 100, x 20 seeds at 1e5 and 2e5).
P_FIT_TOL_SQRT_N = 6.0
# Lowest fidelity seen on the seed commit over 10 seeds x 120 reconstructions
# was 0.99984 (dephased mixture); the bound allows 6x that infidelity.
MIN_FIDELITY = 0.999
TOMO_SHOTS = 10_000
TOMO_STREAMS = 40
TOMO_CASES = 3 * TOMO_STREAMS


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)


# --- sweeps -----------------------------------------------------------------

def _negativity(p: float) -> float:
    return 2.0 * p * math.sqrt(Q * (1.0 - Q))


def _theory(kind: str, n: float) -> float:
    if kind == "negativity":
        return n
    if kind == "log_negativity":
        return math.log2(1.0 + n)
    return 0.5 * n * n


def _single_shot_var(variant: str, n: float) -> float:
    """Variance of one shot's contribution to the N-scale estimator."""
    return 1.0 - n * n if variant == "optimal" else (1.0 - n) * (3.0 + n)


def check_sweep_csv(text: str, n_shots: int, reps: int, seed: int) -> list[str]:
    """Problems found in a sweep CSV; empty when it is correct."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != CSV_ROWS:
        return [f"sweep.csv has {len(rows)} rows, expected {CSV_ROWS}"]
    problems = []
    expected = [(p, k, v) for p in GRID for k in KINDS for v in VARIANTS]
    for row, (p, kind, variant) in zip(rows, expected):
        where = f"p={p} {kind}/{variant}"
        try:
            p_true, p_fit = float(row["p_true"]), float(row["p_fitted"])
            mean, sd = float(row["mean"]), float(row["stddev"])
            theory = float(row["theory_value"])
            unc = float(row["unc_qcrb" if variant == "optimal" else "unc_nonopt"])
            ints = (int(row["n_shots"]), int(row["reps"]), int(row["seed"]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{where}: unreadable row ({exc})")
            continue
        if (p_true, row["kind"], row["variant"]) != (p, kind, variant):
            problems.append(f"{where}: row out of order: {row}")
            continue
        if ints != (n_shots, reps, seed):
            problems.append(f"{where}: n_shots/reps/seed columns {ints}")
        neg = _negativity(p)
        if abs(theory - _theory(kind, neg)) > 1e-9:
            problems.append(f"{where}: theory_value {theory} != {_theory(kind, neg)}")
        if not all(map(math.isfinite, (mean, sd, unc))) or sd < 0.0 or unc < 0.0:
            problems.append(f"{where}: non-finite or negative mean/stddev/unc")
            continue
        # Tolerance: Z standard errors of the mean (from the row's own stddev,
        # floored by the single-estimate theory curve), plus the second-order
        # bias of the nonlinear estimators (log, square) and, next to a range
        # edge, the bias clamping adds. var_v is the N-scale variance of one
        # estimate; PostProcessMix resampling can double it.
        var_v = _single_shot_var(variant, neg) / n_shots
        sd_v = math.sqrt(var_v)
        se = max(sd, unc / math.sqrt(n_shots)) / math.sqrt(reps)
        tol = MEAN_Z * se + 2.0 * var_v + 1e-9
        if neg < 6.0 * sd_v or 1.0 - neg < 6.0 * sd_v:
            tol += 2.0 * sd_v
        if abs(mean - theory) > tol:
            problems.append(f"{where}: mean {mean} is {abs(mean - theory):.3g} "
                            f"from theory {theory} (tolerance {tol:.3g})")
        if abs(p_fit - p) > P_FIT_TOL_SQRT_N / math.sqrt(n_shots):
            problems.append(f"{where}: p_fitted {p_fit} does not track p_true {p}")
    return problems


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    why: str
    reps: int
    n_shots: int
    mixing_mode: str

    def shots_per_pass(self) -> int:
        draws = 2 if self.mixing_mode == "PostProcessMix" else 1
        return (len(GRID) * self.reps * self.n_shots * draws
                + len(GRID) * SETTINGS * self.n_shots)

    def _argv(self, seed: int, out_dir: str, *options: str) -> list[str]:
        return ["sweep", "--q", str(Q), "--mixing-mode", self.mixing_mode,
                "--seed", str(seed), "--out-dir", out_dir, *options]

    def build(self, modules: dict, seed: int, scratch: str) -> dict:
        return {
            "seed": seed,
            "argv": self._argv(seed, os.path.join(scratch, "sweep"),
                               "--reps", str(self.reps),
                               "--n-shots", str(self.n_shots)),
            "warm_argv": self._argv(seed, os.path.join(scratch, "warm"),
                                    "--p-grid", "0,0.5,1", "--reps", "2",
                                    "--n-shots", "100"),
            "csv": os.path.join(scratch, "sweep", "sweep.csv"),
            "reference_csv": None,
        }

    @staticmethod
    def _call(cli, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self, modules: dict, inputs: dict) -> None:
        if self._call(modules["cli"], inputs["warm_argv"]) != 0:
            raise RuntimeError("warm-up sweep failed")

    def run_pass(self, modules: dict, inputs: dict, tracer=None) -> PassResult:
        result = PassResult(attempted=1)
        cli = modules["cli"]
        if tracer is not None:
            tracer.op = 0
        with contextlib.suppress(FileNotFoundError):  # no stale CSV may pass
            os.remove(inputs["csv"])
        start = perf_counter()
        try:
            code = self._call(cli, inputs["argv"])
        except Exception:  # a failed operation is counted, the run goes on
            result.seconds = perf_counter() - start
            result.failures.append("sweep raised:\n" + traceback.format_exc())
            return result
        result.seconds = perf_counter() - start
        result.latencies.append(result.seconds)
        if code != 0:
            result.failures.append(f"qmet sweep exited with {code}")
            return result
        try:
            with open(inputs["csv"], "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            result.failures.append("qmet sweep wrote no sweep.csv")
            return result
        problems = check_sweep_csv(data.decode("ascii"), self.n_shots, self.reps,
                                   inputs["seed"])
        if inputs["reference_csv"] is None:
            inputs["reference_csv"] = data
        elif data != inputs["reference_csv"]:
            problems.append("sweep.csv differs from the first pass with the same seed")
        if problems:
            result.failures.append("; ".join(problems[:5]))
        return result

    def extra_metrics(self, wall_s: float, latencies: list[float]) -> dict:
        estimates = len(GRID) * self.reps * len(KINDS) * len(VARIANTS)
        return {"estimates_per_s": (estimates / wall_s, "1/s")}


# --- tomography -------------------------------------------------------------

@dataclass(frozen=True)
class TomoWorkload:
    name: str
    why: str

    def shots_per_pass(self) -> int:
        return TOMO_CASES * SETTINGS * TOMO_SHOTS

    def build(self, modules: dict, seed: int, scratch: str) -> dict:
        states = modules["states"]
        refs = (("singlet", states.singlet()),
                ("dephased_mixture", states.dephased_mixture()),
                ("family_0.6_0.5", states.family_state(0.6, 0.5)))
        # each reconstruction reads its own keyed stream (seed, index)
        cases = [(label, rho, seed, TOMO_STREAMS * i + k)
                 for i, (label, rho) in enumerate(refs) for k in range(TOMO_STREAMS)]
        warm = [(label, rho, seed, 10**6 + i) for i, (label, rho) in enumerate(refs)]
        return {"seed": seed, "cases": cases, "warm": warm}

    @staticmethod
    def _reconstruct(modules: dict, rho, seed: int, index: int):
        tomography = modules["tomography"]
        stream = modules["streams"].RandomStream(seed, index)
        dataset = tomography.simulate_tomography(rho, TOMO_SHOTS, stream)
        recon = tomography.reconstruct_mle(dataset)
        return recon, tomography.tomo_report(rho, recon)

    def warm_up(self, modules: dict, inputs: dict) -> None:
        for _, rho, seed, index in inputs["warm"]:
            self._reconstruct(modules, rho, seed, index)

    def run_pass(self, modules: dict, inputs: dict, tracer=None) -> PassResult:
        result = PassResult()
        for op, (label, rho, seed, index) in enumerate(inputs["cases"]):
            if tracer is not None:
                tracer.op = op
            result.attempted += 1
            start = perf_counter()
            try:
                recon, report = self._reconstruct(modules, rho, seed, index)
            except Exception:  # a failed operation is counted, the run goes on
                result.seconds += perf_counter() - start
                result.failures.append(f"{label}/{index} raised:\n" + traceback.format_exc())
                continue
            elapsed = perf_counter() - start
            result.seconds += elapsed
            result.latencies.append(elapsed)
            if not recon.converged:
                result.failures.append(f"{label}/{index}: MLE did not converge")
            elif not report.fidelity >= MIN_FIDELITY:
                result.failures.append(f"{label}/{index}: fidelity {report.fidelity} "
                                 f"below {MIN_FIDELITY}")
        return result

    def extra_metrics(self, wall_s: float, latencies: list[float]) -> dict:
        return {
            "recons_per_s": (TOMO_CASES / wall_s, "1/s"),
            "recon_s.p50": (statistics.median(latencies), "s"),
            "recon_s.p90": (statistics.quantiles(latencies, n=10,
                                                 method="inclusive")[8], "s"),
            "recon_s.samples": (len(latencies), "count"),
        }


WORKLOADS = {w.name: w for w in (
    SweepWorkload(
        "sweep-shots",
        "per-shot sampling dominates (about 83%); shows sampling that is O(1) "
        "in shots and peak memory that scales with n_shots",
        reps=10, n_shots=200_000, mixing_mode="DirectState"),
    SweepWorkload(
        "sweep-reps",
        "per-draw overhead dominates (projector rebuilds, 33,000 estimate calls, "
        "eigen validation, rep loop); sampling is about 1%",
        reps=500, n_shots=100, mixing_mode="DirectState"),
    SweepWorkload(
        "sweep-mix",
        "PostProcessMix: two sample_counts and one mix_counts per draw; shows a "
        "sampling change that costs mix_counts",
        reps=10, n_shots=100_000, mixing_mode="PostProcessMix"),
    TomoWorkload(
        "tomo",
        "120 reconstructions of three reference states at 1e4 shots per setting; "
        "time in eigensolves, MLE and projector rebuilds, no estimation"),
)}
