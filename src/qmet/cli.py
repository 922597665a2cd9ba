"""Command-line surface: states, probabilities, sampling, estimation, sweeps,
tomography and Fisher-information reports.

Exit codes: 0 success, 2 configuration error (including an input file or
output directory the OS cannot open), 3 numeric or domain error.
All randomness derives from --seed, an integer in [-2**63, 2**63) (for sweep,
also the config file's master_seed), and otherwise SweepConfig's default 42.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import estimation, harness, measurement, states, tomography
from .errors import ConfigError, DomainError
from .streams import RandomStream

def _seed(value: int | None) -> int:
    """--seed, or else the sweep's default master seed."""
    return harness.check_seed(harness.SweepConfig.master_seed if value is None else value)


def _matrix_lines(rho: np.ndarray) -> list[str]:
    out = []
    for row in rho:
        out.append("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row))
    return out


def _print(obj) -> None:
    sys.stdout.write(obj if isinstance(obj, str) else json.dumps(obj, indent=1, allow_nan=False))
    sys.stdout.write("\n")


def cmd_state(args) -> int:
    rho = states.family_state(args.p, args.q)
    values = states.measures(rho)
    fit = states.fit_family_params(rho)
    if args.json:
        _print({
            "p": args.p, "q": args.q,
            "matrix_real": np.round(rho.real, 12).tolist(),
            "matrix_imag": np.round(rho.imag, 12).tolist(),
            "measures": values,
            "fit": fit._asdict(),
        })
        return 0
    lines = [f"family state at p={args.p:g}, q={args.q:g}"]
    lines += _matrix_lines(rho)
    lines.append("measures: " + "  ".join(
        f"{kind}={values[kind]:.9f}" for kind in states.MEASURE_KINDS))
    lines.append(f"fit: p={fit.p:.9f} q={fit.q:.9f} residual={fit.residual:.3e}"
                 f" degenerate={fit.degenerate} out_of_family={fit.out_of_family}")
    _print("\n".join(lines))
    return 0


def cmd_probe(args) -> int:
    rho = states.family_state(args.p, args.q)
    probs = measurement.outcome_probabilities(rho, measurement.DA_DA)
    lines = [f"DA,DA outcome probabilities at p={args.p:g}, q={args.q:g}"]
    for label, value in zip(measurement.OUTCOME_LABELS, probs):
        lines.append(f"  {label}: {value:.9f}")
    _print("\n".join(lines))
    return 0


def _draw_da_da(args) -> tuple[measurement.OutcomeCounts, int]:
    """The DA,DA record of --n shots on rho(--p, --q) at --seed, and the seed."""
    seed = _seed(args.seed)
    rho = states.family_state(args.p, args.q)
    return measurement.sample_counts(rho, measurement.DA_DA, args.n, RandomStream(seed)), seed


def cmd_sample(args) -> int:
    counts, seed = _draw_da_da(args)
    _print(measurement.counts_record(counts, measurement.DA_DA, seed))
    return 0


def cmd_estimate(args) -> int:
    if args.counts is not None:
        # --q stays: it sets the q of the curves
        mixed = [name for name, value in
                 (("--p", args.p), ("--n", args.n), ("--seed", args.seed)) if value is not None]
        if mixed:
            raise ConfigError(f"--counts excludes {', '.join(mixed)}")
        with open(args.counts, "rb") as fh:
            data = fh.read()
        try:
            record = json.loads(data)
        except ValueError as exc:  # malformed JSON or not UTF-8/16/32 text
            raise ConfigError(f"{args.counts} is not a JSON counts record: {exc}") from exc
        counts, setting = measurement.counts_from_record(record)
        if setting != measurement.DA_DA:
            raise DomainError(f"estimate needs DA,DA counts, got {setting}")
    else:
        missing = [name for name, value in
                   (("--p", args.p), ("--n", args.n)) if value is None]
        if missing:
            raise ConfigError(f"estimate needs --counts or {' and '.join(missing)}")
        counts = _draw_da_da(args)[0]
    result = estimation.estimate(args.kind, args.variant, counts, q=args.q)
    _print(result.to_record())
    return 0


def cmd_sweep(args) -> int:
    file_text = None
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            try:
                file_text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from exc
    grid = harness.parse_grid(args.p_grid) if args.p_grid is not None else None
    cfg = harness.build_config(
        file_text,
        q=args.q,
        p_grid=grid,
        n_shots=args.n_shots,
        repetitions=args.reps,
        master_seed=args.seed,
        mixing_mode=args.mixing_mode,
    )
    if args.print_config:
        sys.stdout.write(cfg.to_text())
        return 0
    # an unusable --out-dir fails before the sweep is computed, not after
    os.makedirs(args.out_dir, exist_ok=True)
    rows = harness.run_sweep(cfg)
    written = harness.emit_all(rows, cfg, args.out_dir)
    _print("\n".join(written))
    return 0


def cmd_tomo(args) -> int:
    seed = _seed(args.seed)
    # checked once for both the draw and the report's fidelity
    rho = states.check_state(states.family_state(args.p, args.q))
    dataset = tomography.simulate_tomography(rho, args.n_per_setting,
                                             RandomStream(seed))
    recon = tomography.reconstruct_mle(dataset)
    report = tomography.tomo_report(rho, recon)
    _print({
        "p": args.p, "q": args.q, "n_per_setting": args.n_per_setting,
        "seed": seed,
        "fidelity": report.fidelity,
        "fit": report.fit._asdict(),
        "measures": report.measures,
        "converged": recon.converged,
        "iterations": recon.iterations,
        "log_likelihood": recon.log_likelihood,
    })
    return 0


def cmd_fisher(args) -> int:
    qcrb_closed = estimation.qcrb_curves(args.path, args.theta, args.q)
    curve = estimation.measure_path(args.path, args.q)
    povm = measurement.setting_projectors(measurement.DA_DA)
    report = estimation.qfi_numeric(curve, args.theta, povm=povm)
    numbers = {"qfi": report.qfi, "cfi": report.cfi, "qcrb_numeric": report.qcrb,
               "qcrb_closed": float(qcrb_closed), "cfi_over_qfi": report.cfi / report.qfi}
    # an infinite information prints as null: NaN and Infinity are not JSON
    _print({"path": args.path, "theta": args.theta, "q": args.q,
            **{key: x if np.isfinite(x) else None for key, x in numbers.items()}})
    return 0


def _add_pq(sub) -> None:
    sub.add_argument("--p", type=float, required=True,
                     help="mixing parameter in [0, 1]")
    sub.add_argument("--q", type=float, default=0.5,
                     help="pure-component balance in [0, 1] (default %(default)s)")


@functools.cache  # built on first use; parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmet",
        description="Estimation workbench for two-qubit entanglement and "
                    "discord measures.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("state", help="print a family state with measures and fit")
    _add_pq(sub)
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(func=cmd_state)

    sub = subs.add_parser("probe", help="print DA,DA outcome probabilities")
    _add_pq(sub)
    sub.set_defaults(func=cmd_probe)

    sub = subs.add_parser("sample", help="sample DA,DA counts from a family state")
    _add_pq(sub)
    sub.add_argument("--n", type=int, required=True, help="number of shots")
    sub.add_argument("--seed", type=int, default=None,
                     help="stream seed in [-2**63, 2**63) "
                          f"(default {harness.SweepConfig.master_seed})")
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("estimate", help="run one estimator on counts")
    sub.add_argument("--kind", required=True, choices=sorted(states.MEASURE_KINDS))
    sub.add_argument("--variant", required=True,
                     choices=list(estimation.VARIANTS))
    sub.add_argument("--counts", default=None,
                     help="JSON counts record file (from `qmet sample`)")
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--q", type=float, default=0.5)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.set_defaults(func=cmd_estimate)

    sub = subs.add_parser("sweep", help="run a p sweep and emit CSV + SVG panels")
    sub.add_argument("--config", default=None,
                     help="flat key = value config file")
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--p-grid", default=None,
                     help="comma-separated grid, overrides config")
    sub.add_argument("--n-shots", type=int, default=None)
    sub.add_argument("--reps", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--mixing-mode", default=None,
                     choices=list(harness.MIXING_MODES))
    sub.add_argument("--out-dir", default="sweep_out")
    sub.add_argument("--print-config", action="store_true",
                     help="print the effective configuration and exit")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("tomo", help="simulate tomography and reconstruct")
    _add_pq(sub)
    sub.add_argument("--n-per-setting", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.set_defaults(func=cmd_tomo)

    sub = subs.add_parser("fisher", help="Fisher information along a measure path")
    sub.add_argument("--path", default=states.NEGATIVITY,
                     choices=[states.NEGATIVITY, states.LOG_NEGATIVITY, states.QGD])
    sub.add_argument("--theta", type=float, required=True,
                     help="path parameter in the measure's own units")
    sub.add_argument("--q", type=float, default=0.5)
    sub.set_defaults(func=cmd_fisher)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: an input the OS cannot read or an --out-dir it cannot create
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
