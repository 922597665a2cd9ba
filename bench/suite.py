"""Run bench/run.py over several workloads and seeds, one process at a time.

    python3 bench/suite.py table  [--seed 1]            # every end-to-end metric, all workloads
    python3 bench/suite.py layers [--seed 1]            # per-layer table + layer-load confirmations
    python3 bench/suite.py spread [--runs 10] [--workloads tomo ...]

``spread`` runs each workload with --runs seeds and reports, for every
end-to-end metric, the distance between the first and third quartile as a
share of the median (statistics.quantiles, n=4), against a third of the
metric's bound in BENCHMARK.json. ``--save FILE`` merges the figures into
a JSON baseline. Exit code 1 when a run fails or a check does not hold.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py process; returns its result line plus the full record."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_file = BENCH_DIR / "_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record_file.read_text(encoding="ascii"))
    result["stdout"] = proc.stdout
    return result


def _ok(result: dict) -> bool:
    return result["correct"] and result["failed"] == 0


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) with the quartiles statistics.quantiles gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def save(path: str, key: str, data: dict, result: dict) -> None:
    target = Path(path)
    merged = json.loads(target.read_text(encoding="ascii")) if target.exists() else {}
    merged[key] = data
    merged["provenance"] = {k: v for k, v in result["record"]["provenance"].items()
                            if k not in ("workload", "why", "seed")}
    target.write_text(json.dumps(merged, indent=1) + "\n", encoding="ascii")


def cmd_table(args) -> int:
    failed = False
    for workload in args.workloads:
        result = run_one(workload, args.seed, args.seconds, 0)
        record = result["record"]
        failed |= not _ok(result)
        print(f"== {workload} (seed {args.seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"error_rate={record['error_rate']:.6g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<20} {metric['value']:>16.6g} {metric['unit']}")
        for name, value in record["extra"].items():
            print(f"  {name:<20} {value:>16.6g}  (workload figure)")
    return 1 if failed else 0


# Each workload must load the layer it was chosen for.
def confirm_layers(per: dict) -> list[tuple[str, bool]]:
    def share(workload: str, name: str) -> float:
        return per[workload][name] / per[workload]["trace.wall_s"]

    shots = per["sweep-shots"]
    return [
        ("sweep-shots: measurement + streams self time > 1/2 of the pass",
         (shots["measurement.self_s"] + shots["streams.self_s"])
         > 0.5 * shots["trace.wall_s"]),
        ("estimation.estimate share on sweep-reps >= 10x its share on sweep-shots",
         share("sweep-reps", "estimation.estimate.self_s")
         >= 10.0 * share("sweep-shots", "estimation.estimate.self_s")),
        ("estimation.estimate.calls == 0 on tomo",
         per["tomo"]["estimation.estimate.calls"] == 0),
        ("measurement.mix_counts.calls nonzero only on sweep-mix",
         all((per[w]["measurement.mix_counts.calls"] > 0) == (w == "sweep-mix")
             for w in per)),
    ]


def cmd_layers(args) -> int:
    per, failed = {}, False
    for workload in WORKLOADS:
        result = run_one(workload, args.seed, args.seconds, 1)
        failed |= not _ok(result)
        per[workload] = {n: m["value"] for n, m in result["metrics"].items()}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    print(f"{'metric':<46}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for name, unit in units.items():
        print(f"{name:<46}" + "".join(f"{per[w][name]:>14.6g}" for w in WORKLOADS)
              + f"  {unit}")
    print("self-time share of the traced pass:")
    for layer in ("streams", "measurement", "estimation", "states", "matcore",
                  "tomography", "harness", "cli"):
        print(f"  {layer:<44}" + "".join(
            f"{per[w][layer + '.self_s'] / per[w]['trace.wall_s']:>14.1%}"
            for w in WORKLOADS))
    checks = confirm_layers(per)
    for what, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if args.save:
        save(args.save, "per_layer", {"seed": args.seed, "seconds": args.seconds,
                                      "metrics": per}, result)
    return 1 if failed or not all(ok for _, ok in checks) else 0


def cmd_spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report, failed, steady = {}, False, True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result = run_one(workload, seed, args.seconds, 0)
            failed |= not _ok(result)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        report[workload] = {}
        for name, vals in values.items():
            med, q1, q3 = spread(vals)
            rel = (q3 - q1) / med
            ok = name == "setup_s" or rel < bounds[name] / 3.0
            steady &= ok
            report[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": rel, "values": vals}
            print(f"  {workload:<12} {name:<16} median {med:<12.6g} "
                  f"IQR/median {rel:.4f}  bound/3 {bounds[name] / 3.0:.4f}"
                  f"{'' if ok else '  <-- too wide'}", flush=True)
    if args.save:
        save(args.save, "end_to_end", {"seeds": seeds, "seconds": args.seconds,
                                       "workloads": report}, result)
    return 1 if failed or not steady else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func in (("table", cmd_table), ("layers", cmd_layers),
                       ("spread", cmd_spread)):
        sub = subs.add_parser(name)
        sub.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
        if name != "layers":  # the layer confirmations compare all workloads
            sub.add_argument("--workloads", nargs="+", default=WORKLOADS,
                             choices=WORKLOADS)
        sub.add_argument("--save", default=None, help="merge results into this JSON")
        sub.set_defaults(func=func)
        if name == "spread":
            sub.add_argument("--runs", type=int, default=10)
            sub.add_argument("--first-seed", type=int, default=1)
        else:
            sub.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
