"""Steadiness check: run one workload on several seeds and report each spread.

    python3 perfbench/steady.py --workload eval-loo --seeds 10 --seconds 15
    python3 perfbench/steady.py --workload train-grpo --counts

For each end-to-end metric the spread is the distance between the first and
third quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median; a metric is steady when its spread is below a third
of its bound in BENCHMARK.json.
``--counts`` instead runs the traced benchmark twice on one seed and fails if
any count-valued per-layer metric differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs incorrect")
    return result


def spreads(workload: str, seeds: list[int], seconds: float) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        result = run_once(workload, seed, seconds, 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    summary = {}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        steady = spread < metric["bound"] / 3
        summary[metric["name"]] = {"median": med, "spread": spread, "bound": metric["bound"], "steady": steady, "values": vals}
        print(f"{metric['name']:>14}: median {med:.4g} spread {spread:.3f} bound {metric['bound']} {'ok' if steady else 'UNSTEADY'}")
    return summary


def counts_repeat(workload: str, seed: int, seconds: float) -> dict:
    first, second = (run_once(workload, seed, seconds, 1)["metrics"] for _ in range(2))
    counts = {k for k, v in first.items() if v["unit"].startswith(("count", "bytes"))}
    differ = sorted(k for k in counts if first[k]["value"] != second[k]["value"])
    for k in sorted(counts):
        print(f"{k:>48}: {first[k]['value']} {second[k]['value']}")
    if differ:
        raise SystemExit(f"counts differ between runs of seed {seed}: {differ}")
    return {k: first[k]["value"] for k in sorted(counts)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds to run")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    out = ROOT / ".bench_work" / "steady"
    out.mkdir(parents=True, exist_ok=True)
    if args.counts:
        summary = counts_repeat(args.workload, 1, seconds)
        name = f"{args.workload}-counts.json"
    else:
        summary = spreads(args.workload, list(range(1, args.seeds + 1)), seconds)
        name = f"{args.workload}.json"
    (out / name).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
