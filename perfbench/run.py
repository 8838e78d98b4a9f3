"""simrec benchmark: three closed-loop workloads, end-to-end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-grpo --seed 1 --seconds 25 --trace 0

Inputs are generated from ``--seed`` through simrec's public API. Each
workload runs closed-loop rounds (every call waits for the previous one; at
most two threads) until its rounds have taken ``--seconds``, checks its outputs against
their references, and prints, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run's provenance.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
rounds untraced for half of ``--seconds`` and then traced for the other half,
and reports the per-layer metrics of the traced rounds, the workload-named rates
of the untraced ones, and the traced-minus-untraced tracing overhead. Spans
are written to ``.bench_work/<workload>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from gates import GateError, check_at_most
from metrics import END_TO_END, LAYERS, PER_LAYER
from rounds import work_per_s
from spans import NullTracer, SpanView, Tracer, descendants

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "train-grpo": ("train_grpo", "TrainGrpo"),
    "eval-loo": ("eval_loo", "EvalLoo"),
    "endpoint-record-replay": ("endpoint", "EndpointRecordReplay"),
}
SAMPLES_FIRST = 2  # between-round samples taken before the first round
SAMPLES_APART = 6  # later samples follow a round, at least a sixth of the measured time apart
UNCOVERED_CEILING = 0.05  # largest share of a traced round that no simrec span may cover


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_seconds(module_name: str) -> float:
    """Time a fresh interpreter takes to import the workload's module (simrec and numpy included).

    The child times only its own import, so interpreter start-up is left out.
    """
    code = (
        "import importlib, sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
        "importlib.import_module(sys.argv[3]); print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT / "src"), module_name],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class BetweenRounds:
    """Timings taken before the first round and between rounds, spread over the run.

    Each sample times one set-up and one import in a fresh interpreter. The
    shared host's speed drifts over seconds to minutes; the median of samples
    spread over the whole run, as the rounds are, repeats where a few
    back-to-back samples land in one slow spell or one fast burst.
    """

    def __init__(self, wl, import_probe: Callable[[], float]) -> None:
        self.wl = wl
        self.import_probe = import_probe
        self.setups: list[float] = []
        self.imports: list[float] = []

    def sample(self) -> None:
        self.setups.append(timed_setup(self.wl, NullTracer()))
        self.imports.append(self.import_probe())

    @property
    def setup_s(self) -> float:
        """Median import plus median set-up."""
        return statistics.median(self.imports) + statistics.median(self.setups)


def timed_setup(wl, tr) -> float:
    start = time.perf_counter()
    wl.setup(tr)
    return time.perf_counter() - start


def measure(wl, tr, seconds: float, between: Callable[[], None]) -> list:
    """Closed-loop rounds until ``seconds`` of rounds have run (at least one).

    Each round starts from a collected heap, as a fresh invocation would;
    ``between`` runs after a round once ``seconds / SAMPLES_APART`` of rounds
    have passed since it last ran (and after the first), and is not counted
    in ``seconds``.
    """
    rounds = []
    spent = 0.0
    due = 0.0
    while not rounds or spent < seconds:
        gc.collect()
        start = time.perf_counter()
        with tr.span("bench.round"):
            rounds.append(wl.round(tr))
        spent += time.perf_counter() - start
        if spent >= due:
            between()
            due = spent + seconds / SAMPLES_APART
    return rounds


def layer_metrics(wl, tracer: Tracer, traced: list) -> dict[str, float]:
    """Median over traced rounds of each per-layer figure (the lower middle round for an even count).

    Self times split each round's wall time among layers; ``bench`` holds what
    no simrec span covers, and a round whose uncovered share exceeds
    ``UNCOVERED_CEILING`` fails the run, so the layers' self times must account
    for the round.
    """
    roots = [s for s in tracer.spans if s.name == "bench.round"]
    per_round = []
    for root, rnd in zip(sorted(roots, key=lambda s: s.start), traced):
        view = SpanView(descendants(tracer.spans, root))
        figures = {f"self_s.{layer}": 0.0 for layer in LAYERS}
        figures.update({f"self_s.{k}": v for k, v in view.self_by_layer().items()})
        figures["trace.round_s"] = root.duration
        figures["trace.uncovered_share"] = figures["self_s.bench"] / root.duration
        check_at_most("share of a traced round no simrec span covers", figures["trace.uncovered_share"],
                      UNCOVERED_CEILING)
        figures.update(wl.layer_metrics(view, rnd))
        per_round.append(figures)
    return {key: statistics.median_low(f[key] for f in per_round) for key in per_round[0]}


@dataclass
class Outcome:
    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failure: str | None = None  # the first gate that failed


def execute(wl, seconds: float, trace: bool, import_probe: Callable[[], float], run_id: str) -> Outcome:
    """Set up, measure and check one workload; a failed gate ends the run."""
    outcome = Outcome()
    try:
        measure_and_check(wl, seconds, trace, import_probe, run_id, outcome)
    except GateError as exc:
        outcome.failure = str(exc)
    return outcome


def measure_and_check(wl, seconds: float, trace: bool, import_probe: Callable[[], float], run_id: str,
                      outcome: Outcome) -> None:
    values = outcome.values
    clock = BetweenRounds(wl, import_probe)
    for _ in range(SAMPLES_FIRST):
        clock.sample()
    tracer = Tracer(run_id)
    if trace:
        values["trace_overhead.setup_s"] = timed_setup(wl, tracer) - statistics.median(clock.setups)
    phase = seconds / 2 if trace else seconds
    rounds = measure(wl, NullTracer(), phase, clock.sample)
    values["peak_rss_mb"] = peak_rss_mb()
    values["work_per_s"] = work_per_s(rounds)
    if trace:
        traced = measure(wl, tracer, phase, clock.sample)
        values.update(layer_metrics(wl, tracer, traced))
        values.update(wl.summary(rounds))
        values["trace_overhead.peak_rss_mb"] = peak_rss_mb() - values["peak_rss_mb"]
        values["trace_overhead.work_per_s"] = work_per_s(traced) - values["work_per_s"]
        values["trace.untraced_round_s"] = statistics.median(r.wall for r in rounds)
        generate = [s.duration for s in tracer.spans if s.name == "env.generate_synthetic_world"]
        values["env.generate_world_s"] = statistics.median(generate)
        tracer.write(wl.work / "spans.jsonl")
        rounds += traced
    outcome.attempted = sum(r.attempted for r in rounds)
    outcome.failed = sum(r.failed for r in rounds)
    values["fail_frac"] = outcome.failed / outcome.attempted
    values["setup_s"] = clock.setup_s
    wl.check()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "simrec" / "__init__.py").is_file():
        print(f"error: no simrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    module_name, class_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    import numpy  # already loaded by the workload; imported here for its version

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_id = uuid.uuid4().hex
    wl = getattr(module, class_name)(work, args.seed)
    outcome = execute(wl, args.seconds, bool(args.trace), lambda: import_seconds(module_name), run_id)
    failure = outcome.failure
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failure is None,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.values.get(name, 0.0), "unit": unit} for name, unit in wanted.items()},
    }
    provenance = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": wl.sizes(),
        "input_bytes": {name: path.stat().st_size for name, path in wl.input_files().items() if path.exists()},
        "gate_failure": failure,
    }
    (work / "result.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=2) + "\n", encoding="utf-8"
    )
    if failure is not None:
        print(f"gate failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if failure is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
