"""What one closed-loop round of a workload hands back to the harness."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from spans import SpanView


@dataclass
class Round:
    wall: float  # seconds for the whole round
    work: int  # units of the workload's work completed in the round
    attempted: int  # operations attempted
    failed: int  # operations that returned an error
    stages: list[tuple[str, float]]  # (stage, seconds) in order; names are unique and the stages tile the round
    facts: dict[str, float] = field(default_factory=dict)  # per-layer values spans cannot show
    out: dict = field(default_factory=dict)


def median_stages(rounds: list[Round]) -> dict[str, float]:
    """Each stage's median time over the rounds of a run.

    A stage is named by its position in the round, so every position takes
    its own median and a cost that falls on only some positions (a periodic
    flush, a first-call warm-up, a heavier shard) stays in the sum. The
    shared host runs in short fast bursts (up to 1.6x) between longer spells
    at its usual speed; a median keeps to the usual speed, where a minimum
    depends on how many positions happened to catch a burst.
    """
    times: dict[str, list[float]] = {}
    for r in rounds:
        names = [name for name, _ in r.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names repeat within a round: {names}")
        for name, seconds in r.stages:
            times.setdefault(name, []).append(seconds)
    return {name: statistics.median(seconds) for name, seconds in times.items()}


def work_per_s(rounds: list[Round]) -> float:
    """A round's work over the round's time with every stage at its median."""
    median = median_stages(rounds)
    return rounds[0].work / sum(median[name] for name, _ in rounds[0].stages)


def count_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for line in handle if line.strip())


def core_metrics(view: SpanView, rows: int) -> dict[str, float]:
    load_s = view.total("core.load_interactions")
    return {
        "core.load_interactions_s": load_s,
        "core.rows_per_s": rows / load_s if load_s else 0.0,
    }
