"""train-grpo: the ``train-toy`` path through library calls.

All of the work is in ``simrec.grpo``, ``SyntheticEpisodeSource.sample`` and
``simrec.rewards`` on toy transcripts; none of it is in ``recommender``,
``core`` ingestion or ``llmclient``. Grouped (batched) GRPO steps move this
workload and must leave eval-loo unchanged.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import simrec.grpo as grpo
from simrec.env import EnvConfig, SyntheticEpisodeSource, derive_seed, generate_synthetic_world
from simrec.grpo import GrpoConfig, ToySoftmaxPolicy, evaluate_policy, train

import gates
from metrics import POLICY_METHODS
import reference
from rounds import Round, work_per_s
from spans import SpanView, percentile

# World and policy: the train-toy command's defaults.
N_USERS, N_ITEMS, DIM, HISTORY, POOL, M, TEMPERATURE = 40, 300, 8, 6, 10, 3, 2.5
ITERATIONS = 1000
CHUNK = 50  # iterations per timed stage
HELD_OUT_EPISODES = 400
HELD_OUT_FLOOR = 0.70  # acceptance criterion c05


class TrainGrpo:
    name = "train-grpo"

    def __init__(self, work: Path, seed: int, iterations: int = ITERATIONS) -> None:
        if iterations % CHUNK:
            raise ValueError(f"iterations must be a multiple of {CHUNK}")
        self.work = work
        self.seed = seed
        self.iterations = iterations
        self.cfg = GrpoConfig()
        self.first = None  # (trace, trained policy) of the first round

    def sizes(self) -> dict:
        return {
            "users": N_USERS,
            "items": N_ITEMS,
            "dim": DIM,
            "pool": POOL,
            "m": M,
            "group_size": self.cfg.group_size,
            "iterations_per_round": self.iterations,
            "held_out_episodes": HELD_OUT_EPISODES,
        }

    def input_files(self) -> dict[str, Path]:
        return {}

    def setup(self, tr) -> None:
        with tr.span("env.generate_synthetic_world"):
            self.world, catalog, histories = generate_synthetic_world(
                N_USERS, N_ITEMS, DIM, seed=derive_seed(self.seed, "world"),
                history_length=HISTORY, pool_size=POOL,
            )
        self.source = SyntheticEpisodeSource(
            self.world, catalog, histories, EnvConfig(top_k=POOL, m=M, seed=self.seed), pool_size=POOL
        )

    def round(self, tr) -> Round:
        policy = ToySoftmaxPolicy(self.world, dim=DIM, temperature=TEMPERATURE)
        trace_path = self.work / "trace.jsonl"
        stamps: list[float] = []
        with tr.patch(grpo, "total_reward", "rewards.total_reward"):
            start = time.perf_counter()
            with tr.span("grpo.train"):
                trace = train(
                    tr.proxy(self.source, "env"),
                    tr.proxy(policy, "grpo.policy"),
                    self.cfg,
                    iterations=self.iterations,
                    seed=self.seed,
                    task="selection",
                    trace_path=trace_path,
                    progress=lambda entry: stamps.append(time.perf_counter()),
                )
            wall = time.perf_counter() - start
        marks = [start] + stamps
        iter_ms = [1000.0 * (b - a) for a, b in zip(marks, stamps)]
        written = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
        gates.check_equal("trace.jsonl", written, trace)
        if self.first is None:
            self.first = (trace, policy)
        gates.check_equal("trace of a repeated round", trace, self.first[0])
        return Round(
            wall=wall,
            work=self.iterations,
            attempted=self.iterations,
            failed=0,
            stages=[
                *((f"iterations.{i}", marks[i + CHUNK] - marks[i]) for i in range(0, self.iterations, CHUNK)),
                ("write_trace", start + wall - marks[-1]),
            ],
            out={"iter_ms": iter_ms},
        )

    def check(self) -> None:
        trace, policy = self.first
        want = reference.grpo_trace(
            self.world, self.source, self.cfg, self.iterations, self.seed, DIM, TEMPERATURE
        )
        gates.check_train_trace(trace, want)
        rng = np.random.default_rng(derive_seed(self.seed, "held-out"))
        held_out = [self.source.sample(rng, "selection") for _ in range(HELD_OUT_EPISODES)]
        gates.check_at_least(
            "held-out selection accuracy", evaluate_policy(policy, held_out), HELD_OUT_FLOOR
        )

    def summary(self, rounds: list[Round]) -> dict[str, float]:
        iter_ms = [ms for r in rounds for ms in r.out["iter_ms"]]
        return {
            "train_iter_ms_p50": statistics.median(iter_ms),
            "train_iter_ms_p99": percentile(iter_ms, 99),
            "train_iters_per_s": work_per_s(rounds),
        }

    def layer_metrics(self, view: SpanView, rnd: Round) -> dict[str, float]:
        n = self.iterations
        out = {
            "env.sample_calls": view.count("env.sample"),
            "env.sample_ms_p50": view.quantile("env.sample", 50, 1e3),
            "rewards.total_reward_calls": view.count("rewards.total_reward"),
            "rewards.score_us_p50": view.quantile("rewards.total_reward", 50, 1e6),
            "grpo.train_self_s": view.self_total("grpo.train"),
        }
        for method in POLICY_METHODS:
            name = f"grpo.policy.{method}"
            out[f"grpo.policy_calls_per_iter.{method}"] = view.count(name) / n
            out[f"grpo.policy_s.{method}"] = view.total(name)
        return out
