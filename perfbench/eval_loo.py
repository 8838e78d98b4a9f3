"""eval-loo: the ``eval-rec`` path at U=2000 users and I=5000 items.

Per round: load interactions and item features, then for each of popularity,
markov and embedding fit the model on every user and run
``evaluate_leave_one_out`` plus the seeded ``RandomGenerator`` baseline, as
``cmd_eval_rec`` does. All of the work is full-catalog ranking and ``core``
ingestion, with no ``grpo``: vectorised ranking moves this workload and must
leave train-grpo unchanged.

Users are ranked in equal shards, one ``evaluate_leave_one_out`` call each.
Every user is still ranked against the full catalog by a model fitted on all
users, so the per-user work is that of one call over everyone; the shards
only make each timed stage short (under half a second), which is what lets
the per-stage median rate repeat across runs on a host whose speed drifts.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import simrec.fixtures as fixtures
import simrec.recommender as recommender
from simrec.core import load_interactions
from simrec.env import derive_seed
from simrec.recommender import (
    COLD_MAX_TRAIN_INTERACTIONS,
    RandomGenerator,
    evaluate_leave_one_out,
    fit_embedding,
    fit_markov,
    fit_popularity,
    load_item_features,
)

import gates
from metrics import RANKERS
import reference
from rounds import Round, core_metrics, count_lines, work_per_s
from spans import SpanView

N_USERS, N_ITEMS, DIM, HISTORY, POOL = 2000, 5000, 8, (4, 10), 10
KS = (10, 20)
SLICES = ("all", "cold")
RANK_SAMPLE = 64  # users per model whose ranks are checked against direct top_k
SHARDS = 20
MODELS = {"popularity": fit_popularity, "markov": fit_markov, "embedding": fit_embedding}


class EvalLoo:
    name = "eval-loo"

    def __init__(self, work: Path, seed: int, n_users: int = N_USERS, n_items: int = N_ITEMS) -> None:
        self.work = work
        self.seed = seed
        self.n_users = n_users
        self.n_items = n_items
        self.first_reports = None
        self.last = None  # (fitted generators, histories) of the latest round

    def sizes(self) -> dict:
        return {
            "users": self.n_users,
            "items": self.n_items,
            "dim": DIM,
            "history_length": list(HISTORY),
            "ks": list(KS),
            "slices": list(SLICES),
            "rank_sample": RANK_SAMPLE,
            "shards": SHARDS,
            "rows": self.rows,
        }

    def input_files(self) -> dict[str, Path]:
        return {"interactions": self.paths["interactions"], "features": self.paths["features"]}

    def setup(self, tr) -> None:
        with tr.patch(fixtures, "generate_synthetic_world", "env.generate_synthetic_world"):
            self.paths = fixtures.write_synthetic_dataset(
                self.work / "data", seed=self.seed, n_users=self.n_users, n_items=self.n_items,
                dim=DIM, history_length=HISTORY, pool_size=POOL, n_frame_items=0, n_feedback_users=0,
            )
        self.rows = count_lines(self.paths["interactions"])

    def round(self, tr) -> Round:
        self.last = None  # free the previous round's models, so peak RSS does not grow with rounds
        start = time.perf_counter()
        with tr.span("core.load_interactions"):
            catalog, histories = load_interactions(self.paths["interactions"])
        with tr.span("recommender.load_item_features"):
            catalog = load_item_features(catalog, self.paths["features"])
        views = [h.training_view() for h in histories]
        shards = [histories[i * len(histories) // SHARDS:(i + 1) * len(histories) // SHARDS] for i in range(SHARDS)]
        reports = {}
        generators = {}
        marks = [("load", time.perf_counter())]

        def evaluate(name: str, generator, stage: str) -> list[dict]:
            found = []
            for j, shard in enumerate(shards):
                with tr.span(f"recommender.evaluate_leave_one_out.{name}"):
                    reps = evaluate_leave_one_out(
                        tr.proxy(generator, f"recommender.{name}"), shard, ks=KS, slices=SLICES
                    )
                found.append({tag: rep.to_dict() for tag, rep in reps.items()})
                marks.append((f"{stage}.shard{j}", time.perf_counter()))
            return found

        for model, fit in MODELS.items():
            with tr.span(f"recommender.fit.{model}"):
                generators[model] = fit(views, catalog)
            marks.append((f"{model}.fit", time.perf_counter()))
            reports[model] = {"slices": evaluate(model, generators[model], model)}
            baseline = RandomGenerator(seed=self.seed)
            with tr.span("recommender.fit.random"):
                baseline.fit(views, catalog)
            marks.append((f"{model}.random.fit", time.perf_counter()))
            reports[model]["random_baseline"] = evaluate("random", baseline, f"{model}.random")
            generators["random"] = baseline
        stages = [(name, mark - last) for (name, mark), (_, last) in zip(marks, [("", start), *marks])]
        self.last = (generators, histories)
        if self.first_reports is None:
            self.first_reports = reports
        gates.check_equal("reports of a repeated round", reports, self.first_reports)
        ranked = 2 * len(MODELS) * len(histories)
        return Round(wall=marks[-1][1] - start, work=ranked, attempted=ranked, failed=0, stages=stages)

    def check(self) -> None:
        generators, histories = self.last
        rng = np.random.default_rng(derive_seed(self.seed, "rank-sample"))
        picked = sorted(rng.choice(len(histories), size=min(RANK_SAMPLE, len(histories)), replace=False))
        sample = [histories[i] for i in picked]
        users = [h.user for h in sample]
        cold = [len(h) - 1 <= COLD_MAX_TRAIN_INTERACTIONS for h in sample]
        for model in RANKERS:
            generator = generators[model]
            want = [reference.direct_rank(generator, h) for h in sample]
            got = [rank for rank, _ in recommender.holdout_ranks(generator, sample)]
            gates.check_ranks(model, users, got, want)
            found = evaluate_leave_one_out(generator, sample, ks=KS, slices=SLICES)
            for tag, ranks in (("all", want), ("cold", [r for r, c in zip(want, cold) if c])):
                gates.check_report(f"{model}: HR/NDCG on the rank sample", found[tag].to_dict(),
                                   reference.hr_ndcg(ranks, KS, tag))

    def summary(self, rounds: list[Round]) -> dict[str, float]:
        return {"eval_users_per_s": work_per_s(rounds)}

    def layer_metrics(self, view: SpanView, rnd: Round) -> dict[str, float]:
        out = core_metrics(view, self.rows)
        out["recommender.load_item_features_s"] = view.total("recommender.load_item_features")
        for model in RANKERS:
            if model in MODELS:
                out[f"recommender.fit_s.{model}"] = view.total(f"recommender.fit.{model}")
            out[f"recommender.rank_s.{model}"] = view.total(f"recommender.evaluate_leave_one_out.{model}")
            top_k = f"recommender.{model}.top_k"
            out[f"recommender.top_k_calls.{model}"] = view.count(top_k)
            out[f"recommender.top_k_ms_p50.{model}"] = view.quantile(top_k, 50, 1e3)
            out[f"recommender.top_k_ms_p99.{model}"] = view.quantile(top_k, 99, 1e3)
        return out
