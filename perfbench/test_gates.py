"""The benchmark's own tests: each correctness gate fires on a perturbed output.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import simrec.grpo  # noqa: E402
import simrec.recommender  # noqa: E402
from simrec.env import EnvConfig, SyntheticEpisodeSource, generate_synthetic_world  # noqa: E402
from simrec.grpo import GrpoConfig, ToySoftmaxPolicy, train  # noqa: E402
from simrec.llmclient import ReplayTransport  # noqa: E402

import gates  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from endpoint import EndpointRecordReplay  # noqa: E402
from eval_loo import EvalLoo  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from rounds import Round, work_per_s  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from train_grpo import TrainGrpo  # noqa: E402


def execute(wl, trace: bool = False) -> str | None:
    """One benchmark run of ``wl`` in-process; returns the gate failure, if any."""
    return run.execute(wl, seconds=0.001, trace=trace, import_probe=lambda: 0.0, run_id="test").failure


# -- train-grpo ---------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_trace():
    world, catalog, histories = generate_synthetic_world(40, 300, 8, seed=5, history_length=6, pool_size=10)
    source = SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=10, m=3, seed=5))
    got = train(source, ToySoftmaxPolicy(world, dim=8), GrpoConfig(), iterations=60, seed=5)
    want = reference.grpo_trace(world, source, GrpoConfig(), 60, 5, 8, 2.5)
    return got, want


def test_train_trace_matches_reference(toy_trace):
    gates.check_train_trace(*toy_trace)


@pytest.mark.parametrize(
    "key, delta, fires",
    [("mean_reward", 0.25, True), ("accuracy", 1 / 16, True), ("objective", 1e-6, True), ("objective", 1e-12, False)],
)
def test_train_gate_fires_on_perturbed_trace_entry(toy_trace, key, delta, fires):
    got, want = toy_trace
    perturbed = [dict(e) for e in got]
    perturbed[17][key] += delta
    if fires:
        with pytest.raises(gates.GateError, match="iteration 17"):
            gates.check_train_trace(perturbed, want)
    else:
        gates.check_train_trace(perturbed, want)


def test_train_gate_fires_on_wrong_task(toy_trace):
    got, want = toy_trace
    perturbed = [dict(e) for e in got]
    perturbed[3]["task"] = "judgment"
    with pytest.raises(gates.GateError, match="task"):
        gates.check_train_trace(perturbed, want)


def test_train_run_fails_on_perturbed_reward(tmp_path, monkeypatch):
    assert execute(TrainGrpo(tmp_path, seed=2, iterations=800)) is None
    original = simrec.grpo.total_reward
    calls = []

    def off_by_one(*args, **kwargs):
        calls.append(1)
        breakdown = original(*args, **kwargs)
        return replace(breakdown, r_task=breakdown.r_task + 1.0) if len(calls) == 100 else breakdown

    monkeypatch.setattr(simrec.grpo, "total_reward", off_by_one)
    assert "train iteration 6" in execute(TrainGrpo(tmp_path, seed=2, iterations=800))


def test_train_held_out_floor_fires(tmp_path):
    # 50 iterations do not reach the c05 accuracy floor.
    assert "held-out selection accuracy" in execute(TrainGrpo(tmp_path, seed=2, iterations=50))


# -- eval-loo -----------------------------------------------------------------


def small_eval(tmp_path):
    return EvalLoo(tmp_path, seed=4, n_users=80, n_items=300)


def test_eval_run_passes(tmp_path):
    assert execute(small_eval(tmp_path)) is None


def test_eval_run_fails_on_perturbed_rank(tmp_path, monkeypatch):
    original = simrec.recommender.holdout_ranks

    def shifted(generator, histories):
        pairs = original(generator, histories)
        rank, cold = pairs[0]
        return [(rank + 1 if rank else 1, cold), *pairs[1:]]

    monkeypatch.setattr(simrec.recommender, "holdout_ranks", shifted)
    assert "direct top_k rank" in execute(small_eval(tmp_path))


def test_eval_run_fails_on_perturbed_report(tmp_path, monkeypatch):
    original = simrec.recommender.report_from_ranks

    def inflated(ranks, ks, slice_tag):
        report = original(ranks, ks, slice_tag)
        report.hr = {k: min(1.0, v + 0.01) for k, v in report.hr.items()}
        return report

    monkeypatch.setattr(simrec.recommender, "report_from_ranks", inflated)
    assert "HR/NDCG on the rank sample: hr" in execute(small_eval(tmp_path))


def test_eval_run_fails_on_perturbed_ndcg_gain(tmp_path, monkeypatch):
    original = simrec.recommender.ndcg_contribution
    monkeypatch.setattr(simrec.recommender, "ndcg_contribution", lambda rank, k: original(rank, k) * (1 + 1e-9))
    assert "HR/NDCG on the rank sample: ndcg@" in execute(small_eval(tmp_path))


def test_report_reference_follows_the_definitions():
    want = reference.hr_ndcg([1, 3, None, 12], (10, 20), "all")
    assert want["hr"] == {"10": 0.5, "20": 0.75}
    assert want["ndcg"]["10"] == pytest.approx((1 + 0.5) / 4)
    assert want["ndcg"]["20"] == pytest.approx((1 + 0.5 + 1 / math.log2(13)) / 4)


# -- endpoint-record-replay ---------------------------------------------------


def small_endpoint(tmp_path):
    return EndpointRecordReplay(tmp_path, seed=6, n_users=40, n_items=120, augment_items=5)


def test_endpoint_run_passes(tmp_path):
    assert execute(small_endpoint(tmp_path)) is None


def test_endpoint_run_fails_on_perturbed_replay_reply(tmp_path, monkeypatch):
    original = ReplayTransport.send
    calls = []

    def tampered(self, payload):
        calls.append(1)
        body = original(self, payload)
        if len(calls) == 3:
            body = json.loads(json.dumps(body))
            body["choices"][0]["message"]["content"] += " "
        return body

    monkeypatch.setattr(ReplayTransport, "send", tampered)
    assert "replay reply" in execute(small_endpoint(tmp_path))


def test_traced_run_reports_every_layer_metric(tmp_path):
    wl = small_endpoint(tmp_path)
    outcome = run.execute(wl, seconds=0.001, trace=True, import_probe=lambda: 0.0, run_id="test")
    assert outcome.failure is None
    values = outcome.values
    assert values["llmclient.send_calls.record"] == values["llmclient.send_calls.replay"] == 120
    assert values["ipagent.sends_per_item"] == 3.0
    assert values["llmclient.max_in_flight_seen"] <= 2
    assert 0.0 <= values["trace.uncovered_share"] <= run.UNCOVERED_CEILING
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {r["run"] for r in rows} == {"test"}


def test_traced_run_fails_when_spans_miss_the_work(tmp_path, monkeypatch):
    # Time spent in the benchmark's own code between simrec calls is uncovered.
    original = gates.check_replay

    def slow_check(recorded, replayed):
        time.sleep(0.5)
        original(recorded, replayed)

    monkeypatch.setattr(gates, "check_replay", slow_check)
    assert "no simrec span covers" in execute(small_endpoint(tmp_path), trace=True)


# -- tracing ------------------------------------------------------------------


def test_work_per_s_takes_each_stage_position_at_its_median():
    def rnd(times):
        return Round(wall=sum(times), work=10, attempted=10, failed=0,
                     stages=[(f"block.{i}", t) for i, t in enumerate(times)])

    # A cost on the second position only (say a periodic flush) stays in the rate,
    # and one fast burst on a position does not set it.
    rounds = [rnd([1.0, 3.0]), rnd([2.0, 4.0]), rnd([0.2, 5.0])]
    assert work_per_s(rounds) == pytest.approx(10 / 5.0)
    with pytest.raises(ValueError, match="repeat"):
        work_per_s([Round(wall=2, work=1, attempted=1, failed=0, stages=[("a", 1.0), ("a", 1.0)])])



def test_self_times_split_overlap_and_add_up_to_wall():
    spans = [Span(1, 0, "a", 0, 10), Span(2, 1, "b", 1, 3), Span(3, 1, "c", 2, 6), Span(4, 3, "d", 4, 5)]
    assert self_times(spans) == {1: 5.0, 2: 1.5, 3: 2.5, 4: 1.0}


def test_proxy_spans_follow_the_interface():
    class Thing:
        def old(self):
            return 1

    tracer = Tracer("t")
    thing = Thing()
    proxy = tracer.proxy(thing, "layer.thing")
    Thing.new = lambda self: 2  # an interface change needs no harness change
    assert proxy.old() + proxy.new() == 3
    assert [s.name for s in tracer.spans] == ["layer.thing.old", "layer.thing.new"]


# -- contract -----------------------------------------------------------------


def test_benchmark_json_names_match_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-grpo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
