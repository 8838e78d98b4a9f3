"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (each test also prints an ``ACCEPTANCE n PASS`` line with the
measured runtime).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from simrec.core import CandidateSet, Judgment, Selection, load_interactions
from simrec.env import (
    EnvConfig,
    SyntheticEpisodeSource,
    build_candidate_set,
    derive_seed,
    export_episodes,
    generate_synthetic_world,
)
from simrec.fixtures import (
    make_caption_responder,
    make_uniform_responder,
    simulation_request,
)
from simrec.grpo import (
    GrpoConfig,
    ToySoftmaxPolicy,
    evaluate_policy,
    kl_estimate,
    normalize_advantages,
    objective_gradient,
    train,
)
from simrec.ipagent import FrameScore, FrameScores, batch_augment, select_keyframes
from simrec.llmclient import (
    EndpointConfig,
    MockTransport,
    RecordingTransport,
    ReplayTransport,
    complete_batch,
)
from simrec.recommender import (
    evaluate_leave_one_out,
    f1_from_precision_recall,
    fit_embedding,
    fit_markov,
    fit_popularity,
    report_from_ranks,
)
from simrec.rewards import total_reward
from conftest import DATA_DIR
from test_grpo import (
    away_from_clip_boundary,
    finite_difference_gradient,
    sample_group,
)


def announce(number, label, started):
    print(f"\nACCEPTANCE {number} PASS: {label} ({time.perf_counter() - started:.2f}s)")


def selection_task(m, truth_pos):
    order = tuple(f"c{i}" for i in range(1, m + 2))
    positive = order[truth_pos - 1]
    return Selection(
        candidates=CandidateSet(
            positive=positive,
            negatives=tuple(i for i in order if i != positive),
            presentation_order=order,
            rng_seed=0,
        )
    )


def test_c01_reward_exactness():
    started = time.perf_counter()
    judge = Judgment(item="v", label="like")
    sel2 = selection_task(3, 2)
    # every scoring row of the format/judgment/selection tables
    table = [
        ("<think>t</think><answer>Yes</answer>", judge, "like", 1.0, 1.0),
        ("<think>t</think><answer>No</answer>", judge, "like", 1.0, -1.0),
        ("<answer>Yes</answer><think>t</think>", judge, "like", 0.5, 1.0),
        ("<answer>No</answer><think>t</think>", judge, "dislike", 0.5, 1.0),
        ("<think>alone</think>", judge, "like", 0.0, -1.0),
        ("<answer>Yes</answer>", judge, "like", 0.0, 1.0),
        ("nothing to parse", judge, "like", -1.0, -1.0),
        ("", judge, "dislike", -1.0, -1.0),
        ("<think>t</think><answer>2</answer>", sel2, 2, 1.0, 2.0),
        ("<think>t</think><answer>4</answer>", sel2, 2, 1.0, -1.5),
        ("<answer>2</answer><think>t</think>", sel2, 2, 0.5, 2.0),
        ("<think>t</think><answer>unclear</answer>", sel2, 2, 1.0, -2.0),
    ]
    assert len(table) == 12
    for raw, task, truth, expect_format, expect_task in table:
        breakdown = total_reward(raw, task, truth)
        assert breakdown.r_format == expect_format, raw
        assert breakdown.r_task == expect_task, raw
        assert breakdown.total == expect_format + expect_task
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, "reward tables exact on all 12 canonical transcripts", started)


def test_c02_advantage_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_mean = 0.0
    worst_std = 0.0
    for _ in range(10_000):
        g = int(rng.integers(2, 33))
        rewards = rng.normal(loc=rng.uniform(-3, 3), scale=rng.uniform(0.2, 3.0), size=g)
        adv = normalize_advantages(rewards)
        if np.std(rewards) < 1e-8:
            assert np.all(adv == 0.0)
            continue
        worst_mean = max(worst_mean, abs(float(np.mean(adv))))
        worst_std = max(worst_std, abs(float(np.std(adv)) - 1.0))
    assert worst_mean < 1e-12
    assert worst_std < 1e-9

    base_rewards = rng.normal(size=16)
    base = normalize_advantages(base_rewards)
    np.testing.assert_allclose(normalize_advantages(base_rewards + 5.75), base, atol=1e-12)
    np.testing.assert_allclose(normalize_advantages(base_rewards * 2.5), base, atol=1e-12)

    rewards = [2.0, -1.5, -1.5, -1.5]
    mean = sum(rewards) / 4
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / 4)
    oracle = [(r - mean) / std for r in rewards]
    np.testing.assert_allclose(normalize_advantages(rewards), oracle, atol=1e-12)
    np.testing.assert_allclose(oracle, [math.sqrt(3), -1 / math.sqrt(3), -1 / math.sqrt(3), -1 / math.sqrt(3)], atol=1e-7)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce(2, "advantage normalization unbiased, unit-std, shift/scale invariant", started)


def test_c03_gradient_correctness():
    started = time.perf_counter()
    world, catalog, histories = generate_synthetic_world(10, 50, 4, seed=303, history_length=5, pool_size=8)
    source = SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=8, m=3, seed=1), pool_size=8)
    rng = np.random.default_rng(303)
    cfg = GrpoConfig(group_size=6, clip_epsilon=0.2, kl_coefficient=0.02, learning_rate=0.1)
    checked = 0
    while checked < 100:
        episode = source.sample(rng, "selection" if checked % 2 == 0 else "judgment")
        policy = ToySoftmaxPolicy(world, dim=4)
        theta0 = 0.3 * rng.standard_normal(16)
        policy.set_parameters(theta0 + 0.05 * rng.standard_normal(16))  # old/ref differ from current
        group = sample_group(policy, episode, rng, g=cfg.group_size, old=theta0, reference=theta0)
        if not away_from_clip_boundary(group, cfg, margin=1e-3):
            continue
        fd = finite_difference_gradient(policy, episode, group, cfg, step=1e-6)
        if np.linalg.norm(fd) < 1e-3:  # below the finite-difference noise floor
            continue
        grad = objective_gradient(group, cfg, policy.log_prob_gradients(episode))
        err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert err <= 1e-4, f"instance {checked}: relative error {err}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(3, "analytic gradient matches finite differences on 100 instances", started)


def test_c04_kl_estimator():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    cur = rng.uniform(-9, 0, size=100_000)
    ref = rng.uniform(-9, 0, size=100_000)
    k3 = kl_estimate(cur, ref)
    assert np.all(k3 >= 0.0)
    assert np.all((k3 == 0.0) == (cur == ref))
    same = rng.uniform(-9, 0, size=1000)
    assert np.all(kl_estimate(same, same) == 0.0)
    np.testing.assert_allclose(
        kl_estimate(np.zeros(2), np.log([2.0, 0.5])), [0.3068528, 0.1931472], atol=1e-6
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    announce(4, "k3 estimator non-negative, zero iff equal, spot values match", started)


def test_c05_toy_grpo_learning():
    started = time.perf_counter()
    world, catalog, histories = generate_synthetic_world(
        n_users=40, n_items=300, dim=8, seed=11, history_length=6, pool_size=10
    )
    source = SyntheticEpisodeSource(
        world, catalog, histories, EnvConfig(top_k=10, m=3, seed=0), pool_size=10
    )
    cfg = GrpoConfig()  # defaults: G=16, kl_coefficient=0.001
    assert cfg.group_size == 16 and cfg.kl_coefficient == 0.001

    policy = ToySoftmaxPolicy(world, dim=8)
    train(source, policy, cfg, iterations=2000, seed=0, task="selection")
    sel_rng = np.random.default_rng(derive_seed(0, "held-out", "selection"))
    selection_eval = [source.sample(sel_rng, "selection") for _ in range(500)]
    selection_acc = evaluate_policy(policy, selection_eval)
    assert selection_acc >= 0.70, f"selection accuracy {selection_acc} (chance 0.25)"

    judge_policy = ToySoftmaxPolicy(world, dim=8)
    train(source, judge_policy, cfg, iterations=1000, seed=0, task="judgment")
    jud_rng = np.random.default_rng(derive_seed(0, "held-out", "judgment"))
    judgment_eval = [source.sample(jud_rng, "judgment") for _ in range(500)]
    judgment_acc = evaluate_policy(judge_policy, judgment_eval)
    assert judgment_acc >= 0.90, f"judgment accuracy {judgment_acc} (chance 0.5)"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    announce(
        5,
        f"toy training: selection {selection_acc:.3f} >= 0.70, judgment {judgment_acc:.3f} >= 0.90",
        started,
    )


def test_c06_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(200):
        n_items = int(rng.integers(10, 60))
        ids = [f"i{j:03d}" for j in range(n_items)]
        scores = {i: float(rng.integers(0, 8)) for i in ids}
        targets = [ids[int(rng.integers(n_items))] for _ in range(int(rng.integers(2, 9)))]
        ranked = sorted(ids, key=lambda i: (-scores[i], i))
        impl_ranks = [ranked.index(t) + 1 for t in targets]
        oracle_ranks = [
            1
            + sum(
                1
                for other in ids
                if scores[other] > scores[t] or (scores[other] == scores[t] and other < t)
            )
            for t in targets
        ]
        assert impl_ranks == oracle_ranks
        for k in (5, 10, 20):
            report = report_from_ranks(impl_ranks, ks=(k,), slice_tag="all")
            oracle_hr = sum(1 for r in oracle_ranks if r <= k) / len(oracle_ranks)
            oracle_ndcg = sum(
                1.0 / math.log2(r + 1) for r in oracle_ranks if r <= k
            ) / len(oracle_ranks)
            assert abs(report.hr[k] - oracle_hr) < 1e-12
            assert abs(report.ndcg[k] - oracle_ndcg) < 1e-12

    assert abs(f1_from_precision_recall(0.697, 0.760) - 0.727) < 0.0005

    catalog, histories = load_interactions(DATA_DIR / "interactions.jsonl")
    from simrec.recommender import load_item_features

    catalog = load_item_features(catalog, DATA_DIR / "features.jsonl")
    views = [h.training_view() for h in histories]
    for fit in (fit_popularity, fit_markov, fit_embedding):
        report = evaluate_leave_one_out(fit(views, catalog), histories, ks=(10, 20))["all"]
        assert report.hr[20] >= report.hr[10]
        assert report.ndcg[20] >= report.ndcg[10]

    announce(6, "ranking metrics match the brute-force oracle; F1 consistency holds", started)


def test_c07_ip_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    catalog, _ = load_interactions(DATA_DIR / "interactions.jsonl")
    cfg = EndpointConfig(max_retries=0, backoff_base=0.0)
    replay_log = tmp_path / "replay.jsonl"
    with RecordingTransport(MockTransport(responder=make_caption_responder()), replay_log) as live:
        batch_augment(catalog, DATA_DIR / "frame_scores.jsonl", cfg, live, tmp_path / "seed.jsonl")

    outputs = []
    for run_name in ("one", "two"):
        out = tmp_path / f"captions_{run_name}.jsonl"
        report = batch_augment(
            catalog, DATA_DIR / "frame_scores.jsonl", cfg, ReplayTransport(replay_log), out
        )
        assert report.written == 5 and not report.failures
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    for line in outputs[0].decode().splitlines():
        assert len(json.loads(line)["caption"].split()) <= 45

    rng = np.random.default_rng(707)
    for _ in range(1000):
        count = int(rng.integers(1, 15))
        frames = tuple(
            FrameScore(index=i, ref=f"f{i}", score=float(s))
            for i, s in enumerate(rng.uniform(0, 1, size=count).round(3))
        )
        scores = FrameScores(item="x", frames=frames)
        picked = select_keyframes(scores)
        oracle = tuple(sorted(frames, key=lambda f: (-f.score, f.index))[:3])
        assert picked == oracle

    announce(7, "caption replay byte-identical, captions within cap, keyframes match oracle", started)


def test_c08_environment_invariants(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    universe = [f"i{j}" for j in range(12)]
    for _ in range(10_000):
        top = list(rng.choice(universe, size=10, replace=False))
        inside = bool(rng.integers(2))
        positive = top[int(rng.integers(10))] if inside else "pos"
        m = int(rng.integers(1, 9))
        seed = int(rng.integers(2**32))
        cs = build_candidate_set(top, positive, m, seed)
        assert cs.presentation_order.count(cs.positive) == 1
        assert len(set(cs.negatives)) == m and cs.positive not in cs.negatives
        assert sorted(cs.presentation_order) == sorted((cs.positive, *cs.negatives))
        assert cs == build_candidate_set(top, positive, m, seed)

    world, catalog, histories = generate_synthetic_world(
        n_users=30, n_items=150, dim=6, seed=88, history_length=5, pool_size=10
    )
    source = SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=10, m=3, seed=8))
    ep_rng = np.random.default_rng(881)
    episodes = [source.sample(ep_rng, "selection") for _ in range(1000)]
    episodes_path = tmp_path / "episodes.jsonl"
    export_episodes(episodes, episodes_path)
    replay_log = tmp_path / "uniform.jsonl"
    cfg = EndpointConfig(max_retries=0, backoff_base=0.0)
    with RecordingTransport(MockTransport(responder=make_uniform_responder(4, seed=9)), replay_log) as record:
        complete_batch([simulation_request(ep.prompt) for ep in episodes], cfg, transport=record)

    from simrec.cli import main as cli_main

    out = tmp_path / "sim-run"
    code = cli_main(
        ["simulate", "--episodes", str(episodes_path), "--replay", str(replay_log),
         "--m", "3", "--out", str(out)]
    )
    assert code == 0
    accuracy = json.loads((out / "metrics.json").read_text())["selection_acc"]["3"]
    assert 0.20 <= accuracy <= 0.30, f"uniform responder accuracy {accuracy}"

    announce(8, f"candidate-set invariants hold; uniform responder at {accuracy:.3f}", started)


def test_c09_feedback_rerank_direction(tmp_path):
    started = time.perf_counter()
    catalog, histories = load_interactions(DATA_DIR / "interactions.jsonl")
    from simrec.recommender import load_feedback

    feedback = load_feedback(DATA_DIR / "feedback.jsonl")
    # the bundled fixture pairs each feedback user with their held-out item
    targets = {h.user: h.target().item for h in histories}
    assert all(targets[user] == item for user, item in feedback)

    from simrec.cli import main as cli_main

    out = tmp_path / "rerank-run"
    code = cli_main(
        ["rerank", "--interactions", str(DATA_DIR / "interactions.jsonl"),
         "--feedback", str(DATA_DIR / "feedback.jsonl"), "--model", "markov",
         "--k", "10", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    before = report["before"]["all"]["hr"]["10"]
    after = report["after"]["all"]["hr"]["10"]
    assert after >= before, (before, after)

    announce(9, f"liked-feedback rerank: HR@10 {before:.4f} -> {after:.4f}", started)


def test_c10_end_to_end_smoke(tmp_path):
    started = time.perf_counter()
    run_dir = tmp_path / "smoke"
    run_dir.mkdir()

    # stage 0: replay material for the augment and simulate stages
    catalog, histories = load_interactions(DATA_DIR / "interactions.jsonl")
    cfg = EndpointConfig(max_retries=0, backoff_base=0.0)
    augment_replay = run_dir / "augment_replay.jsonl"
    with RecordingTransport(MockTransport(responder=make_caption_responder()), augment_replay) as live:
        batch_augment(catalog, DATA_DIR / "frame_scores.jsonl", cfg, live, run_dir / "warmup_captions.jsonl")
    world, wcatalog, whistories = generate_synthetic_world(
        n_users=25, n_items=100, dim=6, seed=99, history_length=5, pool_size=10
    )
    source = SyntheticEpisodeSource(world, wcatalog, whistories, EnvConfig(top_k=10, m=3, seed=9))
    ep_rng = np.random.default_rng(991)
    episodes = [source.sample(ep_rng, "selection") for _ in range(100)]
    episodes_path = run_dir / "episodes.jsonl"
    export_episodes(episodes, episodes_path)
    simulate_replay = run_dir / "simulate_replay.jsonl"
    with RecordingTransport(
        MockTransport(responder=make_uniform_responder(4, seed=10)), simulate_replay
    ) as live:
        complete_batch([simulation_request(ep.prompt) for ep in episodes], cfg, transport=live)

    stages = [
        (
            "augment",
            ["augment", "--interactions", DATA_DIR / "interactions.jsonl",
             "--frame-scores", DATA_DIR / "frame_scores.jsonl",
             "--replay", augment_replay, "--out", run_dir / "augment"],
        ),
        (
            "eval-rec",
            ["eval-rec", "--interactions", DATA_DIR / "interactions.jsonl",
             "--captions", run_dir / "augment" / "captions.jsonl",
             "--features", DATA_DIR / "features.jsonl",
             "--model", "markov", "--out", run_dir / "eval"],
        ),
        (
            "train-toy",
            ["train-toy", "--iters", "300", "--seed", "4", "--task", "selection",
             "--out", run_dir / "train"],
        ),
        (
            "simulate",
            ["simulate", "--episodes", episodes_path, "--replay", simulate_replay,
             "--m", "3", "--out", run_dir / "simulate"],
        ),
    ]
    for name, argv in stages:
        proc = subprocess.run(
            [sys.executable, "-m", "simrec", *map(str, argv)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"

    for stage_dir in ("augment", "eval", "train", "simulate"):
        manifest = json.loads((run_dir / stage_dir / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "inputs", "version"}
        assert manifest["config"], stage_dir

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    announce(10, f"end-to-end smoke across all stages in {elapsed:.1f}s", started)
