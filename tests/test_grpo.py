import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simrec.grpo import (
    GrpoConfig,
    RolloutGroup,
    ToySoftmaxPolicy,
    _log_softmax,
    curriculum_switch_iteration,
    evaluate_policy,
    kl_estimate,
    normalize_advantages,
    objective_gradient,
    render_action,
    surrogate_objective,
    train,
    truth_token,
)
from simrec.rewards import parse_response

PINNED_TRACES = Path(__file__).with_name("grpo_pinned_traces.json")


def brute_force_advantages(rewards):
    mean = sum(rewards) / len(rewards)
    var = sum((r - mean) ** 2 for r in rewards) / len(rewards)
    return [(r - mean) / math.sqrt(var) for r in rewards]


class TestNormalizeAdvantages:
    def test_matches_brute_force_oracle(self):
        rewards = [2.0, -1.5, -1.5, -1.5]
        expected = brute_force_advantages(rewards)
        np.testing.assert_allclose(normalize_advantages(rewards), expected, atol=1e-12)
        # frozen values from the oracle
        np.testing.assert_allclose(
            normalize_advantages(rewards),
            [1.7320508, -0.5773503, -0.5773503, -0.5773503],
            atol=1e-7,
        )

    @pytest.mark.parametrize("c", [0.0, -3.5, 7.25])
    def test_constant_group_is_all_zero(self, c):
        np.testing.assert_array_equal(normalize_advantages([c] * 4), np.zeros(4))

    def test_symmetric_pair(self):
        np.testing.assert_allclose(normalize_advantages([1.0, -1.0]), [1.0, -1.0], atol=1e-15)

    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = int(rng.integers(2, 33))
            rewards = rng.normal(scale=rng.uniform(0.5, 4.0), size=g)
            adv = normalize_advantages(rewards)
            if np.std(rewards) < 1e-8:
                continue
            assert abs(np.mean(adv)) < 1e-12
            assert abs(np.std(adv) - 1.0) < 1e-9

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        rewards = rng.normal(size=8)
        base = normalize_advantages(rewards)
        np.testing.assert_allclose(normalize_advantages(rewards + 11.5), base, atol=1e-12)
        np.testing.assert_allclose(normalize_advantages(rewards * 3.25), base, atol=1e-12)

    def test_non_finite_reward_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            normalize_advantages([1.0, float("inf")])

    def test_needs_at_least_two(self):
        with pytest.raises(ValueError):
            normalize_advantages([1.0])


class TestKlEstimate:
    def test_identical_policies_give_zeros(self):
        logp = np.log(np.array([0.2, 0.5, 0.3]))
        np.testing.assert_array_equal(kl_estimate(logp, logp), np.zeros(3))

    def test_spot_values(self):
        # rho = exp(ref - cur); direct-formula oracle rho - ln rho - 1
        cur = np.array([0.0, 0.0])
        ref = np.array([math.log(2.0), math.log(0.5)])
        np.testing.assert_allclose(
            kl_estimate(cur, ref), [0.3068528, 0.1931472], atol=1e-6
        )

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(9)
        cur = rng.uniform(-8, 0, size=100_000)
        ref = rng.uniform(-8, 0, size=100_000)
        k3 = kl_estimate(cur, ref)
        assert np.all(k3 >= 0.0)
        assert np.all((k3 == 0.0) == (cur == ref))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            kl_estimate(np.zeros(2), np.zeros(3))


def one_response_group(rho, adv, log_ref=None):
    return RolloutGroup(
        actions=[0],
        rewards=[0.0],
        advantages=[adv],
        logp_current=[math.log(rho)],
        logp_old=[0.0],
        logp_ref=[0.0 if log_ref is None else log_ref],
    )


CFG = GrpoConfig(group_size=2, clip_epsilon=0.2, kl_coefficient=0.0, learning_rate=0.1)


class TestSurrogateObjective:
    def test_ratio_one_beta_zero_equals_mean_advantage(self):
        rewards = np.array([2.0, -1.5, -1.5, 0.5])
        adv = normalize_advantages(rewards)
        lps = np.full(4, -0.3)
        group = RolloutGroup(
            actions=np.zeros(4, dtype=int),
            rewards=rewards,
            advantages=adv,
            logp_current=lps,
            logp_old=lps,
            logp_ref=lps,
        )
        assert abs(surrogate_objective(group, CFG)) < 1e-12

    def test_clip_positive_advantage(self):
        assert surrogate_objective(one_response_group(1.5, 1.0), CFG) == pytest.approx(1.2, abs=1e-12)

    def test_clip_negative_advantage(self):
        assert surrogate_objective(one_response_group(1.5, -1.0), CFG) == pytest.approx(-1.5, abs=1e-12)

    def test_two_action_hand_computed(self):
        # actions with rho 1.5 and 0.5, adv 1, eps 0.2, beta 0.01, ref log-ratio ln 2
        # min terms: min(1.5, 1.2) = 1.2 and min(0.5, 0.8) = 0.5
        # k3 per action: rho_ref = exp(lr - lc) with lr = ln 2
        cfg = GrpoConfig(group_size=2, clip_epsilon=0.2, kl_coefficient=0.01, learning_rate=0.1)
        group = RolloutGroup(
            actions=[0, 1],
            rewards=[0.0, 0.0],
            advantages=[1.0, 1.0],
            logp_current=[math.log(1.5), math.log(0.5)],
            logp_old=np.zeros(2),
            logp_ref=np.full(2, math.log(2.0)),
        )
        k3 = [
            (2.0 / 1.5) - math.log(2.0 / 1.5) - 1.0,
            (2.0 / 0.5) - math.log(2.0 / 0.5) - 1.0,
        ]
        expected = ((1.2 - 0.01 * k3[0]) + (0.5 - 0.01 * k3[1])) / 2.0
        assert surrogate_objective(group, cfg) == pytest.approx(expected, rel=1e-12)

    def test_arrays_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="one entry per response"):
            RolloutGroup(
                actions=[0, 1], rewards=[0.0], advantages=[0.0, 0.0],
                logp_current=[0.0, 0.0], logp_old=[0.0, 0.0], logp_ref=[0.0, 0.0],
            )


def sample_group(policy, episode, rng, g=6, rewards=None, old=None, reference=None):
    """G actions sampled at the current parameters; ``old``/``reference`` default to them."""
    logp = policy.log_probs(episode)
    actions = rng.choice(len(logp), size=g, p=np.exp(logp))
    if rewards is None:
        rewards = rng.choice([3.0, -0.5, -1.0], size=g)
        while np.std(rewards) < 1e-8:
            rewards = rng.choice([3.0, -0.5, -1.0], size=g)
    return RolloutGroup(
        actions=actions,
        rewards=rewards,
        advantages=normalize_advantages(rewards),
        logp_current=logp[actions],
        logp_old=policy.log_probs(episode, old)[actions],
        logp_ref=policy.log_probs(episode, reference)[actions],
    )


def finite_difference_gradient(policy, episode, group, cfg, step=1e-6):
    theta0 = policy.parameters()

    def value(theta):
        shadow = replace(group, logp_current=policy.log_probs(episode, theta)[group.actions])
        return surrogate_objective(shadow, cfg)

    fd = np.zeros_like(theta0)
    for j in range(len(theta0)):
        basis = np.zeros_like(theta0)
        basis[j] = step
        fd[j] = (value(theta0 + basis) - value(theta0 - basis)) / (2 * step)
    return fd


def away_from_clip_boundary(group, cfg, margin=1e-3):
    rho = np.exp(group.logp_current - group.logp_old)
    return not (
        np.any(np.abs(rho - (1 - cfg.clip_epsilon)) < margin)
        or np.any(np.abs(rho - (1 + cfg.clip_epsilon)) < margin)
    )


class TestObjectiveGradient:
    def test_at_old_policy_beta_zero_equals_vanilla_policy_gradient(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(12)
        episode = source.sample(rng, "selection")
        policy = ToySoftmaxPolicy(world, dim=4)
        policy.set_parameters(0.2 * rng.standard_normal(16))
        group = sample_group(policy, episode, rng)
        cfg = GrpoConfig(group_size=group.size, kl_coefficient=0.0, learning_rate=0.1)
        grads = policy.log_prob_gradients(episode)
        grad = objective_gradient(group, cfg, grads)
        vanilla = np.zeros_like(grad)
        for i in range(group.size):
            vanilla += group.advantages[i] * grads[group.actions[i]] / group.size
        np.testing.assert_allclose(grad, vanilla, atol=1e-12)

    def test_zero_advantages_and_beta_give_zero_gradient(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(13)
        episode = source.sample(rng, "judgment")
        policy = ToySoftmaxPolicy(world, dim=4)
        group = sample_group(policy, episode, rng, rewards=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        cfg = GrpoConfig(group_size=group.size, kl_coefficient=0.0, learning_rate=0.1)
        np.testing.assert_array_equal(
            objective_gradient(group, cfg, policy.log_prob_gradients(episode)), np.zeros(16)
        )

    def test_matches_finite_differences(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(14)
        cfg = GrpoConfig(group_size=6, clip_epsilon=0.2, kl_coefficient=0.02, learning_rate=0.1)
        checked = 0
        while checked < 25:
            kind = "selection" if checked % 2 == 0 else "judgment"
            episode = source.sample(rng, kind)
            policy = ToySoftmaxPolicy(world, dim=4)
            theta0 = 0.3 * rng.standard_normal(16)
            policy.set_parameters(theta0 + 0.05 * rng.standard_normal(16))  # old/ref differ from current
            group = sample_group(policy, episode, rng, g=cfg.group_size, old=theta0, reference=theta0)
            if not away_from_clip_boundary(group, cfg):
                continue
            grad = objective_gradient(group, cfg, policy.log_prob_gradients(episode))
            fd = finite_difference_gradient(policy, episode, group, cfg)
            if np.linalg.norm(fd) < 1e-3:
                # below the h^2 + roundoff floor of central differences a
                # relative comparison is meaningless; require agreement in
                # absolute terms instead and move on
                assert np.linalg.norm(grad - fd) < 1e-8
                continue
            err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert err <= 1e-4, f"relative error {err}"
            checked += 1

    def test_one_step_does_not_decrease_surrogate(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(16)
        cfg = GrpoConfig(group_size=8, kl_coefficient=0.001, learning_rate=1e-3)
        for trial in range(10):
            episode = source.sample(rng, "selection" if trial % 2 else "judgment")
            policy = ToySoftmaxPolicy(world, dim=4)
            policy.set_parameters(0.2 * rng.standard_normal(16))
            group = sample_group(policy, episode, rng, g=cfg.group_size)
            before = surrogate_objective(group, cfg)
            grad = objective_gradient(group, cfg, policy.log_prob_gradients(episode))
            policy.set_parameters(policy.parameters() + cfg.learning_rate * grad)
            refreshed = replace(group, logp_current=policy.log_probs(episode)[group.actions])
            assert surrogate_objective(refreshed, cfg) >= before - 1e-12


# The numpy-wrapper formulations the group math replaced; the replacements run
# the same ufunc loops, so they must agree bit for bit, not just closely.
def wrapper_advantages(rewards, std_floor):
    r = np.asarray(rewards, dtype=float)
    std = float(np.std(r))
    return np.zeros_like(r) if std < std_floor else (r - np.mean(r)) / std


def wrapper_objective(group, cfg):
    rho = np.exp(group.logp_current - group.logp_old)
    clipped = np.clip(rho, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * group.advantages
    log_rho = group.logp_ref - group.logp_current
    penalty = cfg.kl_coefficient * (np.expm1(log_rho) - log_rho)
    return float(np.mean(np.minimum(rho * group.advantages, clipped) - penalty))


def wrapper_gradient(group, cfg, grads):
    rho = np.exp(group.logp_current - group.logp_old)
    adv = group.advantages
    active = rho * adv <= np.clip(rho, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * adv
    dkl_dlc = 1.0 - np.exp(group.logp_ref - group.logp_current)
    coeff = (np.where(active, adv * rho, 0.0) - cfg.kl_coefficient * dkl_dlc) / group.size
    return (coeff[:, None] * grads[group.actions]).sum(axis=0)


def wrapper_log_softmax(logits):
    shifted = logits - np.max(logits)
    return shifted - math.log(float(np.sum(np.exp(shifted))))


class TestBitEqualToTheNumpyWrappers:
    @settings(max_examples=300, deadline=None)
    @given(
        g=st.integers(2, 32),
        judgment=st.booleans(),
        n_actions=st.integers(2, 10),
        reward_values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
        shift=st.floats(0.0, 1.0),
        kl_coefficient=st.sampled_from([0.0, 0.001, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    # A constant group, and a judgment group whose ratios leave the clip range on both sides.
    @example(g=2, judgment=False, n_actions=4, reward_values=[-1.5], shift=0.5, kl_coefficient=0.001, seed=0)
    @example(g=32, judgment=True, n_actions=2, reward_values=[2.0, -2.0], shift=1.0, kl_coefficient=0.3, seed=1)
    def test_group_math(self, g, judgment, n_actions, reward_values, shift, kl_coefficient, seed):
        rng = np.random.default_rng(seed)
        cfg = GrpoConfig(group_size=g, kl_coefficient=kl_coefficient)
        if judgment:
            s = rng.normal(scale=3.0)
            logits, ref_logits = np.array([s, -s]), np.array([-s / 2, s / 2])
        else:
            logits, ref_logits = rng.normal(scale=3.0, size=(2, n_actions))
        logp = _log_softmax(logits)
        assert np.array_equal(logp, wrapper_log_softmax(logits))
        logp_ref = _log_softmax(ref_logits)
        actions = rng.integers(len(logp), size=g)
        rewards = rng.choice(reward_values, size=g)
        advantages = normalize_advantages(rewards, cfg.std_floor)
        assert np.array_equal(advantages, wrapper_advantages(rewards, cfg.std_floor))
        # Ratios exp(+-shift) on the first two responses: past 1 + eps and
        # 1 - eps once shift > log(1.25), so the clip binds on both sides.
        log_ratio = rng.uniform(-shift, shift, size=g)
        log_ratio[:2] = shift, -shift
        group = RolloutGroup(
            actions=actions,
            rewards=rewards,
            advantages=advantages,
            logp_current=logp[actions],
            logp_old=logp[actions] - log_ratio,
            logp_ref=logp_ref[actions],
        )
        assert surrogate_objective(group, cfg) == wrapper_objective(group, cfg)
        grads = rng.normal(size=(len(logp), 6))
        assert np.array_equal(objective_gradient(group, cfg, grads), wrapper_gradient(group, cfg, grads))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40))
    def test_log_softmax(self, logits):
        logits = np.array(logits)
        assert np.array_equal(_log_softmax(logits), wrapper_log_softmax(logits))


class TestToySoftmaxPolicy:
    def test_probabilities_sum_to_one(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(17)
        policy = ToySoftmaxPolicy(world, dim=4)
        policy.set_parameters(rng.standard_normal(16))
        for kind in ("selection", "judgment"):
            for _ in range(50):
                probs = np.exp(policy.log_probs(source.sample(rng, kind)))
                assert abs(probs.sum() - 1.0) < 1e-12

    def test_render_parse_round_trip(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(18)
        policy = ToySoftmaxPolicy(world, dim=4)
        for _ in range(50):
            for kind in ("selection", "judgment"):
                episode = source.sample(rng, kind)
                for action in range(len(policy.log_probs(episode))):
                    parsed = parse_response(render_action(episode, action), episode.task)
                    if kind == "selection":
                        assert parsed.action == action + 1
                    else:
                        assert parsed.action == ("yes" if action == 0 else "no")
                    assert parsed.tag_order_ok
                    assert "User_status:" in parsed.think_text  # the rendered reasoning states one


    def test_vector_cache_never_serves_a_stale_episode(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(19)
        a, b = source.sample(rng, "selection"), source.sample(rng, "selection")
        policy = ToySoftmaxPolicy(world, dim=4)
        for episode in (a, b, a):
            theta = rng.standard_normal(16)
            policy.set_parameters(theta)
            fresh = ToySoftmaxPolicy(world, dim=4)
            fresh.set_parameters(theta)
            assert np.array_equal(policy.log_probs(episode), fresh.log_probs(episode))
            assert np.array_equal(policy.log_prob_gradients(episode), fresh.log_prob_gradients(episode))


class TestTrain:
    def test_zero_learning_rate_leaves_parameters_and_chance_reward(self, small_world):
        world, _, _, source = small_world
        policy = ToySoftmaxPolicy(world, dim=4)
        cfg = GrpoConfig(group_size=8, learning_rate=0.0)
        before = policy.parameters()
        trace = train(source, policy, cfg, iterations=120, seed=5, task="selection")
        np.testing.assert_array_equal(policy.parameters(), before)
        # uniform policy over 4 candidates: accuracy hovers near 1/4
        acc = np.mean([t["accuracy"] for t in trace])
        assert 0.15 < acc < 0.35

    def test_deterministic_trace(self, small_world, tmp_path):
        world, _, _, source = small_world
        cfg = GrpoConfig(group_size=4, learning_rate=0.05)
        paths = []
        for run in range(2):
            policy = ToySoftmaxPolicy(world, dim=4)
            path = tmp_path / f"trace{run}.jsonl"
            train(source, policy, cfg, iterations=40, seed=9, task="mixed", trace_path=path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("task", ["selection", "judgment", "mixed"])
    def test_trace_matches_pinned_values(self, small_world, task):
        # Rows recorded from an earlier implementation of train(); refactors
        # must reproduce them (the objective up to summation order).
        pinned = json.loads(PINNED_TRACES.read_text(encoding="utf-8"))[task]
        world, _, _, source = small_world
        trace = train(source, ToySoftmaxPolicy(world, dim=4), GrpoConfig(group_size=16), 60, seed=3, task=task)
        assert len(trace) == len(pinned)
        for got, want in zip(trace, pinned):
            assert {k: got[k] for k in ("iter", "task", "mean_reward", "accuracy")} == {
                k: want[k] for k in ("iter", "task", "mean_reward", "accuracy")
            }
            assert abs(got["objective"] - want["objective"]) <= 1e-12

    def test_trace_rows_reach_disk_before_a_crash(self, small_world, tmp_path):
        world, _, _, source = small_world
        path = tmp_path / "trace.jsonl"
        rows_on_disk = []

        def crash_at_5(entry):
            # read through a second handle: the row must already be flushed
            rows_on_disk.append(len(path.read_text(encoding="utf-8").splitlines()))
            if entry["iter"] == 5:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            train(source, ToySoftmaxPolicy(world, dim=4), GrpoConfig(group_size=4), 20, seed=0,
                  trace_path=path, progress=crash_at_5)
        assert rows_on_disk == [1, 2, 3, 4, 5, 6]
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [row["iter"] for row in rows] == [0, 1, 2, 3, 4, 5]

    def test_a_second_run_replaces_the_trace(self, small_world, tmp_path):
        world, _, _, source = small_world
        path = tmp_path / "trace.jsonl"
        for iterations in (6, 3):
            trace = train(source, ToySoftmaxPolicy(world, dim=4), GrpoConfig(group_size=4), iterations, seed=0,
                          trace_path=path)
        assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == trace

    def test_trace_schema(self, small_world):
        world, _, _, source = small_world
        policy = ToySoftmaxPolicy(world, dim=4)
        trace = train(source, policy, GrpoConfig(group_size=4), iterations=5, seed=0)
        for entry in trace:
            assert set(entry) == {"iter", "mean_reward", "accuracy", "objective", "task"}

    def test_curriculum_switch(self, small_world):
        world, _, _, source = small_world
        policy = ToySoftmaxPolicy(world, dim=4)
        trace = train(
            source,
            policy,
            GrpoConfig(group_size=4),
            iterations=60,
            seed=2,
            task="mixed",
            curriculum_fraction=0.5,
        )
        assert all(t["task"] == "judgment" for t in trace[:30])
        assert {t["task"] for t in trace[30:]} == {"judgment", "selection"}

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, math.nan])
    def test_curriculum_fraction_outside_the_unit_interval_rejected(self, small_world, fraction):
        world, _, _, source = small_world
        with pytest.raises(ValueError, match="curriculum_fraction"):
            train(source, ToySoftmaxPolicy(world, dim=4), GrpoConfig(group_size=4), 10, seed=0,
                  task="mixed", curriculum_fraction=fraction)

    @pytest.mark.parametrize("fraction,switch", [(0.0, 0), (0.25, 3), (1.0, 10)])
    def test_curriculum_fraction_bounds_accepted(self, fraction, switch):
        assert curriculum_switch_iteration(10, fraction) == switch

    def test_selection_learning_improves(self, small_world):
        world, _, _, source = small_world
        policy = ToySoftmaxPolicy(world, dim=4)
        train(source, policy, GrpoConfig(group_size=16), iterations=400, seed=1, task="selection")
        rng = np.random.default_rng(999)
        episodes = [source.sample(rng, "selection") for _ in range(200)]
        assert evaluate_policy(policy, episodes) >= 0.6

    def test_truth_token_mapping(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(21)
        sel = source.sample(rng, "selection")
        assert truth_token(sel) == int(sel.truth) - 1
        jud = source.sample(rng, "judgment")
        assert truth_token(jud) == (0 if jud.truth == "like" else 1)


class TestGrpoConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"group_size": 1}, "group_size"),
            ({"clip_epsilon": 0.0}, "clip_epsilon"),
            ({"clip_epsilon": 1.0}, "clip_epsilon"),
            ({"kl_coefficient": -0.1}, "kl_coefficient"),
            ({"learning_rate": -0.01}, "learning_rate"),
            ({"std_floor": 0.0}, "std_floor"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            GrpoConfig(**kwargs)

    def test_stated_defaults(self):
        cfg = GrpoConfig()
        assert cfg.group_size == 16
        assert cfg.kl_coefficient == 0.001
        assert 0.0 < cfg.clip_epsilon < 1.0
