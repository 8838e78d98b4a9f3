"""Group-relative policy optimization on grouped, reward-scored rollouts.

One training step samples a group of G responses for a single episode, scores
them with the verifiable rewards, normalizes rewards into advantages within
the group (no critic), and ascends the clipped surrogate

    (1/G) sum_i min[rho_i * A_i, clip(rho_i, 1-eps, 1+eps) * A_i] - beta * k3(logp_cur_i, logp_ref_i)

where rho = exp(logp_current - logp_old) and k3 is the non-negative
low-variance KL estimator rho_ref - log(rho_ref) - 1. Every response is a
single action (one candidate, or Yes/No), so the per-token mean of the
multi-token objective has one term per response. The old policy is the
sampling policy: ``train`` passes the log-probs it sampled with as
``logp_old``, so its ratios are 1; the clip still applies to groups built
with other old log-probs.

``ToySoftmaxPolicy`` is a desk-scale differentiable policy (a bilinear form
over user/item vectors) that exercises the full objective, including an exact
analytic gradient checked against finite differences.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import JsonlAppender, Judgment, Selection
from .env import Episode, SyntheticEpisodeSource, SyntheticWorld
from .rewards import render_reply, total_reward


@dataclass(frozen=True)
class GrpoConfig:
    """Hyperparameters for grouped policy optimization."""

    group_size: int = 16
    clip_epsilon: float = 0.2
    kl_coefficient: float = 0.001
    learning_rate: float = 0.05
    std_floor: float = 1e-8

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be at least 2")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must lie in (0, 1)")
        if self.kl_coefficient < 0.0:
            raise ValueError("kl_coefficient must be non-negative")
        if self.learning_rate < 0.0:
            # 0 is allowed: it freezes the policy for chance-level diagnostics.
            raise ValueError("learning_rate must be non-negative")
        if self.std_floor <= 0.0:
            raise ValueError("std_floor must be positive")


@dataclass
class RolloutGroup:
    """G scored single-action responses for one episode, one array entry each."""

    actions: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray
    logp_current: np.ndarray
    logp_old: np.ndarray
    logp_ref: np.ndarray

    def __post_init__(self) -> None:
        self.actions = np.asarray(self.actions, dtype=int)
        for name in ("rewards", "advantages", "logp_current", "logp_old", "logp_ref"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        arrays = (self.actions, self.rewards, self.advantages, self.logp_current, self.logp_old, self.logp_ref)
        if any(a.shape != (self.size,) for a in arrays):
            raise ValueError("group arrays must be flat with one entry per response")

    @property
    def size(self) -> int:
        return len(self.actions)


def normalize_advantages(rewards: Sequence[float] | np.ndarray, std_floor: float = 1e-8) -> np.ndarray:
    """Group-relative advantages: (r - mean(r)) / population_std(r).

    Groups whose reward spread falls below ``std_floor`` carry no learning
    signal and get all-zero advantages.
    """
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError("need a flat group of at least 2 rewards")
    if not np.isfinite(r).all():
        raise ValueError("rewards must be finite")
    # np.mean and np.std run these same ufunc reductions in this order, so
    # calling them directly keeps every bit and skips the wrappers' cost.
    n = len(r)
    d = r - np.add.reduce(r) / n
    std = math.sqrt(np.add.reduce(d * d) / n)
    if std < std_floor:
        return np.zeros_like(r)
    return d / std


def kl_estimate(logp_current: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """Per-response k3 estimator: rho - log(rho) - 1 with rho = exp(ref - current).

    Non-negative everywhere and exactly zero iff the log-probs agree.
    """
    cur = np.asarray(logp_current, dtype=float)
    ref = np.asarray(logp_ref, dtype=float)
    if cur.shape != ref.shape:
        raise ValueError("log-prob arrays must have equal length")
    if not (np.isfinite(cur).all() and np.isfinite(ref).all()):
        raise ValueError("log-probs must be finite")
    log_rho = ref - cur
    return np.expm1(log_rho) - log_rho


def _clip_ratio(rho: np.ndarray, cfg: GrpoConfig) -> np.ndarray:
    # Equal to np.clip bit for bit (and NaN-propagating like it), minus its dispatch.
    return np.minimum(np.maximum(rho, 1.0 - cfg.clip_epsilon), 1.0 + cfg.clip_epsilon)


def surrogate_objective(group: RolloutGroup, cfg: GrpoConfig) -> float:
    """The clipped grouped objective with KL penalty, averaged over the group."""
    rho = np.exp(group.logp_current - group.logp_old)
    adv = group.advantages
    clipped = _clip_ratio(rho, cfg) * adv
    penalty = cfg.kl_coefficient * kl_estimate(group.logp_current, group.logp_ref)
    return float(np.add.reduce(np.minimum(rho * adv, clipped) - penalty) / group.size)


def objective_gradient(group: RolloutGroup, cfg: GrpoConfig, grads: np.ndarray) -> np.ndarray:
    """Exact gradient of the surrogate w.r.t. the policy's current parameters.

    ``grads`` is ``log_prob_gradients`` of the group's episode, shape (A, P),
    taken at the parameters ``logp_current`` was computed with. ``logp_old``
    and ``logp_ref`` are constants; the clip's piecewise structure is
    respected (responses on the flat clipped branch contribute no ratio
    gradient).
    """
    rho = np.exp(group.logp_current - group.logp_old)
    adv = group.advantages
    # min() takes the unclipped branch on ties, so equality goes there too.
    active = rho * adv <= _clip_ratio(rho, cfg) * adv
    dmin_dlc = np.where(active, adv * rho, 0.0)
    dkl_dlc = 1.0 - np.exp(group.logp_ref - group.logp_current)
    coeff = (dmin_dlc - cfg.kl_coefficient * dkl_dlc) / group.size
    # A sum over axis 0 adds the responses in order, so the result equals a
    # running per-response sum bit for bit.
    return (coeff[:, None] * grads[group.actions]).sum(axis=0)


# ---------------------------------------------------------------------------
# Desk-scale differentiable policy
# ---------------------------------------------------------------------------


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits)
    return shifted - math.log(np.add.reduce(np.exp(shifted)))


class ToySoftmaxPolicy:
    """Bilinear softmax policy over episode candidates.

    Selection episodes score each candidate k as u·W·v_k / tau and sample from
    the softmax; judgment episodes use the symmetric two-way softmax over
    [s, -s] with s = u·W·v / tau (action 0 = Yes, action 1 = No). W starts
    at zero; ``set_parameters`` sets it.
    ``render_action`` wraps an action in the two-tag transcript the reward
    parser expects.
    """

    def __init__(self, vectors: SyntheticWorld, dim: int, temperature: float = 2.5) -> None:
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        self._vectors = vectors
        self.dim = dim
        self.temperature = temperature
        self.W = np.zeros((dim, dim))
        # The last episode and its (u, v): a training step asks for the same
        # episode's vectors three times. Vectors only, never weights.
        self._last: tuple[Episode, np.ndarray, np.ndarray] | None = None

    def _episode_vectors(self, episode: Episode) -> tuple[np.ndarray, np.ndarray]:
        last = self._last
        if last is not None and last[0] is episode:
            return last[1], last[2]
        u = self._vectors.user_vector(episode.user)
        if isinstance(episode.task, Selection):
            v = np.stack(
                [self._vectors.item_vector(i) for i in episode.task.candidates.presentation_order]
            )
        elif isinstance(episode.task, Judgment):
            v = self._vectors.item_vector(episode.task.item)[None, :]
        else:
            raise TypeError(f"unknown task kind: {episode.task!r}")
        self._last = (episode, u, v)
        return u, v

    def _logits(self, episode: Episode, u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> np.ndarray:
        scores = (v @ (weights.T @ u)) / self.temperature
        if isinstance(episode.task, Judgment):
            return np.array([scores[0], -scores[0]])
        return scores

    def parameters(self) -> np.ndarray:
        return self.W.ravel().copy()

    def set_parameters(self, theta: np.ndarray) -> None:
        self.W = np.array(theta, dtype=float).reshape(self.dim, self.dim)

    def log_probs(self, episode: Episode, theta: np.ndarray | None = None) -> np.ndarray:
        """Log-probabilities of every action, shape (A,), under ``theta`` (default: current)."""
        weights = self.W if theta is None else np.asarray(theta, dtype=float).reshape(self.dim, self.dim)
        return _log_softmax(self._logits(episode, *self._episode_vectors(episode), weights))

    def log_prob_gradients(self, episode: Episode) -> np.ndarray:
        """Gradient of every action's log-probability at the current weights, shape (A, dim*dim)."""
        u, v = self._episode_vectors(episode)
        probs = np.exp(_log_softmax(self._logits(episode, u, v, self.W)))
        if isinstance(episode.task, Judgment):
            # logits are [s, -s]; d(logit_k)/ds = +1 / -1.
            dlogp_ds = np.array([1.0, -1.0]) - (probs[0] - probs[1])
            return dlogp_ds[:, None] * np.outer(u, v[0]).ravel() / self.temperature
        # d log p_k / dW = outer(u, v_k - E_p[v]) / tau
        score = v - probs @ v
        return (u[None, :, None] * score[:, None, :]).reshape(len(score), -1) / self.temperature


def render_action(episode: Episode, action: int) -> str:
    """The two-tag transcript of one action, in the form the reward parser accepts."""
    if isinstance(episode.task, Judgment):
        answer = "Yes" if action == 0 else "No"
        status = f"weighing whether user {episode.user} would enjoy this video"
    else:
        answer = str(action + 1)
        status = f"weighing {episode.task.candidates.size} candidates for user {episode.user}"
    return render_reply(status, answer)


def truth_token(episode: Episode) -> int:
    """The action index that matches the episode's ground truth."""
    if isinstance(episode.task, Selection):
        return int(episode.truth) - 1
    return 0 if episode.truth == "like" else 1


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def curriculum_switch_iteration(iterations: int, fraction: float) -> int:
    """First iteration at which mixed tasks replace judgment-only training."""
    if not 0.0 <= fraction <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"curriculum_fraction must lie in [0, 1], got {fraction!r}")
    return int(math.ceil(iterations * fraction))


def train(
    source: SyntheticEpisodeSource,
    policy: ToySoftmaxPolicy,
    cfg: GrpoConfig,
    iterations: int,
    seed: int,
    task: str = "selection",
    curriculum_fraction: float = 0.5,
    trace_path: str | Path | None = None,
    progress: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Run grouped policy-gradient training and return the per-iteration trace.

    Each iteration draws one episode, samples G actions from the current
    policy, scores them with the task rewards, normalizes advantages, and
    takes one surrogate-ascent step. The reference policy is the parameters
    at entry. ``task`` is "judgment", "selection", or "mixed"; mixed runs
    judgment-only for the first ``curriculum_fraction`` of iterations, then
    interleaves both kinds uniformly. ``trace_path`` starts fresh, and each row
    is appended to it before ``progress`` sees it, so a crash keeps the rows
    of finished iterations. Bit-identical traces for identical seeds.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if task not in ("judgment", "selection", "mixed"):
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    reference = policy.parameters()
    switch = curriculum_switch_iteration(iterations, curriculum_fraction)
    trace: list[dict] = []
    if trace_path is not None:
        Path(trace_path).unlink(missing_ok=True)  # a trace starts fresh
    with JsonlAppender(trace_path) if trace_path is not None else nullcontext() as trace_file:
        for it in range(iterations):
            if task == "mixed":
                if it < switch:
                    kind = "judgment"
                else:
                    kind = "judgment" if rng.integers(2) == 0 else "selection"
            else:
                kind = task
            episode = source.sample(rng, kind)
            truth = episode.truth

            logp = policy.log_probs(episode)
            # One draw for the group reads the same stream as G single draws.
            actions = rng.choice(len(logp), size=cfg.group_size, p=np.exp(logp))
            # Python ints: str() of a numpy integer is several times slower.
            rewards = np.array(
                [total_reward(render_action(episode, a), episode.task, truth).total for a in actions.tolist()]
            )
            logp_sampled = logp[actions]
            group = RolloutGroup(
                actions=actions,
                rewards=rewards,
                advantages=normalize_advantages(rewards, cfg.std_floor),
                logp_current=logp_sampled,
                logp_old=logp_sampled,
                logp_ref=policy.log_probs(episode, reference)[actions],
            )
            objective = surrogate_objective(group, cfg)
            gradient = objective_gradient(group, cfg, policy.log_prob_gradients(episode))
            policy.set_parameters(policy.parameters() + cfg.learning_rate * gradient)

            entry = {
                "iter": it,
                "mean_reward": float(np.add.reduce(rewards) / cfg.group_size),
                "accuracy": int(np.count_nonzero(actions == truth_token(episode))) / cfg.group_size,
                "objective": objective,
                "task": kind,
            }
            trace.append(entry)
            if trace_file is not None:
                trace_file.append(entry)
            if progress is not None:
                progress(entry)
    return trace


def evaluate_policy(policy: ToySoftmaxPolicy, episodes: Sequence[Episode]) -> float:
    """Greedy-action accuracy of a policy over held-out episodes."""
    if not episodes:
        raise ValueError("need at least one evaluation episode")
    correct = sum(int(np.argmax(policy.log_probs(ep)) == truth_token(ep)) for ep in episodes)
    return correct / len(episodes)
