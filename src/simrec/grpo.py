"""Group-relative policy optimization on grouped, reward-scored rollouts.

One training step samples a group of G responses for a single episode, scores
them with the verifiable rewards, normalizes rewards into advantages within
the group (no critic), and ascends the clipped surrogate

    (1/G) sum_i (1/|o_i|) sum_t min[rho_it * A_i, clip(rho_it, 1-eps, 1+eps) * A_i]
                                  - beta * k3(logp_cur_it, logp_ref_it)

where rho = exp(logp_current - logp_old) and k3 is the non-negative
low-variance KL estimator rho_ref - log(rho_ref) - 1. Episodes are
single-step, so the terminal reward's advantage is broadcast to every token.

``ToySoftmaxPolicy`` is a desk-scale differentiable policy (a bilinear form
over user/item vectors) that exercises the full objective, including an exact
analytic gradient checked against finite differences.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .core import ItemId, Judgment, Selection, UserId
from .env import Episode
from .rewards import total_reward


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


class Policy(ABC):
    """A seed-reproducible sampling policy with finite log-probabilities."""

    @abstractmethod
    def sample_response(
        self, episode: Episode, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample one response: (token sequence, per-token log-probabilities)."""

    @abstractmethod
    def log_probs(self, episode: Episode, tokens: np.ndarray, which: str = "current") -> np.ndarray:
        """Per-token log-probabilities under the current/old/reference parameters."""

    @abstractmethod
    def parameters(self) -> np.ndarray:
        """Flat copy of the current parameter vector."""

    @abstractmethod
    def apply_gradient(self, delta: np.ndarray) -> None:
        """Add a pre-scaled update to the parameters (ascent direction)."""

    @abstractmethod
    def snapshot_old(self) -> None:
        """Freeze the current parameters as the sampling ("old") policy."""

    @abstractmethod
    def freeze_reference(self) -> None:
        """Freeze the current parameters as the KL reference policy."""

    @abstractmethod
    def render(self, episode: Episode, tokens: np.ndarray) -> str:
        """Render sampled tokens into a transcript the reward parser accepts."""

    @abstractmethod
    def greedy_action(self, episode: Episode) -> int:
        """Most likely action under the current parameters."""

    def log_prob_gradients(
        self, episode: Episode, tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-token log-probs and their exact parameter gradients.

        Returns (logp with shape (T,), gradients with shape (T, P)). Policies
        without differentiable log-probabilities leave this unimplemented.
        """
        raise NotImplementedError("policy does not expose differentiable log-probabilities")


@dataclass
class RolloutGroup:
    """G scored responses for one episode with per-token log-prob arrays."""

    episode: Episode | None
    responses: list[np.ndarray]
    rewards: np.ndarray
    advantages: np.ndarray
    logp_current: list[np.ndarray]
    logp_old: list[np.ndarray]
    logp_ref: list[np.ndarray]

    def __post_init__(self) -> None:
        g = len(self.responses)
        if not (
            len(self.rewards) == len(self.advantages) == g
            and len(self.logp_current) == len(self.logp_old) == len(self.logp_ref) == g
        ):
            raise ValueError("group arrays must have one entry per response")
        for i in range(g):
            t = len(self.responses[i])
            if not len(self.logp_current[i]) == len(self.logp_old[i]) == len(self.logp_ref[i]) == t:
                raise ValueError(f"response {i}: log-prob arrays must match the token count")

    @property
    def size(self) -> int:
        return len(self.responses)


def normalize_advantages(rewards: Sequence[float] | np.ndarray, std_floor: float = 1e-8) -> np.ndarray:
    """Group-relative advantages: (r - mean(r)) / population_std(r).

    Groups whose reward spread falls below ``std_floor`` carry no learning
    signal and get all-zero advantages.
    """
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError("need a flat group of at least 2 rewards")
    if not np.all(np.isfinite(r)):
        raise ValueError("rewards must be finite")
    std = float(np.std(r))
    if std < std_floor:
        return np.zeros_like(r)
    return (r - np.mean(r)) / std


def kl_estimate(logp_current: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """Per-token k3 estimator: rho - log(rho) - 1 with rho = exp(ref - current).

    Non-negative everywhere and exactly zero iff the log-probs agree.
    """
    cur = np.asarray(logp_current, dtype=float)
    ref = np.asarray(logp_ref, dtype=float)
    if cur.shape != ref.shape:
        raise ValueError("log-prob arrays must have equal length")
    if not (np.all(np.isfinite(cur)) and np.all(np.isfinite(ref))):
        raise ValueError("log-probs must be finite")
    log_rho = ref - cur
    return np.expm1(log_rho) - log_rho


def surrogate_objective(group: RolloutGroup, cfg: GrpoConfig) -> float:
    """The clipped grouped objective with KL penalty, averaged over the group."""
    total = 0.0
    lo_clip = 1.0 - cfg.clip_epsilon
    hi_clip = 1.0 + cfg.clip_epsilon
    for i in range(group.size):
        if len(group.responses[i]) == 0:
            raise ValueError(f"response {i} is empty")
        lc = np.asarray(group.logp_current[i], dtype=float)
        lo = np.asarray(group.logp_old[i], dtype=float)
        lr = np.asarray(group.logp_ref[i], dtype=float)
        rho = np.exp(lc - lo)
        adv = float(group.advantages[i])
        unclipped = rho * adv
        clipped = np.clip(rho, lo_clip, hi_clip) * adv
        penalty = cfg.kl_coefficient * kl_estimate(lc, lr)
        total += float(np.mean(np.minimum(unclipped, clipped) - penalty))
    return total / group.size


def objective_gradient(group: RolloutGroup, cfg: GrpoConfig, policy: Policy) -> np.ndarray:
    """Exact gradient of the surrogate w.r.t. the policy's current parameters.

    ``logp_old`` and ``logp_ref`` are constants; the clip's piecewise structure
    is respected (tokens on the flat clipped branch contribute no ratio
    gradient). Raises NotImplementedError for non-differentiable policies.
    """
    grad = np.zeros_like(policy.parameters())
    lo_clip = 1.0 - cfg.clip_epsilon
    hi_clip = 1.0 + cfg.clip_epsilon
    for i in range(group.size):
        tokens = group.responses[i]
        if len(tokens) == 0:
            raise ValueError(f"response {i} is empty")
        lc, grads = policy.log_prob_gradients(group.episode, tokens)
        lo = np.asarray(group.logp_old[i], dtype=float)
        lr = np.asarray(group.logp_ref[i], dtype=float)
        rho = np.exp(lc - lo)
        adv = float(group.advantages[i])
        # min() takes the unclipped branch on ties, so equality goes there too.
        active = rho * adv <= np.clip(rho, lo_clip, hi_clip) * adv
        dmin_dlc = np.where(active, adv * rho, 0.0)
        dkl_dlc = 1.0 - np.exp(lr - lc)
        coeff = (dmin_dlc - cfg.kl_coefficient * dkl_dlc) / (group.size * len(tokens))
        grad += coeff @ grads
    return grad


# ---------------------------------------------------------------------------
# Desk-scale differentiable policy
# ---------------------------------------------------------------------------


class VectorLookup(Protocol):
    def user_vector(self, user: UserId) -> np.ndarray: ...
    def item_vector(self, item: ItemId) -> np.ndarray: ...


class ToySoftmaxPolicy(Policy):
    """Bilinear softmax policy over episode candidates.

    Selection episodes score each candidate k as u·W·v_k / tau and sample from
    the softmax; judgment episodes use the symmetric two-way softmax over
    [s, -s] with s = u·W·v / tau (token 0 = Yes, token 1 = No). Responses are
    single-token; ``render`` wraps the chosen action in the two-tag transcript
    the reward parser expects.
    """

    def __init__(
        self,
        vectors: VectorLookup,
        dim: int,
        temperature: float = 2.5,
        weights: np.ndarray | None = None,
    ) -> None:
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        self._vectors = vectors
        self.dim = dim
        self.temperature = temperature
        self.W = np.zeros((dim, dim)) if weights is None else np.array(weights, dtype=float)
        if self.W.shape != (dim, dim):
            raise ValueError(f"weights must have shape ({dim}, {dim})")
        self._W_old = self.W.copy()
        self._W_ref = self.W.copy()

    # -- distribution -------------------------------------------------------

    def _episode_vectors(self, episode: Episode) -> tuple[np.ndarray, np.ndarray]:
        u = self._vectors.user_vector(episode.user)
        if isinstance(episode.task, Selection):
            v = np.stack(
                [self._vectors.item_vector(i) for i in episode.task.candidates.presentation_order]
            )
        elif isinstance(episode.task, Judgment):
            v = self._vectors.item_vector(episode.task.item)[None, :]
        else:
            raise TypeError(f"unknown task kind: {episode.task!r}")
        return u, v

    def _logits(self, episode: Episode, weights: np.ndarray) -> np.ndarray:
        u, v = self._episode_vectors(episode)
        scores = (v @ (weights.T @ u)) / self.temperature
        if isinstance(episode.task, Judgment):
            return np.array([scores[0], -scores[0]])
        return scores

    def _log_softmax(self, logits: np.ndarray) -> np.ndarray:
        shifted = logits - np.max(logits)
        return shifted - math.log(float(np.sum(np.exp(shifted))))

    def action_probabilities(self, episode: Episode, which: str = "current") -> np.ndarray:
        return np.exp(self._log_softmax(self._logits(episode, self._weights_for(which))))

    def _weights_for(self, which: str) -> np.ndarray:
        if which == "current":
            return self.W
        if which == "old":
            return self._W_old
        if which == "reference":
            return self._W_ref
        raise ValueError(f"unknown parameter set {which!r}")

    # -- Policy interface ----------------------------------------------------

    def sample_response(
        self, episode: Episode, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        logp = self._log_softmax(self._logits(episode, self.W))
        action = int(rng.choice(len(logp), p=np.exp(logp)))
        return np.array([action]), np.array([logp[action]])

    def log_probs(self, episode: Episode, tokens: np.ndarray, which: str = "current") -> np.ndarray:
        logp = self._log_softmax(self._logits(episode, self._weights_for(which)))
        return np.array([logp[int(t)] for t in tokens])

    def log_prob_gradients(
        self, episode: Episode, tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        u, v = self._episode_vectors(episode)
        logp = self._log_softmax(self._logits(episode, self.W))
        probs = np.exp(logp)
        out_logp = np.empty(len(tokens))
        out_grads = np.empty((len(tokens), self.W.size))
        for row, token in enumerate(int(t) for t in tokens):
            out_logp[row] = logp[token]
            if isinstance(episode.task, Judgment):
                # logits are [s, -s]; d(logit_k)/ds = +1 / -1.
                sign = 1.0 if token == 0 else -1.0
                dlogp_ds = sign - (probs[0] - probs[1])
                out_grads[row] = (dlogp_ds * np.outer(u, v[0]) / self.temperature).ravel()
            else:
                expected_v = probs @ v
                out_grads[row] = (np.outer(u, v[token] - expected_v) / self.temperature).ravel()
        return out_logp, out_grads

    def parameters(self) -> np.ndarray:
        return self.W.ravel().copy()

    def set_parameters(self, theta: np.ndarray) -> None:
        self.W = np.array(theta, dtype=float).reshape(self.dim, self.dim)

    def apply_gradient(self, delta: np.ndarray) -> None:
        self.W = self.W + np.asarray(delta, dtype=float).reshape(self.dim, self.dim)

    def snapshot_old(self) -> None:
        self._W_old = self.W.copy()

    def freeze_reference(self) -> None:
        self._W_ref = self.W.copy()

    def greedy_action(self, episode: Episode) -> int:
        return int(np.argmax(self._logits(episode, self.W)))

    def render(self, episode: Episode, tokens: np.ndarray) -> str:
        action = int(tokens[0])
        if isinstance(episode.task, Judgment):
            answer = "Yes" if action == 0 else "No"
            status = f"weighing whether user {episode.user} would enjoy this video"
        else:
            answer = str(action + 1)
            status = (
                f"weighing {episode.task.candidates.size} candidates for user {episode.user}"
            )
        return (
            f"<think>(1) User_status: {status}</think>"
            f"<answer>(2) Next_video: {answer}</answer>"
        )


def truth_token(episode: Episode) -> int:
    """The sampled-token index that matches the episode's ground truth."""
    if isinstance(episode.task, Selection):
        return int(episode.truth) - 1
    return 0 if episode.truth == "like" else 1


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


class EpisodeSource(Protocol):
    def sample(self, rng: np.random.Generator, kind: str) -> Episode: ...


def curriculum_switch_iteration(iterations: int, fraction: float) -> int:
    """First iteration at which mixed tasks replace judgment-only training."""
    return int(math.ceil(iterations * fraction))


def train(
    source: EpisodeSource,
    policy: Policy,
    cfg: GrpoConfig,
    iterations: int,
    seed: int,
    task: str = "selection",
    curriculum_fraction: float = 0.5,
    trace_path: str | Path | None = None,
    progress: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Run grouped policy-gradient training and return the per-iteration trace.

    Each iteration draws one episode, snapshots the old policy, samples G
    responses, scores them with the task rewards, normalizes advantages, and
    takes one surrogate-ascent step. The reference policy is frozen at entry.
    ``task`` is "judgment", "selection", or "mixed"; mixed runs judgment-only
    for the first ``curriculum_fraction`` of iterations, then interleaves both
    kinds uniformly. Bit-identical traces for identical seeds.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if task not in ("judgment", "selection", "mixed"):
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    policy.freeze_reference()
    switch = curriculum_switch_iteration(iterations, curriculum_fraction)
    trace: list[dict] = []
    for it in range(iterations):
        if task == "mixed":
            if it < switch:
                kind = "judgment"
            else:
                kind = "judgment" if rng.integers(2) == 0 else "selection"
        else:
            kind = task
        episode = source.sample(rng, kind)
        policy.snapshot_old()

        responses: list[np.ndarray] = []
        logp_cur: list[np.ndarray] = []
        rewards = np.empty(cfg.group_size)
        correct = 0
        want = truth_token(episode)
        for i in range(cfg.group_size):
            tokens, logp = policy.sample_response(episode, rng)
            responses.append(tokens)
            logp_cur.append(logp)
            rewards[i] = total_reward(policy.render(episode, tokens), episode.task, episode.truth).total
            correct += int(tokens[0] == want)

        group = RolloutGroup(
            episode=episode,
            responses=responses,
            rewards=rewards,
            advantages=normalize_advantages(rewards, cfg.std_floor),
            logp_current=logp_cur,
            logp_old=[policy.log_probs(episode, t, "old") for t in responses],
            logp_ref=[policy.log_probs(episode, t, "reference") for t in responses],
        )
        objective = surrogate_objective(group, cfg)
        gradient = objective_gradient(group, cfg, policy)
        policy.apply_gradient(cfg.learning_rate * gradient)

        entry = {
            "iter": it,
            "mean_reward": float(np.mean(rewards)),
            "accuracy": correct / cfg.group_size,
            "objective": float(objective),
            "task": kind,
        }
        trace.append(entry)
        if progress is not None:
            progress(entry)

    if trace_path is not None:
        with Path(trace_path).open("w", encoding="utf-8") as handle:
            for entry in trace:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return trace


def evaluate_policy(policy: Policy, episodes: Sequence[Episode]) -> float:
    """Greedy-action accuracy of a policy over held-out episodes."""
    if not episodes:
        raise ValueError("need at least one evaluation episode")
    correct = sum(int(policy.greedy_action(ep) == truth_token(ep)) for ep in episodes)
    return correct / len(episodes)
