"""Reference paths the gates compare simrec's outputs against.

``grpo_trace`` recomputes the selection-task training trace of the toy
bilinear softmax policy from its definition, one group at a time, without
calling ``simrec.grpo``. It draws from the random stream in the same order as
``simrec.grpo.train`` (episode, then G actions), so a batched rewrite of the
training step must reproduce it exactly. ``direct_rank`` is the per-user
leave-one-out rank read off the full ``top_k`` list, and ``hr_ndcg`` builds
HR@k and NDCG@k from their definitions, without ``simrec.recommender``.
"""

from __future__ import annotations

import math

import numpy as np

# Score tables from simrec.rewards: a well-formed transcript scores 1, a correct
# selection +2, a wrong one -1.5. The toy policy always emits a well-formed
# transcript naming one candidate.
FORMAT_OK = 1.0
SELECT_HIT = 2.0
SELECT_MISS = -1.5


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    return shifted - math.log(float(np.sum(np.exp(shifted))))


def grpo_trace(world, source, cfg, iterations: int, seed: int, dim: int, temperature: float) -> list[dict]:
    """Trace of ``train(task="selection")`` for ``ToySoftmaxPolicy`` at zero weights.

    Sampling and the old policy coincide within an iteration, so every ratio
    is exactly 1 and the clip never binds; the objective reduces to the mean
    advantage minus the k3 penalty, and its gradient to the advantage-weighted
    score function minus the penalty's gradient.
    """
    g = cfg.group_size
    rng = np.random.default_rng(seed)
    weights = np.zeros((dim, dim))
    reference = weights.copy()
    trace = []
    for it in range(iterations):
        episode = source.sample(rng, "selection")
        u = world.user_vector(episode.user)
        v = np.stack([world.item_vector(i) for i in episode.task.candidates.presentation_order])
        logp = _log_softmax((v @ (weights.T @ u)) / temperature)
        logp_ref = _log_softmax((v @ (reference.T @ u)) / temperature)
        probs = np.exp(logp)
        actions = rng.choice(len(probs), size=g, p=probs)
        hits = actions == int(episode.truth) - 1
        rewards = np.where(hits, FORMAT_OK + SELECT_HIT, FORMAT_OK + SELECT_MISS)
        std = float(np.std(rewards))
        adv = np.zeros(g) if std < cfg.std_floor else (rewards - np.mean(rewards)) / std
        log_rho_ref = logp_ref[actions] - logp[actions]
        k3 = np.expm1(log_rho_ref) - log_rho_ref
        coeff = (adv - cfg.kl_coefficient * (1.0 - np.exp(log_rho_ref))) / g
        score = v[actions] - probs @ v
        weights = weights + cfg.learning_rate * np.outer(u, coeff @ score) / temperature
        trace.append(
            {
                "iter": it,
                "mean_reward": float(np.mean(rewards)),
                "accuracy": int(hits.sum()) / g,
                "objective": float(np.mean(adv - cfg.kl_coefficient * k3)),
                "task": "selection",
            }
        )
    return trace


def direct_rank(generator, history) -> int | None:
    """1-based rank of the held-out item in ``top_k(training_view, None)``."""
    ranked = generator.top_k(history.training_view(), None)
    target = history.target().item
    return ranked.index(target) + 1 if target in ranked else None


def hr_ndcg(ranks: list[int | None], ks, slice_tag: str) -> dict:
    """HR@k and NDCG@k of 1-based held-out ranks, shaped like ``MetricReport.to_dict``.

    HR@k is the share of users ranked at or below k; NDCG@k is the mean over
    users of 1/log2(rank + 1) for ranks at or below k and 0 otherwise (one
    relevant item, so the ideal DCG is 1). An unranked target counts as a miss.
    """
    n = len(ranks)
    hits = {k: [r for r in ranks if r is not None and r <= k] for k in ks}
    return {
        "slice": slice_tag,
        "n_users": n,
        "hr": {str(k): len(hits[k]) / n if n else 0.0 for k in sorted(ks)},
        "ndcg": {str(k): math.fsum(1.0 / math.log2(r + 1) for r in hits[k]) / n if n else 0.0 for k in sorted(ks)},
    }
