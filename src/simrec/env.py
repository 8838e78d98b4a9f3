"""Simulated recommendation environment.

Builds candidate sets from a recommender's top-k list, renders judgment and
selection episodes as chat prompts, and provides a synthetic world with
vector-oracle users for desk-scale policy training. Episode generation is
pure given (inputs, seed): the same history, task kind, and seed always
produce byte-identical prompts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from .core import (
    BehaviorRecord,
    CandidateSet,
    Item,
    ItemId,
    Judgment,
    Selection,
    TaskKind,
    UserHistory,
    UserId,
    iter_jsonl,
    write_jsonl,
)

# Shared response-format instructions; each task's header substitutes its goal once.
_PREAMBLE = (
    "You are a helpful assistant. The assistant first thinks about the user's video "
    "watching history and the comments, analyzes their current status, such as "
    "preferences and purpose, and predicts: {goal}. The reasoning process and answer "
    "are enclosed within <think> </think> and <answer> </answer> tags, respectively, "
    "i.e., <think> reasoning process here </think><answer> answer here </answer>. "
    "After thinking, when you finally reach a conclusion, give the user status and "
    "the answer you predict within <answer> </answer> tags. i.e., "
    "<think> (1) User_status:... </think><answer>(2) Next_video:...  </answer>."
)
_SELECTION_HEADER = _PREAMBLE.format(goal="which video they are most likely to watch next from the given candidates")
_JUDGMENT_HEADER = _PREAMBLE.format(goal="if they like the next video")


class CandidateSource(Protocol):
    """Anything that can propose a ranked top-k list for a history."""

    def top_k(self, history: UserHistory, k: int | None) -> list[ItemId]: ...


@dataclass(frozen=True)
class EnvConfig:
    """Environment knobs: recall depth, negative count, and the root seed."""

    top_k: int = 10
    m: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.top_k:
            raise ValueError(f"need 1 <= m <= top_k, got m={self.m}, top_k={self.top_k}")


@dataclass(frozen=True)
class Episode:
    """One fully rendered task instance for a user.

    ``truth`` is derived from the task, never stored: a judgment's label, or
    the positive's 1-based position in a selection's presentation order.
    """

    user: UserId
    profile_text: str
    task: TaskKind
    prompt: str

    @property
    def truth(self) -> str | int:
        if isinstance(self.task, Judgment):
            return self.task.label
        return self.task.candidates.truth_index()


def derive_seed(root: int, *parts: object) -> int:
    """Stable 63-bit sub-seed from a root seed and any labels (hash-based)."""
    digest = hashlib.sha256(repr((root, *parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build_candidate_set(top10: Sequence[ItemId], positive: ItemId, m: int, seed: int) -> CandidateSet:
    """Sample m negatives from ``top10`` (minus the positive) and shuffle.

    Negatives are drawn uniformly without replacement; the presentation order
    is a seeded uniform shuffle of the m+1 candidates, so the positive's
    position is uniform. Fully reconstructible from the same inputs and seed.
    """
    eligible = [i for i in top10 if i != positive]
    if len(set(eligible)) != len(eligible):
        raise ValueError("top-k list must contain distinct items")
    if len(eligible) < m:
        raise ValueError(
            f"need {m} distinct negatives but only {len(eligible)} eligible items"
        )
    rng = np.random.default_rng(seed)
    negatives = tuple(eligible[i] for i in rng.choice(len(eligible), size=m, replace=False))
    pool = (positive, *negatives)
    order = tuple(pool[i] for i in rng.permutation(len(pool)))
    return CandidateSet(
        positive=positive, negatives=negatives, presentation_order=order, rng_seed=seed
    )


def _display(catalog: dict[ItemId, Item], item_id: ItemId) -> str:
    item = catalog.get(item_id)
    if item is None:
        raise ValueError(f"unknown item {item_id!r}")
    return item.display_text()


def render_history(catalog: dict[ItemId, Item], behaviors: Sequence[BehaviorRecord]) -> str:
    """Numbered history lines with comments appended when present."""
    lines = []
    for pos, record in enumerate(behaviors, start=1):
        line = f"{pos}. {_display(catalog, record.item)}"
        if record.comment:
            line += f' (comment: "{record.comment}")'
        lines.append(line)
    return "\n".join(lines)


def render_candidates(catalog: dict[ItemId, Item], candidates: CandidateSet) -> tuple[str, ...]:
    return tuple(_display(catalog, item) for item in candidates.presentation_order)


def selection_prompt(history_str: str, captions: Sequence[str]) -> str:
    candidates_str = "\n".join(f"{pos}. {text}" for pos, text in enumerate(captions, start=1))
    return (
        _SELECTION_HEADER
        + f"\nUser's viewing history: {history_str}"
        + f"\nCandidate videos for the next watch: {candidates_str}"
    )


def judgment_prompt(history_str: str, item_str: str) -> str:
    return (
        _JUDGMENT_HEADER
        + f"\nUser's viewing history: {history_str}"
        + f"\nCandidate video for the next watch: {item_str}"
        + "\nWould the user like to watch it? Answer Yes or No."
    )


def _selection(catalog: dict[ItemId, Item], candidates: CandidateSet) -> Selection:
    return Selection(candidates=candidates, captions=render_candidates(catalog, candidates))


def _episode(user: UserId, profile_text: str, task: TaskKind, catalog: dict[ItemId, Item]) -> Episode:
    """Render the task's prompt; the one place an episode is built from parts."""
    if isinstance(task, Selection):
        prompt = selection_prompt(profile_text, task.captions)
    else:
        prompt = judgment_prompt(profile_text, _display(catalog, task.item))
    return Episode(user=user, profile_text=profile_text, task=task, prompt=prompt)


def make_episode(
    history: UserHistory,
    catalog: dict[ItemId, Item],
    kind: str,
    cfg: EnvConfig,
    candidate_generator: CandidateSource | None = None,
) -> Episode:
    """Build one episode from a real history.

    The profile uses behaviors 1..N-1 and the N-th behavior is the prediction
    target. Selection episodes need ``candidate_generator`` for the top-k
    recall list. Judgment episodes judge the target item, with truth "like".
    """
    if len(history) < 2:
        raise ValueError(f"user {history.user!r}: episodes need at least 2 behaviors")
    view = history.training_view()
    profile_text = render_history(catalog, view.behaviors)
    target = history.target()

    task: TaskKind
    if kind == "selection":
        if candidate_generator is None:
            raise ValueError("selection episodes require a candidate generator")
        top = candidate_generator.top_k(view, cfg.top_k)
        ep_seed = derive_seed(cfg.seed, history.user, kind)
        task = _selection(catalog, build_candidate_set(top, target.item, cfg.m, ep_seed))
    elif kind == "judgment":
        task = Judgment(item=target.item, label="like")
    else:
        raise ValueError(f"unknown episode kind {kind!r}")
    return _episode(history.user, profile_text, task, catalog)


def make_judgment_pair(
    history: UserHistory,
    catalog: dict[ItemId, Item],
    cfg: EnvConfig,
    candidate_generator: CandidateSource,
) -> tuple[Episode, Episode]:
    """One balanced like/dislike episode pair for a user.

    The positive is the true target item; the negative is sampled from the
    recommender's top-k minus the target, mirroring the selection sampler.
    """
    like = make_episode(history, catalog, "judgment", cfg)
    top = candidate_generator.top_k(history.training_view(), cfg.top_k)
    pool = [i for i in top if i != history.target().item]
    if not pool:
        raise ValueError(f"user {history.user!r}: no negative candidates available")
    rng = np.random.default_rng(derive_seed(cfg.seed, history.user, "judgment-negative"))
    negative = pool[int(rng.integers(len(pool)))]
    dislike = _episode(history.user, like.profile_text, Judgment(negative, "dislike"), catalog)
    return like, dislike


# ---------------------------------------------------------------------------
# Synthetic world
# ---------------------------------------------------------------------------


def pool_scores(item_vectors: np.ndarray, item_rows: Sequence[int], user_vector: np.ndarray) -> np.ndarray:
    """Dot products of one user vector with the listed item rows.

    Equal bit for bit to ``[float(user_vector @ item_vectors[j]) for j in item_rows]``:
    ``np.vecdot``'s float64 loop is the same dot that a 1-D ``@`` runs, while a
    ``matmul`` or ``einsum`` over the stacked rows differs in the last bit.
    """
    return np.vecdot(item_vectors[item_rows], user_vector)


@dataclass
class SyntheticWorld:
    """Vector-oracle users and items for desk-scale training.

    Users like an item when the dot product of their vectors exceeds the
    threshold; at noise 0 the oracle's next pick from any pool is the unique
    affinity argmax.
    """

    dim: int
    user_ids: tuple[UserId, ...]
    item_ids: tuple[ItemId, ...]
    user_vectors: np.ndarray
    item_vectors: np.ndarray
    like_threshold: float = 0.0
    noise: float = 0.0

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.user_vectors)) or not np.all(
            np.isfinite(self.item_vectors)
        ):
            raise ValueError("world vectors must be finite")
        if not 0 <= self.noise < math.inf:  # also rejects nan
            raise ValueError(f"noise must be a finite number >= 0, got {self.noise!r}")
        self._user_index = {u: i for i, u in enumerate(self.user_ids)}
        self._item_index = {v: i for i, v in enumerate(self.item_ids)}

    def affinity(self, user: UserId, item: ItemId) -> float:
        return float(
            self.user_vectors[self._user_index[user]] @ self.item_vectors[self._item_index[item]]
        )

    def likes(self, user: UserId, item: ItemId) -> bool:
        return self.affinity(user, item) > self.like_threshold

    def oracle_pick(self, user: UserId, pool: Sequence[ItemId], rng: np.random.Generator) -> ItemId:
        """The item the oracle user picks from a pool (argmax affinity + noise)."""
        rows = [self._item_index[item] for item in pool]
        best, _ = self._oracle_choice(self._user_index[user], rows, rng)
        return pool[best]

    def _oracle_choice(
        self, user_row: int, item_rows: Sequence[int], rng: np.random.Generator
    ) -> tuple[int, float]:
        """Position of the oracle's pick among ``item_rows`` and its noiseless affinity."""
        scores = pool_scores(self.item_vectors, item_rows, self.user_vectors[user_row])
        noisy = scores + self.noise * rng.standard_normal(len(scores)) if self.noise > 0 else scores
        best = int(noisy.argmax())
        return best, float(scores[best])

    def user_vector(self, user: UserId) -> np.ndarray:
        return self.user_vectors[self._user_index[user]]

    def item_vector(self, item: ItemId) -> np.ndarray:
        return self.item_vectors[self._item_index[item]]

    def item_matrix(self, items: Sequence[ItemId]) -> np.ndarray:
        """The vectors of ``items``, one row each, in one gather."""
        index = self._item_index
        return self.item_vectors[[index[item] for item in items]]


def generate_synthetic_world(
    n_users: int,
    n_items: int,
    dim: int,
    seed: int,
    history_length: int | tuple[int, int] = 6,
    pool_size: int = 10,
    like_threshold: float = 0.0,
    noise: float = 0.0,
) -> tuple[SyntheticWorld, dict[ItemId, Item], list[UserHistory]]:
    """Sample a world and derive its catalog and oracle-driven histories.

    Each behavior is the oracle's pick from a fresh random pool of unwatched
    items.

    The output is byte-stable for a seed: the random stream is drawn in a fixed
    order (length, then per step the pool and, at noise > 0, the noise), and
    pool scores must equal the per-pair dots ``user_vector @ item_vector``
    exactly (:func:`pool_scores`), never a ``matmul``, whose last bits differ
    and would flip picks and comments.
    """
    for key, value, low in (("n_users", n_users, 2), ("n_items", n_items, 2), ("dim", dim, 1)):
        if value < low:
            raise ValueError(f"{key} must be at least {low}, got {value!r}")
    span = (history_length, history_length) if isinstance(history_length, int) else history_length
    if len(span) != 2 or not 2 <= span[0] <= span[1] <= n_items:
        # a history holds each item at most once, and at least a profile item and a target
        raise ValueError(f"history_length must lie in [2, n_items={n_items}], low <= high; got {history_length!r}")
    if not 1 <= pool_size <= n_items:
        raise ValueError(f"pool_size must lie in [1, n_items={n_items}], got {pool_size!r}")

    rng = np.random.default_rng(seed)
    user_vectors = rng.standard_normal((n_users, dim))
    item_vectors = rng.standard_normal((n_items, dim))
    width = max(3, len(str(n_items - 1)))
    user_ids = tuple(f"u{i:0{width}d}" for i in range(n_users))
    item_ids = tuple(f"v{j:0{width}d}" for j in range(n_items))

    world = SyntheticWorld(
        dim=dim,
        user_ids=user_ids,
        item_ids=item_ids,
        user_vectors=user_vectors,
        item_vectors=item_vectors,
        like_threshold=like_threshold,
        noise=noise,
    )

    catalog = {
        item_id: Item(id=item_id, title=f"clip {item_id}", feature=tuple(map(float, vec)))
        for item_id, vec in zip(item_ids, item_vectors)
    }

    histories: list[UserHistory] = []
    all_rows = list(range(n_items))
    for user_row, user in enumerate(user_ids):
        length = int(rng.integers(span[0], span[1] + 1)) if span[0] != span[1] else span[0]
        behaviors: list[BehaviorRecord] = []
        remaining = all_rows.copy()
        for step in range(length):
            pool_idx = rng.choice(len(remaining), size=min(pool_size, len(remaining)), replace=False)
            pool = [remaining[i] for i in pool_idx]
            best, score = world._oracle_choice(user_row, pool, rng)
            behaviors.append(
                BehaviorRecord(
                    item=item_ids[pool[best]],
                    timestamp=step + 1,
                    comment="loved it" if score > 1.0 else None,
                )
            )
            del remaining[pool_idx[best]]
        histories.append(UserHistory(user=user, behaviors=tuple(behaviors)))
    return world, catalog, histories


class SyntheticEpisodeSource:
    """Draws fresh judgment/selection episodes from a synthetic world.

    Selection episodes sample a fresh pool, let the oracle pick the positive
    from it, and sample negatives from the rest of the pool, so at noise 0 the
    positive is always the affinity argmax among the candidates. Judgment
    episodes draw a balanced like/dislike item by the threshold oracle.

    Each history's profile is rendered once, on the first draw that picks it,
    and reused after, so a profile item missing from the catalog fails the
    draws of that history, not the constructor.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        catalog: dict[ItemId, Item],
        histories: Sequence[UserHistory],
        cfg: EnvConfig,
        pool_size: int = 10,
    ) -> None:
        if not 1 <= pool_size <= len(world.item_ids):
            raise ValueError(f"pool_size must lie in [1, n_items={len(world.item_ids)}], got {pool_size!r}")
        if cfg.m >= pool_size:  # the pool holds the positive, so at most pool_size - 1 negatives
            raise ValueError(f"m must be below pool_size={pool_size}, got {cfg.m}")
        self.world = world
        self.catalog = catalog
        self.cfg = cfg
        self.pool_size = pool_size
        self._histories = tuple(histories)
        self._profiles: dict[int, str] = {}  # history index -> rendered profile

    def sample(self, rng: np.random.Generator, kind: str) -> Episode:
        index = int(rng.integers(len(self._histories)))
        history = self._histories[index]
        user = history.user
        profile_text = self._profiles.get(index)
        if profile_text is None:
            profile_text = render_history(self.catalog, history.training_view().behaviors)
            self._profiles[index] = profile_text
        task: TaskKind
        if kind == "selection":
            task = self._selection_task(user, rng)
        elif kind == "judgment":
            task = self._judgment_task(user, rng)
        else:
            raise ValueError(f"unknown episode kind {kind!r}")
        return _episode(user, profile_text, task, self.catalog)

    def _selection_task(self, user: UserId, rng: np.random.Generator) -> Selection:
        world = self.world
        rows = rng.choice(len(world.item_ids), size=self.pool_size, replace=False).tolist()
        best, _ = world._oracle_choice(world._user_index[user], rows, rng)
        pool = [world.item_ids[row] for row in rows]
        seed = int(rng.integers(2**63 - 1))
        return _selection(self.catalog, build_candidate_set(pool, pool[best], self.cfg.m, seed))

    def _judgment_task(self, user: UserId, rng: np.random.Generator) -> Judgment:
        want_like = bool(rng.integers(2))
        items = self.world.item_ids
        item = None
        for _ in range(256):
            probe = items[int(rng.integers(len(items)))]
            if self.world.likes(user, probe) == want_like:
                item = probe
                break
        if item is None:  # degenerate threshold; fall back to any item
            item = items[int(rng.integers(len(items)))]
            want_like = self.world.likes(user, item)
        return Judgment(item=item, label="like" if want_like else "dislike")


# ---------------------------------------------------------------------------
# Episode export / reload
# ---------------------------------------------------------------------------


def _episode_row(ep: Episode) -> dict:
    row: dict = {"user": ep.user, "profile": ep.profile_text, "prompt": ep.prompt, "truth": ep.truth}
    if isinstance(ep.task, Selection):
        row["task"] = "selection"
        row["m"] = ep.task.candidates.size - 1
        row["rng_seed"] = ep.task.candidates.rng_seed
        row["candidate_items"] = list(ep.task.candidates.presentation_order)
        row["negatives"] = list(ep.task.candidates.negatives)
        if ep.task.captions is not None:
            row["candidate_captions"] = list(ep.task.captions)
    else:
        row["task"] = "judgment"
        row["item"] = ep.task.item
    return row


def export_episodes(episodes: Iterable[Episode], path: str | Path) -> int:
    """Write episodes as JSONL for offline evaluation; returns the row count."""
    return write_jsonl(path, map(_episode_row, episodes))


def _episode_from_row(row: dict) -> Episode:
    task: TaskKind
    if row["task"] == "selection":
        order = tuple(row["candidate_items"])
        truth = int(row["truth"])
        if not 1 <= truth <= len(order):
            raise ValueError(f"selection truth {truth} is not a candidate position")
        candidates = CandidateSet(
            positive=order[truth - 1],
            negatives=tuple(row["negatives"]),
            presentation_order=order,
            rng_seed=int(row["rng_seed"]),
        )
        captions = row.get("candidate_captions")
        task = Selection(candidates=candidates, captions=tuple(captions) if captions else None)
    elif row["task"] == "judgment":
        task = Judgment(item=row["item"], label=str(row["truth"]))
    else:
        raise ValueError(f"unknown task {row['task']!r}")
    return Episode(user=row["user"], profile_text=row["profile"], task=task, prompt=row["prompt"])


def load_episodes(path: str | Path) -> list[Episode]:
    """Reload episodes exported by :func:`export_episodes`."""
    return [episode for _, episode in iter_jsonl(path, _episode_from_row)]
