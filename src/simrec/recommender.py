"""Pluggable sequential candidate generators and evaluation metrics.

Three lightweight recall models (popularity, first-order transitions, feature
embeddings) stand in for heavier sequential recommenders; the evaluation
harness can score any generator exposing ``fit`` + ``scores``, from which
``CandidateGenerator`` builds ``top_k`` and the held-out rank. Leave-one-out
protocol: each user's last interaction is held out and ranked against the full
catalog minus that user's training items (ranks are 1-based; ties break by
item id so rankings are deterministic). A rank is counted, not sorted: it is 1
plus the number of unseen items that beat the target. Generators whose order
is fixed at ``fit`` (popularity, the random baseline, and markov, which only
lifts a user's few transition targets above popularity) rank and list by
lookup in that order instead: a rank is one place lookup per history item plus
a count; ``scores`` stays their definition."""

from __future__ import annotations

import logging
import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import BehaviorRecord, Item, ItemId, UserHistory, UserId, iter_jsonl, read_jsonl_by_item

logger = logging.getLogger(__name__)


@lru_cache(maxsize=1)
def _catalog_index(ids: tuple[ItemId, ...]) -> tuple[tuple[ItemId, ...], dict[ItemId, int]]:
    """Sorted ids and their positions, shared (read-only) by generators fitted on one catalog.

    Holding one index per catalog rather than one per generator keeps peak
    memory flat when several models are fitted and ranked side by side.
    """
    return ids, {item: pos for pos, item in enumerate(ids)}


class CandidateGenerator(ABC):
    """A fitted recall model that scores every catalog item for a user.

    Subclasses implement ``fit`` and ``scores``; ``top_k`` and ``_rank`` are
    built on ``scores`` here, so every generator orders items the same way:
    higher score first, ties to the smaller item id, history items excluded.
    ``_rank``, which ``holdout_ranks`` reads, is a count on ``scores``;
    ``FixedOrderGenerator`` replaces it with a lookup that returns the same.
    """

    _ids: tuple[ItemId, ...] | None = None  # sorted catalog, the index order of ``scores``
    _index: dict[ItemId, int]

    @abstractmethod
    def fit(self, histories: Sequence[UserHistory], catalog: dict[ItemId, Item]) -> None:
        """Learn from training histories over the given catalog."""

    @abstractmethod
    def scores(self, history: UserHistory) -> np.ndarray:
        """One score per item of the sorted catalog; higher ranks first."""

    def _set_catalog(self, catalog: dict[ItemId, Item]) -> None:
        self._ids, self._index = _catalog_index(tuple(sorted(catalog)))

    def _positions(self, behaviors: Sequence[BehaviorRecord]) -> list[int]:
        """Catalog positions of the behaviors' items, repeats kept."""
        if self._ids is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted")
        index = self._index
        return [index[b.item] for b in behaviors if b.item in index]

    def top_k(self, history: UserHistory, k: int | None) -> list[ItemId]:
        """Ranked candidates for a user, excluding items already in ``history``.

        ``k=None`` returns the full ranking over the catalog.
        """
        seen = self._positions(history.behaviors)
        order = np.argsort(-self.scores(history), kind="stable")
        unseen = np.ones(len(order), dtype=bool)
        unseen[seen] = False
        ids = self._ids
        return [ids[i] for i in order[unseen[order]][:k]]

    def _rank(self, user: UserId, behaviors: tuple[BehaviorRecord, ...], item: ItemId) -> int | None:
        """1-based position of ``item`` in ``top_k(history, None)``, by counting, where
        ``history`` is ``user`` with ``behaviors``.

        ``None`` when the item is in ``behaviors`` or not in the catalog.
        ``behaviors`` is always a history's behaviors or a prefix of them, so
        the history built from them skips the checks of ``UserHistory``.
        """
        seen = self._positions(behaviors)
        pos = self._index.get(item)
        if pos is None or pos in seen:
            return None
        scores = self.scores(UserHistory._unchecked(user, behaviors))
        target = scores[pos]
        beats = scores > target
        beats[:pos] |= scores[:pos] == target
        beats[seen] = False
        return 1 + int(np.count_nonzero(beats))


def _popularity(histories: Sequence[UserHistory], ids: Sequence[ItemId]) -> np.ndarray:
    """Interaction count of each item in ``ids`` over the histories."""
    counts = Counter(b.item for h in histories for b in h.behaviors)
    return np.array([counts[i] for i in ids], dtype=np.int64)


class FixedOrderGenerator(CandidateGenerator):
    """A generator whose ranking is one order fixed at ``fit``, led per user by ``_lead``.

    ``top_k`` and ``_rank`` equal the ``CandidateGenerator`` versions on
    ``scores`` but look items up in the fixed order instead of passing over
    the catalog: a target's rank is its place in that order, less the seen and
    lead items placed before it, plus the unseen lead items.
    """

    _place: dict[ItemId, int] | None = None  # item -> place in the fixed order

    def _fix_order(self, scores: np.ndarray) -> None:
        """Keep ``scores`` (read-only), the items in their stable descending sort, and each item's place."""
        scores.setflags(write=False)
        self._scores = scores
        self._by_place = list(map(self._ids.__getitem__, np.argsort(-scores, kind="stable").tolist()))
        # places 0..n-1, taken from the catalog index's values: those int objects are shared by
        # every generator fitted on the catalog, so each generator frees no ints of its own
        self._place = dict(zip(self._by_place, self._index.values()))

    def scores(self, history: UserHistory) -> np.ndarray:
        return self._scores

    def _lead(self, behaviors: tuple[BehaviorRecord, ...]) -> Sequence[int]:
        """Places of the items that outrank every other item for this history, best first."""
        return ()

    def _seen(self, behaviors: tuple[BehaviorRecord, ...]) -> set[int]:
        """Places of the behaviors' items; one outside the catalog sits at ``len(catalog)``, past them all."""
        place = self._place
        if place is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted")
        end = len(place)
        return {place.get(b.item, end) for b in behaviors}

    def top_k(self, history: UserHistory, k: int | None) -> list[ItemId]:
        behaviors = history.behaviors
        skip = self._seen(behaviors)
        first = [q for q in self._lead(behaviors) if q not in skip]  # unseen lead, best first
        skip.update(first)
        by_place = self._by_place
        head = range(len(by_place) if k is None else min(len(by_place), k + len(skip)))
        return [by_place[q] for q in first + [q for q in head if q not in skip]][:k]

    def _rank(self, user: UserId, behaviors: tuple[BehaviorRecord, ...], item: ItemId) -> int | None:
        skip = self._seen(behaviors)
        target = self._place.get(item)
        if target is None or target in skip:
            return None
        ahead = 1 + target
        lead = self._lead(behaviors)
        if lead:
            first = [q for q in lead if q not in skip]  # unseen lead, best first
            if target in first:
                return first.index(target) + 1
            ahead += len(first)
            skip.update(first)
        return ahead - sum(map(target.__gt__, skip))  # less the skipped places before the target


class PopularityGenerator(FixedOrderGenerator):
    """Ranks the catalog by global interaction count."""

    def fit(self, histories: Sequence[UserHistory], catalog: dict[ItemId, Item]) -> None:
        if not histories:
            raise ValueError("need non-empty training histories")
        self._set_catalog(catalog)
        self._fix_order(_popularity(histories, self._ids))


class MarkovGenerator(FixedOrderGenerator):
    """Ranks by first-order transition counts from the user's last item.

    Items never seen after the context item fall back to popularity order, as
    do ties in transition count. Transitions to items outside the catalog are
    never candidates.
    """

    def fit(self, histories: Sequence[UserHistory], catalog: dict[ItemId, Item]) -> None:
        if not histories:
            raise ValueError("need non-empty training histories")
        self._set_catalog(catalog)
        self._fix_order(_popularity(histories, self._ids))
        place = self._place
        transitions: dict[ItemId, dict[int, int]] = {}  # context item -> {place: count}
        for history in histories:
            behaviors = history.behaviors
            for prev, nxt in zip(behaviors, behaviors[1:]):
                q = place.get(nxt.item)
                if q is not None:
                    counts = transitions.setdefault(prev.item, {})
                    counts[q] = counts.get(q, 0) + 1
        self._transitions = transitions
        # one transition outweighs any popularity gap, so counts only break ties
        self._weight = int(self._scores.max(initial=0)) + 1

    def scores(self, history: UserHistory) -> np.ndarray:
        scores = self._scores.copy()
        index, by_place = self._index, self._by_place
        for q, n in self._transitions.get(history.behaviors[-1].item, {}).items():
            scores[index[by_place[q]]] += self._weight * n
        return scores

    def _lead(self, behaviors: tuple[BehaviorRecord, ...]) -> Sequence[int]:
        boosts = self._transitions.get(behaviors[-1].item)
        if not boosts:
            return ()
        # a boost outweighs any popularity gap, so popularity (the place) only orders equal boosts
        return sorted(boosts, key=lambda q: (-boosts[q], q))


class EmbeddingGenerator(CandidateGenerator):
    """Ranks by dot product between the mean history feature and candidates.

    Item features may be caption-derived and supplied externally; this is the
    hook through which enhanced captions feed back into recall quality.
    """

    def fit(self, histories: Sequence[UserHistory], catalog: dict[ItemId, Item]) -> None:
        if not histories:
            raise ValueError("need non-empty training histories")
        missing = sorted(i for i, item in catalog.items() if item.feature is None)
        if missing:
            raise ValueError(
                f"{len(missing)} catalog item(s) lack feature vectors (e.g. {missing[0]!r})"
            )
        self._set_catalog(catalog)
        self._features = np.array([catalog[i].feature for i in self._ids], dtype=float)

    def scores(self, history: UserHistory) -> np.ndarray:
        rows = self._positions(history.behaviors)
        if not rows:
            raise ValueError(f"user {history.user!r}: no history item has a feature vector")
        profile = self._features[rows].sum(axis=0) / len(rows)  # bit-equal to .mean(axis=0)
        return self._features @ profile


class RandomGenerator(FixedOrderGenerator):
    """Seeded uniform ranking; the chance-level baseline for reports."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def fit(self, histories: Sequence[UserHistory], catalog: dict[ItemId, Item]) -> None:
        rng = np.random.default_rng(self.seed)
        self._set_catalog(catalog)
        n = len(self._ids)
        scores = np.empty(n, dtype=np.int64)
        scores[rng.permutation(n)] = np.arange(n, 0, -1)
        self._fix_order(scores)


def fit_popularity(
    histories: Sequence[UserHistory], catalog: dict[ItemId, Item]
) -> PopularityGenerator:
    gen = PopularityGenerator()
    gen.fit(histories, catalog)
    return gen


def fit_markov(histories: Sequence[UserHistory], catalog: dict[ItemId, Item]) -> MarkovGenerator:
    gen = MarkovGenerator()
    gen.fit(histories, catalog)
    return gen


def fit_embedding(
    histories: Sequence[UserHistory], catalog: dict[ItemId, Item]
) -> EmbeddingGenerator:
    gen = EmbeddingGenerator()
    gen.fit(histories, catalog)
    return gen


# model name -> fit function, for the CLI's --model choices
GENERATORS = {"popularity": fit_popularity, "markov": fit_markov, "embedding": fit_embedding}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

COLD_MAX_TRAIN_INTERACTIONS = 5


@dataclass
class MetricReport:
    """Ranking metrics for one user slice."""

    slice_tag: str = "all"
    n_users: int = 0
    hr: dict[int, float] = field(default_factory=dict)
    ndcg: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, values in (("hr", self.hr), ("ndcg", self.ndcg)):
            for k, val in values.items():
                if not 0.0 <= val <= 1.0:
                    raise ValueError(f"{name}@{k} must lie in [0, 1], got {val}")

    def to_dict(self) -> dict:
        out: dict = {"slice": self.slice_tag, "n_users": self.n_users}
        if self.hr:
            out["hr"] = {str(k): v for k, v in sorted(self.hr.items())}
            out["ndcg"] = {str(k): v for k, v in sorted(self.ndcg.items())}
        return out


def ndcg_contribution(rank: int | None, k: int) -> float:
    """Per-user gain for a single held-out item: 1/log2(rank+1) when rank <= k."""
    if rank is None or rank > k:
        return 0.0
    return 1.0 / math.log2(rank + 1)


def report_from_ranks(ranks: Sequence[int | None], ks: Sequence[int], slice_tag: str) -> MetricReport:
    """Aggregate 1-based held-out ranks into HR@k and NDCG@k."""
    n = len(ranks)
    hr: dict[int, float] = {}
    ndcg: dict[int, float] = {}
    for k in ks:
        if n == 0:
            hr[k] = 0.0
            ndcg[k] = 0.0
            continue
        hr[k] = sum(1 for r in ranks if r is not None and r <= k) / n
        ndcg[k] = sum(ndcg_contribution(r, k) for r in ranks) / n
    return MetricReport(slice_tag=slice_tag, n_users=n, hr=hr, ndcg=ndcg)


def holdout_ranks(
    generator: CandidateGenerator, histories: Sequence[UserHistory]
) -> list[tuple[int | None, bool]]:
    """Per-user (rank of held-out item, is-cold-user) pairs.

    The generator must already be fitted on the training views (behaviors
    1..N-1); the held-out target is ranked against the full catalog minus the
    user's training items. Each rank is the target's 1-based place in
    ``generator.top_k(history.training_view(), None)``, counted by ``_rank``
    straight off the behaviors.
    """
    rank = generator._rank
    out: list[tuple[int | None, bool]] = []
    for history in histories:
        behaviors = history.behaviors
        if len(behaviors) < 2:
            raise ValueError(f"user {history.user!r}: evaluation needs at least 2 behaviors")
        prefix = behaviors[:-1]
        out.append((rank(history.user, prefix, behaviors[-1].item), len(prefix) <= COLD_MAX_TRAIN_INTERACTIONS))
    return out


def evaluate_leave_one_out(
    generator: CandidateGenerator,
    histories: Sequence[UserHistory],
    ks: Sequence[int] = (10, 20),
    slices: Sequence[str] = ("all",),
) -> dict[str, MetricReport]:
    """HR@k / NDCG@k over all users and (optionally) the cold-user slice.

    Each target is ranked against the generator's fitted catalog, which for
    ``eval-rec`` is the interaction catalog: items that only a features file
    names are not candidates (``load_item_features`` skips them).
    """
    pairs = holdout_ranks(generator, histories)
    reports: dict[str, MetricReport] = {}
    for tag in slices:
        if tag == "all":
            ranks = [rank for rank, _ in pairs]
        elif tag == "cold":
            ranks = [rank for rank, cold in pairs if cold]
        else:
            raise ValueError(f"unknown slice {tag!r}")
        reports[tag] = report_from_ranks(ranks, ks, tag)
    return reports


class Classification(NamedTuple):
    acc: float
    precision: float
    recall: float
    f1: float


def f1_from_precision_recall(precision: float, recall: float) -> float:
    """Harmonic mean 2pr/(p+r); 0 when both components are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def classification_metrics(predictions: Sequence[str | None], truths: Sequence[str]) -> Classification:
    """Binary accuracy/precision/recall/F1 with "like" as the positive class.

    A ``None`` prediction (no answer parsed) is never a hit: it is a false
    negative when the truth is "like" and counts against accuracy either way.
    """
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths must have equal length")
    if not predictions:
        raise ValueError("need at least one prediction")
    for label in (*(p for p in predictions if p is not None), *truths):
        if label not in ("like", "dislike"):
            raise ValueError(f"labels must be like/dislike, got {label!r}")
    tp = sum(1 for p, t in zip(predictions, truths) if p == "like" and t == "like")
    fp = sum(1 for p, t in zip(predictions, truths) if p == "like" and t == "dislike")
    fn = sum(1 for p, t in zip(predictions, truths) if p != "like" and t == "like")
    tn = sum(1 for p, t in zip(predictions, truths) if p == "dislike" and t == "dislike")
    acc = (tp + tn) / len(truths)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return Classification(
        acc=acc,
        precision=precision,
        recall=recall,
        f1=f1_from_precision_recall(precision, recall),
    )


# ---------------------------------------------------------------------------
# Feedback augmentation
# ---------------------------------------------------------------------------


def augment_with_feedback(
    histories: Sequence[UserHistory],
    liked_feedback: Sequence[tuple[UserId, ItemId]],
    catalog: dict[ItemId, Item],
) -> list[UserHistory]:
    """Append simulated liked items as pseudo-behaviors at fresh max ordinals.

    Refitting a generator on the result is the feedback-driven augmentation
    step. Pre-existing behaviors are preserved bit-exactly; duplicate feedback
    pairs are applied once with a warning; unknown users and items outside
    ``catalog`` raise ValueError.
    """
    by_user = {h.user: list(h.behaviors) for h in histories}
    order = [h.user for h in histories]
    seen_pairs: set[tuple[UserId, ItemId]] = set()
    for user, item in liked_feedback:
        if (user, item) in seen_pairs:
            logger.warning("duplicate feedback pair (%r, %r) ignored", user, item)
            continue
        seen_pairs.add((user, item))
        if user not in by_user:
            raise ValueError(f"feedback names unknown user {user!r}")
        if item not in catalog:
            raise ValueError(f"feedback names unknown item {item!r}")
        behaviors = by_user[user]
        next_ordinal = max(b.timestamp for b in behaviors) + 1
        behaviors.append(BehaviorRecord(item=item, timestamp=next_ordinal))
    return [UserHistory(user=user, behaviors=tuple(by_user[user])) for user in order]


def load_feedback(path: str | Path) -> list[tuple[UserId, ItemId]]:
    """Read liked-feedback pairs from JSONL rows {"user": str, "item": str}."""
    return [pair for _, pair in iter_jsonl(path, lambda row: (str(row["user"]), str(row["item"])))]


_NUMBER_TYPES = frozenset((float, int))  # the types JSON numbers decode to; a JSON true has type bool


def load_item_features(catalog: dict[ItemId, Item], path: str | Path) -> dict[ItemId, Item]:
    """Attach feature vectors from a JSONL ({"item","vec"}) or .npz file.

    The catalog stays the one given, which for ``eval-rec`` is every item some
    interaction names: vectors for other items are skipped and counted in one
    warning, so they never become ranking candidates. A repeated JSONL item, a
    ``vec`` that is not a list, one with an entry that is not a JSON number
    (a bool or a string, say), and one whose length differs from the first
    row's are each a ValueError naming the path and line; a .npz vector that
    is not 1-D, or whose length differs from the first one's, is a ValueError
    naming the path and item. Returns a new catalog.
    """
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as data:
            arrays = {item_id: data[item_id] for item_id in data.files}
        first = next(iter(arrays.values()), np.empty(0)).size
        for item_id, vec in arrays.items():
            if vec.ndim != 1:
                raise ValueError(f"{path}: item {item_id!r}: vec must be 1-D, got shape {vec.shape}")
            if vec.size != first:
                raise ValueError(f"{path}: item {item_id!r}: vec has {vec.size} entries, the first item's has {first}")
        vectors = {item_id: tuple(float(x) for x in vec) for item_id, vec in arrays.items()}
    else:
        dim: int | None = None  # the first row's length

        def feature_row(row: dict) -> tuple[ItemId, tuple[float, ...]]:
            nonlocal dim
            vec = row["vec"]
            if not isinstance(vec, list):
                raise ValueError(f"vec must be a list of numbers, got {type(vec).__name__}")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise ValueError(f"vec has {len(vec)} entries, the first row's has {dim}")
            if not _NUMBER_TYPES.issuperset(map(type, vec)):
                bad = next(x for x in vec if type(x) not in _NUMBER_TYPES)
                raise ValueError(f"vec entries must be numbers, got {type(bad).__name__}")
            return str(row["item"]), tuple(map(float, vec))

        vectors = read_jsonl_by_item(path, feature_row)
    updated = dict(catalog)
    unknown = 0
    for item_id, vec in vectors.items():
        item = updated.get(item_id)
        if item is None:
            unknown += 1
            continue
        updated[item_id] = Item(item.id, item.title, item.enhanced_caption, vec)
    if unknown:
        logger.warning("load_item_features: skipped %d unknown item(s)", unknown)
    return updated
