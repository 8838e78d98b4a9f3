import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simrec.core import BehaviorRecord, Item, UserHistory, write_jsonl
import simrec.recommender as recommender
from simrec.recommender import (
    CandidateGenerator,
    PopularityGenerator,
    RandomGenerator,
    augment_with_feedback,
    classification_metrics,
    evaluate_leave_one_out,
    f1_from_precision_recall,
    fit_embedding,
    fit_markov,
    fit_popularity,
    holdout_ranks,
    load_feedback,
    load_item_features,
    ndcg_contribution,
    report_from_ranks,
)


def history(user, items, start=1):
    return UserHistory(
        user=user,
        behaviors=tuple(
            BehaviorRecord(item=i, timestamp=start + k) for k, i in enumerate(items)
        ),
    )


def catalog_of(*ids, features=None):
    return {
        i: Item(id=i, title=f"title {i}", feature=None if features is None else features[i])
        for i in ids
    }


class TestGenerators:
    def test_markov_transition_counts(self):
        histories = [history("u1", ["A", "B"]), history("u2", ["A", "B"]), history("u3", ["A", "C"])]
        gen = fit_markov(histories, catalog_of("A", "B", "C"))
        top = gen.top_k(history("q", ["A"]), 2)
        assert top == ["B", "C"]  # counts B: 2, C: 1 from context A

    def test_markov_popularity_fallback(self):
        histories = [history("u1", ["A", "B"]), history("u2", ["C", "B"]), history("u3", ["B", "C"])]
        gen = fit_markov(histories, catalog_of("A", "B", "C", "D"))
        # context D has no transitions: pure popularity order (B:3, C:2, A:1, D:0)
        assert gen.top_k(history("q", ["D"]), 3) == ["B", "C", "A"]

    def test_popularity_order(self):
        histories = [history("u1", ["X"] * 1 + ["Y"]), history("u2", ["X", "Y"])]
        counts = {"X": 5, "Y": 2}
        histories = [
            history("u1", ["X", "Y"]),
            history("u2", ["X", "Y"]),
            history("u3", ["X", "Z"]),
            history("u4", ["X", "Z"]),
            history("u5", ["X", "Z"]),
        ]
        gen = fit_popularity(histories, catalog_of("X", "Y", "Z", "W"))
        assert gen.top_k(history("q", ["W"]), 3) == ["X", "Z", "Y"]

    def test_popularity_excludes_history(self):
        histories = [history("u1", ["X", "Y"]), history("u2", ["X", "Z"])]
        gen = fit_popularity(histories, catalog_of("X", "Y", "Z"))
        assert "X" not in gen.top_k(history("q", ["X"]), 3)

    def test_embedding_dot_product_identity(self):
        features = {
            "e1": (1.0, 0.0, 0.0),
            "e2": (0.0, 1.0, 0.0),
            "e3": (0.0, 0.0, 1.0),
            "q": (1.0, 0.0, 0.0),
        }
        cat = catalog_of("e1", "e2", "e3", "q", features=features)
        gen = fit_embedding([history("u1", ["e1", "e2"])], cat)
        top = gen.top_k(history("z", ["q"]), 1)
        assert top == ["e1"]  # e1 aligns with the profile vector (= q = e1)

    def test_embedding_without_features_errors(self):
        with pytest.raises(ValueError, match="feature"):
            fit_embedding([history("u1", ["A", "B"])], catalog_of("A", "B"))

    def test_unfitted_generator_rejected(self):
        gen = PopularityGenerator()
        with pytest.raises(RuntimeError, match="not been fitted"):
            gen.top_k(history("u", ["A"]), 3)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_popularity([], catalog_of("A"))


OUTSIDE = ("x0", "x1")  # items that histories mention but the catalog lacks


@st.composite
def tied_worlds(draw):
    """A small catalog with integer features, plus histories and a query view.

    Few items, few distinct feature values and short histories make equal
    popularity counts, equal transition counts and equal dot products common.
    """
    ids = [f"i{j}" for j in range(draw(st.integers(1, 7)))]
    vec = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(lambda v: tuple(map(float, v)))
    catalog = catalog_of(*ids, features={i: draw(vec) for i in ids})
    any_item = st.sampled_from(ids + list(OUTSIDE))
    train = draw(st.lists(st.lists(any_item, min_size=1, max_size=6), min_size=1, max_size=6))
    histories = [history(f"u{n}", items) for n, items in enumerate(train)]
    # the first item is in the catalog, so the embedding profile is defined
    view = history("q", [draw(st.sampled_from(ids))] + draw(st.lists(any_item, max_size=4)))
    return catalog, histories, view


def fit_random(histories, catalog):
    gen = RandomGenerator(seed=3)
    gen.fit(histories, catalog)
    return gen


GENERATORS = {**recommender.GENERATORS, "random": fit_random}


@pytest.mark.parametrize("model", sorted(GENERATORS))
@settings(max_examples=100, deadline=None)
@given(world=tied_worlds(), k=st.integers(0, 8))
@example(  # a repeated view item, an outside context item with a transition, outside targets
    world=(
        catalog_of("i0", "i1", "i2", "i3", features={i: (1.0, 0.0) for i in ("i0", "i1", "i2", "i3")}),
        [history("u1", ["i1", "i2", "x0", "i3"]), history("u2", ["i2", "i1", "i1", "x0", "i0"])],
        history("q", ["i1", "i2", "i1", "x0"]),
    ),
    k=1,
)
@example(  # equal transition counts from i0, so popularity orders i2 before i1
    world=(
        catalog_of("i0", "i1", "i2", features={i: (1.0, 0.0) for i in ("i0", "i1", "i2")}),
        [history("u1", ["i0", "i1"]), history("u2", ["i0", "i2"]), history("u3", ["i2", "i2"])],
        history("q", ["i0"]),
    ),
    k=1,
)
def test_rank_and_top_k_agree(model, world, k):
    """``top_k`` and ``holdout_ranks`` read off a stable descending sort of ``scores``, seen items removed."""
    catalog, histories, view = world
    gen = GENERATORS[model](histories, catalog)
    ids = sorted(catalog)
    scores = gen.scores(view).tolist()
    seen = set(view.item_ids())
    full = [ids[j] for j in sorted(range(len(ids)), key=lambda j: -scores[j]) if ids[j] not in seen]
    assert gen.top_k(view, None) == full
    assert gen.top_k(view, k) == full[:k]
    cold = len(view) <= recommender.COLD_MAX_TRAIN_INTERACTIONS
    for item in [*catalog, *OUTSIDE]:  # targets in the catalog, in the view, and outside the catalog
        want = full.index(item) + 1 if item in full else None
        assert holdout_ranks(gen, [history("q", [*view.item_ids(), item])]) == [(want, cold)]
    # users with a target and a catalog item to train on (embedding needs one for its profile)
    held_out = [h for h in histories if len(h) >= 2 and set(h.item_ids()[:-1]) & set(catalog)]
    assert [rank for rank, _ in holdout_ranks(gen, held_out)] == [direct_rank(gen, h) for h in held_out]


def direct_rank(gen, history):
    """The held-out target's place in ``top_k(training_view, None)``, or None when it is not listed."""
    ranked = gen.top_k(history.training_view(), None)
    target = history.target().item
    return ranked.index(target) + 1 if target in ranked else None


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.lists(st.integers(0, 9), min_size=1, max_size=12))
def test_embedding_profile_is_bit_equal_to_the_mean(seed, rows):
    rng = np.random.default_rng(seed)
    ids = [f"i{j}" for j in range(10)]
    features = {i: tuple(rng.normal(size=8).tolist()) for i in ids}
    gen = fit_embedding([history("u", ids[:2])], catalog_of(*ids, features=features))
    matrix = np.array([features[i] for i in ids])
    want = matrix @ matrix[rows].mean(axis=0)
    assert np.array_equal(gen.scores(history("q", [ids[r] for r in rows])), want)


@settings(max_examples=100, deadline=None)
@given(world=tied_worlds())
@example(  # one transition must outweigh a popularity lead of one
    world=(
        catalog_of("i0", "i1", "i2"),
        [history("u1", ["i2", "i1"]), history("u2", ["i0", "i0"])],
        history("q", ["i2"]),
    )
)
def test_markov_orders_by_transitions_then_popularity(world):
    catalog, histories, view = world
    counts = {i: sum(h.item_ids().count(i) for h in histories) for i in catalog}
    last = view.item_ids()[-1]
    trans = {i: 0 for i in catalog}
    for h in histories:
        items = h.item_ids()
        for prev, nxt in zip(items, items[1:]):
            if prev == last and nxt in catalog:
                trans[nxt] += 1
    unseen = [i for i in catalog if i not in view.item_ids()]
    want = sorted(unseen, key=lambda i: (-trans[i], -counts[i], i))
    assert fit_markov(histories, catalog).top_k(view, None) == want


def test_markov_never_offers_items_outside_the_catalog():
    histories = [history("u1", ["A", "x0"]), history("u2", ["A", "x0"]), history("u3", ["A", "B"])]
    gen = fit_markov(histories, catalog_of("A", "B", "C"))
    assert gen.top_k(history("q", ["A"]), None) == ["B", "C"]
    assert holdout_ranks(gen, [history("q", ["A", "x0"])]) == [(None, True)]


class CannedRanker(CandidateGenerator):
    """Scores each user's canned ranking in order; the catalog is every ranked item."""

    def __init__(self, rankings):
        self.rankings = rankings
        self.fit([], {item: None for ranked in rankings.values() for item in ranked})

    def fit(self, histories, catalog):
        self._set_catalog(catalog)

    def scores(self, history):
        ranked = self.rankings[history.user]
        out = np.zeros(len(self._ids))
        for place, item in enumerate(ranked):
            out[self._index[item]] = len(ranked) - place
        return out


class TestLeaveOneOut:
    def test_per_user_ndcg_values(self):
        # rank 1 -> 1.0; rank 3 -> 1/log2(4) = 0.5; rank 12 -> no HR@10 credit
        assert ndcg_contribution(1, 10) == 1.0
        assert ndcg_contribution(3, 10) == pytest.approx(0.5, abs=1e-12)
        assert ndcg_contribution(12, 10) == 0.0
        report = report_from_ranks([1, 3, 12], ks=(10,), slice_tag="all")
        assert report.hr[10] == pytest.approx(2 / 3)
        assert report.ndcg[10] == pytest.approx((1.0 + 0.5 + 0.0) / 3)

    def test_ranks_computed_from_generator(self):
        histories = [
            history("u1", ["A", "B", "T"]),
            history("u2", ["A", "C", "Z"]),
            history("u3", ["T", "A", "T"]),  # target already in the training items
            history("u4", ["A", "C", "x0"]),  # target outside the catalog
        ]
        rankings = {
            "u1": ["T", "C", "Z"],  # none in the user's history
            "u2": ["T", "B", "Z"],
            "u3": ["T", "C", "Z"],
            "u4": ["T", "B", "Z"],
        }
        generator = CannedRanker(rankings)
        pairs = holdout_ranks(generator, histories)
        assert pairs == [(1, True), (3, True), (None, True), (None, True)]  # 2 train items -> cold
        assert [rank for rank, _ in pairs] == [direct_rank(generator, h) for h in histories]

    def test_monotone_in_k(self, bundled_catalog_histories):
        catalog, histories = bundled_catalog_histories
        views = [h.training_view() for h in histories]
        for fit in (fit_popularity, fit_markov):
            reports = evaluate_leave_one_out(fit(views, catalog), histories, ks=(10, 20))
            report = reports["all"]
            assert report.hr[20] >= report.hr[10]
            assert report.ndcg[20] >= report.ndcg[10]

    def test_cold_slice_population(self, bundled_catalog_histories):
        catalog, histories = bundled_catalog_histories
        views = [h.training_view() for h in histories]
        reports = evaluate_leave_one_out(
            fit_popularity(views, catalog), histories, ks=(10,), slices=("all", "cold")
        )
        expected_cold = sum(1 for h in histories if len(h) - 1 <= 5)
        assert reports["cold"].n_users == expected_cold
        assert reports["all"].n_users == len(histories)

    def test_matches_brute_force_oracle(self):
        # implementation route: rank = position in the generator's full sort
        # oracle route: count items scoring strictly higher, plus tied items
        # with a smaller id, then apply the hr/ndcg formulas directly
        rng = np.random.default_rng(51)
        for _ in range(60):
            n_items = int(rng.integers(8, 40))
            ids = [f"i{j:03d}" for j in range(n_items)]
            scores = {i: float(rng.integers(0, 6)) for i in ids}  # integer scores, ties likely
            target = ids[int(rng.integers(n_items))]
            ranked = sorted(ids, key=lambda i: (-scores[i], i))
            impl_rank = ranked.index(target) + 1
            oracle_rank = 1 + sum(
                1
                for other in ids
                if scores[other] > scores[target]
                or (scores[other] == scores[target] and other < target)
            )
            assert impl_rank == oracle_rank
            for k in (5, 10):
                impl = report_from_ranks([impl_rank], ks=(k,), slice_tag="all")
                hit = 1.0 if oracle_rank <= k else 0.0
                gain = (1.0 / math.log2(oracle_rank + 1)) if oracle_rank <= k else 0.0
                assert abs(impl.hr[k] - hit) < 1e-12
                assert abs(impl.ndcg[k] - gain) < 1e-12

    def test_per_user_ndcg_never_exceeds_hit_indicator(self):
        rng = np.random.default_rng(52)
        for _ in range(500):
            rank = int(rng.integers(1, 40))
            k = int(rng.integers(1, 25))
            gain = ndcg_contribution(rank, k)
            hit = 1.0 if rank <= k else 0.0
            assert gain <= hit
            assert gain >= 0.0


class TestClassificationMetrics:
    def test_f1_formula_consistency(self):
        assert f1_from_precision_recall(0.697, 0.760) == pytest.approx(0.727, abs=0.0005)

    def test_all_correct(self):
        preds = ["like", "dislike", "like"]
        m = classification_metrics(preds, preds)
        assert m == (1.0, 1.0, 1.0, 1.0)

    def test_always_like_on_balanced(self):
        preds = ["like"] * 4
        truths = ["like", "dislike", "like", "dislike"]
        m = classification_metrics(preds, truths)
        assert m.recall == 1.0
        assert m.precision == 0.5
        assert m.acc == 0.5

    def test_degenerate_no_positives(self):
        m = classification_metrics(["dislike", "dislike"], ["dislike", "dislike"])
        assert m.acc == 1.0
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_no_prediction_is_never_a_hit(self):
        m = classification_metrics(["like", None, None, "dislike"], ["like", "like", "dislike", "dislike"])
        assert m.acc == 0.5
        assert m.precision == 1.0
        assert m.recall == 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics(["like"], ["like", "dislike"])


class TestAugmentWithFeedback:
    def test_append_bumps_length_and_ordinal(self):
        base = [history("u1", ["A", "B", "C"])]
        out = augment_with_feedback(base, [("u1", "D")], catalog_of("A", "B", "C", "D"))
        assert len(out[0]) == 4
        assert out[0].behaviors[-1].item == "D"
        assert out[0].behaviors[-1].timestamp > max(b.timestamp for b in base[0].behaviors)

    def test_empty_feedback_is_identity(self):
        base = [history("u1", ["A", "B"])]
        assert augment_with_feedback(base, [], catalog_of("A", "B")) == base

    def test_duplicate_pair_applied_once_with_warning(self, caplog):
        base = [history("u1", ["A", "B"])]
        with caplog.at_level(logging.WARNING):
            out = augment_with_feedback(base, [("u1", "C"), ("u1", "C")], catalog_of("A", "B", "C"))
        assert len(out[0]) == 3
        assert "duplicate feedback" in caplog.text

    def test_unknown_user_rejected(self):
        with pytest.raises(ValueError, match="unknown user"):
            augment_with_feedback([history("u1", ["A", "B"])], [("ghost", "A")], catalog_of("A", "B"))

    def test_unknown_item_rejected_with_catalog(self):
        with pytest.raises(ValueError, match="unknown item"):
            augment_with_feedback(
                [history("u1", ["A", "B"])], [("u1", "ghost")], catalog_of("A", "B")
            )

    def test_empty_item_is_an_unknown_item(self):
        with pytest.raises(ValueError, match="^feedback names unknown item ''$"):
            augment_with_feedback([history("u1", ["A", "B"])], [("u1", "")], catalog_of("A", "B"))

    def test_existing_behaviors_preserved_bit_exactly(self):
        base = [history("u1", ["A", "B", "C"]), history("u2", ["B", "C"])]
        out = augment_with_feedback(base, [("u2", "A")], catalog_of("A", "B", "C"))
        assert out[0] == base[0]
        assert out[1].behaviors[: len(base[1].behaviors)] == base[1].behaviors

    def test_markov_direction_improves_with_aligned_feedback(self, bundled_catalog_histories):
        catalog, histories = bundled_catalog_histories
        views = [h.training_view() for h in histories]
        feedback = [(h.user, h.target().item) for h in histories[:15]]
        before = evaluate_leave_one_out(fit_markov(views, catalog), histories, ks=(10,))
        augmented = augment_with_feedback(views, feedback, catalog)
        after = evaluate_leave_one_out(fit_markov(augmented, catalog), histories, ks=(10,))
        assert after["all"].hr[10] >= before["all"].hr[10]


class TestFeatureAndFeedbackFiles:
    def test_load_feedback(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [{"user": "u1", "item": "A"}])
        assert load_feedback(path) == [("u1", "A")]

    def test_load_feedback_malformed_names_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"user": "u1"}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_feedback(path)

    def test_load_item_features_jsonl(self, tmp_path):
        path = tmp_path / "v.jsonl"
        write_jsonl(path, [{"item": "A", "vec": [0.5, -1.0]}])
        catalog = load_item_features(catalog_of("A", "B"), path)
        assert catalog["A"].feature == (0.5, -1.0)
        assert catalog["B"].feature is None

    @pytest.mark.parametrize(
        "second, message",
        [
            ('"12"', "vec must be a list of numbers, got str"),
            ("3.0", "vec must be a list of numbers, got float"),
            ("[1.0, 2.0]", "vec has 2 entries, the first row's has 3"),
            ("[]", "vec has 0 entries, the first row's has 3"),
            ("[0.5, true, 2.0]", "vec entries must be numbers, got bool"),
            ('[0.5, "2", 2.0]', "vec entries must be numbers, got str"),
            ("[0.5, null, 2.0]", "vec entries must be numbers, got NoneType"),
        ],
    )
    def test_load_item_features_rejects_a_bad_vec(self, tmp_path, second, message):
        path = tmp_path / "v.jsonl"
        path.write_text(f'{{"item": "A", "vec": [0.5, -1.0, 2.0]}}\n{{"item": "B", "vec": {second}}}\n')
        with pytest.raises(ValueError) as info:
            load_item_features(catalog_of("A", "B"), path)
        assert str(info.value) == f"{path}: line 2: {message}"

    def test_features_for_items_outside_the_catalog_change_nothing(self, tmp_path, caplog):
        """The ranked catalog is the interaction catalog; extra feature rows are skipped and counted."""
        histories = [history("u1", ["A", "B", "C"]), history("u2", ["B", "C", "A"]), history("u3", ["C", "D", "B"])]
        vectors = {"A": [1.0, 0.0], "B": [0.5, 0.5], "C": [0.0, 1.0], "D": [1.0, 1.0]}
        extra = {"E": [2.0, 2.0], "F": [-1.0, 3.0]}
        exact, padded = tmp_path / "exact.jsonl", tmp_path / "padded.jsonl"
        write_jsonl(exact, [{"item": i, "vec": v} for i, v in vectors.items()])
        write_jsonl(padded, [{"item": i, "vec": v} for i, v in (vectors | extra).items()])
        views = [h.training_view() for h in histories]
        results = []
        for path in (exact, padded):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                catalog = load_item_features(catalog_of("A", "B", "C", "D"), path)
            assert sorted(catalog) == ["A", "B", "C", "D"]
            gen = fit_embedding(views, catalog)
            results.append(([gen.top_k(view, None) for view in views], holdout_ranks(gen, histories)))
            logged = [r.getMessage() for r in caplog.records]
            assert logged == ([] if path == exact else ["load_item_features: skipped 2 unknown item(s)"])
        assert results[0] == results[1]

    def test_load_item_features_npz(self, tmp_path):
        path = tmp_path / "v.npz"
        np.savez(path, A=np.array([1.0, 2.0]))
        catalog = load_item_features(catalog_of("A"), path)
        assert catalog["A"].feature == (1.0, 2.0)

    @pytest.mark.parametrize(
        "arrays, message",
        [
            ({"A": [1.0, 2.0], "B": [1.0]}, "item 'B': vec has 1 entries, the first item's has 2"),
            ({"A": 1.0}, "item 'A': vec must be 1-D, got shape ()"),
            ({"A": [[1.0, 2.0], [3.0, 4.0]]}, "item 'A': vec must be 1-D, got shape (2, 2)"),
        ],
        ids=["mixed lengths", "0-d", "2-d"],
    )
    def test_load_item_features_npz_rejects_mixed_lengths(self, arrays, message, tmp_path):
        path = tmp_path / "v.npz"
        np.savez(path, **{item: np.array(vec) for item, vec in arrays.items()})
        with pytest.raises(ValueError) as info:
            load_item_features(catalog_of("A", "B"), path)
        assert str(info.value) == f"{path}: {message}"


def test_metric_report_rejects_out_of_range():
    import pytest as _pytest

    from simrec.recommender import MetricReport

    with _pytest.raises(ValueError, match="hr@10"):
        MetricReport(slice_tag="all", n_users=1, hr={10: 1.2}, ndcg={10: 0.5})
