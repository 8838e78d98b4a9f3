import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simrec import env
from simrec.core import CandidateSet, Judgment, Selection
from simrec.env import (
    Episode,
    EnvConfig,
    SyntheticEpisodeSource,
    build_candidate_set,
    export_episodes,
    generate_synthetic_world,
    load_episodes,
    make_episode,
    make_judgment_pair,
    pool_scores,
)
from simrec.fixtures import write_synthetic_dataset
from simrec.grpo import ToySoftmaxPolicy, evaluate_policy
from simrec.recommender import fit_markov


class FixedTopK:
    """Candidate source returning a canned ranked list."""

    def __init__(self, ranked):
        self.ranked = list(ranked)

    def top_k(self, history, k):
        return self.ranked if k is None else self.ranked[:k]


TOP10 = [f"i{n}" for n in range(1, 11)]


class TestBuildCandidateSet:
    def test_positive_outside_top10(self):
        cs = build_candidate_set(TOP10, "p", m=4, seed=1)
        assert cs.size == 5
        assert cs.positive == "p"
        assert set(cs.negatives) <= set(TOP10)
        assert len(set(cs.negatives)) == 4

    def test_positive_inside_top10_excluded_from_negatives(self):
        cs = build_candidate_set(TOP10, "i3", m=4, seed=2)
        assert "i3" not in cs.negatives
        assert set(cs.negatives) <= set(TOP10) - {"i3"}

    def test_insufficient_negatives_rejected(self):
        with pytest.raises(ValueError, match="9 eligible"):
            build_candidate_set(TOP10, "i3", m=10, seed=3)

    def test_reconstructible_from_seed(self):
        a = build_candidate_set(TOP10, "p", m=4, seed=77)
        b = build_candidate_set(TOP10, "p", m=4, seed=77)
        assert a == b
        c = build_candidate_set(TOP10, "p", m=4, seed=78)
        assert a != c

    @settings(max_examples=500, deadline=None)
    @given(
        top=st.lists(
            st.sampled_from([f"i{n}" for n in range(1, 21)]), min_size=2, max_size=12, unique=True
        ),
        inside=st.booleans(),
        data=st.data(),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_invariants(self, top, inside, data, seed):
        positive = data.draw(st.sampled_from(top)) if inside else "p"
        eligible = [i for i in top if i != positive]
        m = data.draw(st.integers(1, len(eligible)))
        cs = build_candidate_set(top, positive, m=m, seed=seed)
        assert cs.presentation_order.count(cs.positive) == 1
        assert len(set(cs.negatives)) == m
        assert cs.positive not in cs.negatives
        assert sorted(cs.presentation_order) == sorted((cs.positive, *cs.negatives))
        assert set(cs.negatives) <= set(eligible)

    def test_positive_position_roughly_uniform(self):
        counts = np.zeros(5)
        for seed in range(2000):
            cs = build_candidate_set(TOP10, "p", m=4, seed=seed)
            counts[cs.truth_index() - 1] += 1
        assert counts.min() > 2000 / 5 * 0.8


class TestMakeEpisode:
    @pytest.fixture()
    def tiny(self, small_world):
        world, catalog, histories, _ = small_world
        return catalog, histories

    def test_selection_episode_structure(self, tiny):
        catalog, histories = tiny
        history = histories[0]
        cfg = EnvConfig(top_k=8, m=3, seed=4)
        generator = FixedTopK([i for i in catalog if i != history.target().item][:8])
        episode = make_episode(history, catalog, "selection", cfg, generator)
        assert isinstance(episode.task, Selection)
        assert episode.task.candidates.size == 4
        assert episode.truth == episode.task.candidates.truth_index()
        # profile covers the first N-1 behaviors, rendered once in the prompt
        for record in history.training_view().behaviors:
            assert catalog[record.item].display_text() in episode.prompt
        assert episode.prompt.count("User's viewing history:") == 1
        assert episode.prompt.count("Candidate videos for the next watch:") == 1
        assert episode.prompt.count(episode.profile_text) == 1

    def test_judgment_with_target_is_like(self, tiny):
        catalog, histories = tiny
        episode = make_episode(histories[0], catalog, "judgment", EnvConfig(seed=4))
        assert episode.truth == "like"
        assert episode.task == Judgment(item=histories[0].target().item, label="like")

    def test_judgment_pair_balanced(self, tiny):
        catalog, histories = tiny
        history = histories[1]
        generator = FixedTopK([i for i in catalog][:10])
        like, dislike = make_judgment_pair(history, catalog, EnvConfig(seed=4), generator)
        assert (like.truth, dislike.truth) == ("like", "dislike")
        assert like.task.item == history.target().item
        assert dislike.task.item != history.target().item

    def test_missing_catalog_item_names_item(self, tiny):
        catalog, histories = tiny
        history = histories[0]
        broken = dict(catalog)
        del broken[history.behaviors[0].item]
        with pytest.raises(ValueError, match=history.behaviors[0].item):
            make_episode(history, broken, "judgment", EnvConfig(seed=1))

    def test_prompt_bytes_identical_across_runs(self, tiny):
        catalog, histories = tiny
        cfg = EnvConfig(top_k=8, m=3, seed=11)
        generator = FixedTopK([i for i in catalog if i != histories[0].target().item][:8])
        a = make_episode(histories[0], catalog, "selection", cfg, generator)
        b = make_episode(histories[0], catalog, "selection", cfg, generator)
        assert a.prompt.encode() == b.prompt.encode()
        assert a == b

    def test_enhanced_caption_preferred_in_prompt(self, tiny):
        from dataclasses import replace

        catalog, histories = tiny
        history = histories[2]
        item_id = history.training_view().behaviors[0].item
        catalog2 = dict(catalog)
        catalog2[item_id] = replace(catalog2[item_id], enhanced_caption="a very specific caption")
        episode = make_episode(history, catalog2, "judgment", EnvConfig(seed=1))
        assert "a very specific caption" in episode.prompt
        assert catalog2[item_id].title not in episode.prompt


class TestSyntheticWorld:
    def test_world_reproducible_from_seed(self):
        a = generate_synthetic_world(6, 30, 4, seed=9)
        b = generate_synthetic_world(6, 30, 4, seed=9)
        assert np.array_equal(a[0].user_vectors, b[0].user_vectors)
        assert a[2] == b[2]

    def test_histories_have_expected_length_and_unique_items(self):
        _, _, histories = generate_synthetic_world(6, 40, 4, seed=9, history_length=5)
        for history in histories:
            assert len(history) == 5
            assert len(set(history.item_ids())) == 5

    def test_oracle_consistency_at_zero_noise(self):
        world, _, _ = generate_synthetic_world(8, 50, 4, seed=12)
        rng = np.random.default_rng(0)
        for user in world.user_ids:
            pool = [world.item_ids[row] for row in rng.choice(len(world.item_ids), size=10, replace=False)]
            best = max(pool, key=lambda item: world.affinity(user, item))
            assert world.oracle_pick(user, pool, rng) == best

    def test_like_threshold_minus_inf_means_all_like(self):
        world, catalog, histories = generate_synthetic_world(
            4, 20, 3, seed=1, like_threshold=float("-inf")
        )
        for user in world.user_ids:
            assert all(world.likes(user, item) for item in world.item_ids)
        # the episode stream falls back gracefully when one label is unreachable
        source = SyntheticEpisodeSource(
            world, catalog, histories, EnvConfig(top_k=10, m=3, seed=0)
        )
        rng = np.random.default_rng(5)
        assert all(source.sample(rng, "judgment").truth == "like" for _ in range(30))

    def test_oracle_reader_policy_achieves_perfect_selection(self, small_world):
        world, _, _, source = small_world
        oracle = ToySoftmaxPolicy(world, dim=world.dim)
        oracle.set_parameters(np.eye(world.dim))
        rng = np.random.default_rng(33)
        episodes = [source.sample(rng, "selection") for _ in range(300)]
        assert evaluate_policy(oracle, episodes) == 1.0

    def test_judgment_stream_balanced_and_oracle_labeled(self, small_world):
        world, _, _, source = small_world
        rng = np.random.default_rng(34)
        episodes = [source.sample(rng, "judgment") for _ in range(400)]
        likes = sum(1 for ep in episodes if ep.truth == "like")
        assert 120 < likes < 280
        for episode in episodes[:50]:
            expected = "like" if world.likes(episode.user, episode.task.item) else "dislike"
            assert episode.truth == expected

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 80),
        n_items=st.integers(1, 40),
        pool_size=st.integers(1, 40),
        stride=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_scores_equal_per_pair_dots(self, dim, n_items, pool_size, stride, seed):
        rng = np.random.default_rng(seed)
        # stride > 1 makes every item row and the user vector non-contiguous
        iv = rng.standard_normal((n_items, dim * stride))[:, ::stride]
        u = rng.standard_normal(dim * stride)[::stride]
        pool = rng.choice(n_items, size=min(pool_size, n_items), replace=False).tolist()
        reference = [float(u @ iv[j]) for j in pool]
        assert pool_scores(iv, pool, u).tolist() == reference

    def test_seeded_outputs_are_pinned(self, tmp_path):
        """Byte-level pins of a benchmark-sized dataset and a noisy world."""
        paths = write_synthetic_dataset(
            tmp_path, seed=1, n_users=2000, n_items=5000, history_length=(4, 10)
        )
        digests = {
            name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
            for name in ("interactions", "features")
        }
        assert digests == {
            "interactions": "acdb85f3a571ac4973ee55bf4fe3fbf6e5e36066f72dcb440bbac50e082ea89f",
            "features": "007b81dbd199121b386dabc37ff1730b2ccb218213853134dd510f2a59b7c7f5",
        }
        _, _, histories = generate_synthetic_world(
            300, 800, 8, seed=3, history_length=(4, 10), noise=0.3
        )
        payload = {
            "histories": [
                [h.user, [[b.item, b.timestamp, b.comment] for b in h.behaviors]] for h in histories
            ],
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == "47807f5c154fb50734d9f4718a09c0e484762933f7dc975668dfe36adcd585c5"

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_world(1, 30, 4, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_world(4, 30, 0, seed=0)

    @given(
        n_users=st.integers(0, 4),
        n_items=st.integers(0, 8),
        dim=st.integers(-1, 3),
        history_length=st.one_of(
            st.integers(1, 9),
            st.tuples(st.integers(1, 9), st.integers(1, 9)),
            st.lists(st.integers(1, 9), max_size=3).map(tuple),
        ),
        pool_size=st.integers(-1, 9),
        noise=st.floats(-1, 2) | st.sampled_from([math.nan, math.inf]),
    )
    @example(n_users=3, n_items=30, dim=2, history_length=31, pool_size=10, noise=0.0)
    @example(n_users=3, n_items=30, dim=2, history_length=(9, 4), pool_size=10, noise=0.0)
    @example(n_users=3, n_items=30, dim=2, history_length=1, pool_size=10, noise=0.0)
    @example(n_users=3, n_items=30, dim=2, history_length=(1, 3), pool_size=10, noise=0.0)
    @example(n_users=3, n_items=30, dim=2, history_length=(4, 31), pool_size=10, noise=0.0)
    @example(n_users=3, n_items=30, dim=2, history_length=(4,), pool_size=10, noise=0.0)
    @example(n_users=3, n_items=30, dim=2, history_length=(2, 3, 4), pool_size=10, noise=0.0)
    @settings(max_examples=300, deadline=None)
    def test_bad_world_settings_are_named_before_any_draw(
        self, n_users, n_items, dim, history_length, pool_size, noise
    ):
        # usable settings give valid histories; otherwise the error names a bad setting before any
        # draw, where numpy's own errors ("low >= high", "argmax of an empty sequence") would mean one ran
        span = (history_length, history_length) if isinstance(history_length, int) else history_length
        messages = {
            "n_users": f"n_users must be at least 2, got {n_users!r}",
            "n_items": f"n_items must be at least 2, got {n_items!r}",
            "dim": f"dim must be at least 1, got {dim!r}",
            "history_length": f"history_length must lie in [2, n_items={n_items}], low <= high; got {history_length!r}",
            "pool_size": f"pool_size must lie in [1, n_items={n_items}], got {pool_size!r}",
            "noise": f"noise must be a finite number >= 0, got {noise!r}",
        }
        valid = {
            "n_users": n_users >= 2,
            "n_items": n_items >= 2,
            "dim": dim >= 1,
            "history_length": len(span) == 2 and 2 <= span[0] <= span[1] <= n_items,
            "pool_size": 1 <= pool_size <= n_items,
            "noise": 0 <= noise < math.inf,
        }
        kwargs = {"history_length": history_length, "pool_size": pool_size, "noise": noise}
        named = {messages[key] for key, ok in valid.items() if not ok}
        if named:
            with pytest.raises(ValueError) as info:
                generate_synthetic_world(n_users, n_items, dim, seed=0, **kwargs)
            assert str(info.value) in named
        else:
            _, _, histories = generate_synthetic_world(n_users, n_items, dim, seed=0, **kwargs)
            assert all(len(set(h.item_ids())) == len(h) and span[0] <= len(h) <= span[1] for h in histories)

    @pytest.mark.parametrize("pool_size", [0, 31])
    def test_episode_source_rejects_a_pool_outside_the_world(self, pool_size):
        world, catalog, histories = generate_synthetic_world(4, 30, 3, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"pool_size must lie in [1, n_items=30], got {pool_size}")):
            SyntheticEpisodeSource(world, catalog, histories, EnvConfig(), pool_size=pool_size)

    def test_episode_source_rejects_m_not_below_the_pool(self):
        # the pool holds the positive, so it leaves pool_size - 1 negatives to draw from
        world, catalog, histories = generate_synthetic_world(4, 30, 3, seed=0)
        with pytest.raises(ValueError, match=re.escape("m must be below pool_size=8, got 8")):
            SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=8, m=8), pool_size=8)
        source = SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=8, m=7), pool_size=8)
        assert source.sample(np.random.default_rng(0), "selection").task.candidates.size == 8

    def test_episode_source_renders_each_profile_once_and_lazily(self, monkeypatch):
        world, catalog, histories = generate_synthetic_world(4, 30, 3, seed=0)
        profile_item = histories[0].behaviors[0].item
        partial = {item_id: item for item_id, item in catalog.items() if item_id != profile_item}
        # a catalog that misses a profile item fails the draw that renders it, not the constructor
        broken = SyntheticEpisodeSource(world, partial, histories[:1], EnvConfig(top_k=10, m=3), pool_size=10)
        for _ in range(2):  # a failed render is not cached
            with pytest.raises(ValueError, match=re.escape(f"unknown item {profile_item!r}")):
                broken.sample(np.random.default_rng(0), "judgment")

        renders = []
        original = env.render_history
        monkeypatch.setattr(env, "render_history", lambda *args: renders.append(1) or original(*args))
        source = SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=10, m=3), pool_size=10)
        rng = np.random.default_rng(1)
        drawn = [source.sample(rng, kind) for kind in ("selection", "judgment") * 30]
        assert len(renders) == len({ep.user for ep in drawn}) == len(histories)
        for ep in drawn:
            history = next(h for h in histories if h.user == ep.user)
            assert ep.profile_text == env.render_history(catalog, history.training_view().behaviors)

    def test_item_matrix_equals_the_stacked_item_vectors(self, small_world):
        world = small_world[0]
        items = [world.item_ids[row] for row in (5, 0, 59, 5)]
        assert np.array_equal(world.item_matrix(items), np.stack([world.item_vector(i) for i in items]))
        with pytest.raises(KeyError):
            world.item_matrix(["nope"])

    def test_history_length_may_equal_the_item_count(self):
        _, _, histories = generate_synthetic_world(3, 6, 2, seed=0, history_length=(5, 6), pool_size=4)
        assert all(len(set(h.item_ids())) == len(h) in (5, 6) for h in histories)


_TEXT = st.text(max_size=12)


@st.composite
def episodes(draw):
    user = draw(st.text(min_size=1, max_size=6))
    if draw(st.booleans()):
        label = draw(st.sampled_from(["like", "dislike"]))
        task = Judgment(item=draw(st.text(min_size=1, max_size=6)), label=label)
        return Episode(user, draw(_TEXT), task, draw(_TEXT))
    order = tuple(draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True)))
    positive = draw(st.sampled_from(order))
    negatives = draw(st.permutations([i for i in order if i != positive]))
    candidates = CandidateSet(positive, tuple(negatives), order, draw(st.integers(0, 2**63 - 1)))
    captions = draw(st.none() | st.lists(_TEXT, min_size=len(order), max_size=len(order)).map(tuple))
    task = Selection(candidates, captions)
    return Episode(user, draw(_TEXT), task, draw(_TEXT))


class TestEpisodeExport:
    @settings(max_examples=100, deadline=None)
    @given(eps=st.lists(episodes(), max_size=4))
    def test_export_load_round_trip_property(self, tmp_path_factory, eps):
        path = tmp_path_factory.getbasetemp() / "episodes_round_trip.jsonl"
        assert export_episodes(eps, path) == len(eps)
        assert load_episodes(path) == eps

    def test_round_trip(self, small_world, tmp_path):
        _, _, _, source = small_world
        rng = np.random.default_rng(44)
        episodes = [source.sample(rng, "selection") for _ in range(8)]
        episodes += [source.sample(rng, "judgment") for _ in range(8)]
        path = tmp_path / "episodes.jsonl"
        assert export_episodes(episodes, path) == 16
        loaded = load_episodes(path)
        assert loaded == episodes

    def test_export_bytes_are_pinned(self, bundled_catalog_histories, tmp_path):
        """All four episode paths, exported: selection and judgment pairs from a
        Markov recall on the bundled data, then an interleaved synthetic stream."""
        catalog, histories = bundled_catalog_histories
        recall = fit_markov([h.training_view() for h in histories], catalog)
        cfg = EnvConfig(top_k=10, m=3, seed=7)
        episodes = []
        for history in histories:
            episodes.append(make_episode(history, catalog, "selection", cfg, recall))
            episodes.extend(make_judgment_pair(history, catalog, cfg, recall))
        world, world_catalog, world_histories = generate_synthetic_world(
            12, 60, 4, seed=5, history_length=5, pool_size=8
        )
        source = SyntheticEpisodeSource(
            world, world_catalog, world_histories, EnvConfig(top_k=8, m=3, seed=2), pool_size=8
        )
        rng = np.random.default_rng(8)
        episodes += [source.sample(rng, kind) for kind in ["selection", "judgment"] * 300]
        path = tmp_path / "episodes.jsonl"
        assert export_episodes(episodes, path) == 750
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "539ec8f2951b59d4950cc2a8fcc38bca2396e7e08168e7ae812380087081dbf7"
        assert load_episodes(path) == episodes

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        path.write_text('{"task": "selection", "user": "u"}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_episodes(path)

    def test_bad_json_names_file_and_line(self, small_world, tmp_path):
        _, _, _, source = small_world
        path = tmp_path / "episodes.jsonl"
        export_episodes([source.sample(np.random.default_rng(45), "judgment")], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n{truncated\n")
        with pytest.raises(ValueError, match="episodes.jsonl: line 3: invalid JSON"):
            load_episodes(path)


class TestConfigValidation:
    def test_env_config_bounds(self):
        with pytest.raises(ValueError, match="m"):
            EnvConfig(top_k=10, m=0)
        with pytest.raises(ValueError, match="m"):
            EnvConfig(top_k=10, m=11)

    def test_derive_seed_pinned_values(self):
        from simrec.env import derive_seed

        # frozen: episode/prompt reproducibility depends on these not drifting
        assert derive_seed(0, "u1", "selection") == 8548205905703790788
        assert derive_seed(7, "held-out", "judgment") == 8969396491422098446
        assert derive_seed(0, "u1", "selection") != derive_seed(1, "u1", "selection")
