import copy
import dataclasses
import json
import logging
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from simrec.core import (
    BehaviorRecord,
    CandidateSet,
    Item,
    UserHistory,
    _parse_jsonl_row,
    attach_captions,
    load_interactions,
    save_interactions,
    word_count,
    write_jsonl,
)
from simrec.env import load_episodes
from simrec.fixtures import write_synthetic_dataset
from simrec.ipagent import load_frame_scores
from simrec.llmclient import ReplayTransport
from simrec.recommender import load_feedback, load_item_features


@st.composite
def interaction_sets(draw):
    """A catalog and sorted per-user histories that the loader can reproduce."""
    ids = st.text(min_size=1, max_size=6)
    items = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    catalog = {i: Item(id=i, title=draw(st.just(i) | st.text(min_size=1, max_size=8))) for i in items}
    comments = st.none() | st.text(max_size=8).filter(str.strip)
    histories = []
    for user in sorted(draw(st.lists(ids, min_size=1, max_size=4, unique=True))):
        ordinals = draw(st.lists(st.integers(-(10**12), 10**12), min_size=2, max_size=5, unique=True))
        behaviors = tuple(
            BehaviorRecord(item=draw(st.sampled_from(items)), timestamp=o, comment=draw(comments))
            for o in sorted(ordinals)
        )
        histories.append(UserHistory(user=user, behaviors=behaviors))
    return catalog, histories


class TestLoadInteractions:
    def test_single_user_three_rows(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(
            path,
            [
                {"user": "u1", "item": "a", "ord": 1, "comment": None},
                {"user": "u1", "item": "b", "ord": 2, "comment": "nice"},
                {"user": "u1", "item": "c", "ord": 3, "comment": None},
            ],
        )
        catalog, histories = load_interactions(path)
        assert len(histories) == 1
        assert len(histories[0]) == 3
        assert histories[0].item_ids() == ("a", "b", "c")
        assert histories[0].behaviors[1].comment == "nice"
        assert set(catalog) == {"a", "b", "c"}

    @pytest.mark.parametrize("suffix", [".jsonl", ".tsv"])
    def test_whitespace_only_comment_loads_as_none(self, tmp_path, suffix):
        path = tmp_path / f"x{suffix}"
        rows = [("u1", "a", 1, "   "), ("u1", "b", 2, " ok ")]
        if suffix == ".tsv":
            path.write_text("".join(f"{u}\t{i}\t{o}\t{c}\n" for u, i, o, c in rows))
        else:
            write_jsonl(path, [{"user": u, "item": i, "ord": o, "comment": c} for u, i, o, c in rows])
        _, histories = load_interactions(path)
        assert [b.comment for b in histories[0].behaviors] == [None, " ok "]

    def test_single_row_user_dropped_with_count(self, tmp_path, caplog):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"user": "u1", "item": "a", "ord": 1}])
        with caplog.at_level(logging.WARNING):
            _, histories = load_interactions(path)
        assert histories == []
        assert "dropped 1 user(s)" in caplog.text

    def test_empty_item_id_names_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(
            path,
            [
                {"user": "u1", "item": "a", "ord": 1},
                {"user": "u1", "item": "", "ord": 2},
            ],
        )
        with pytest.raises(ValueError) as info:
            load_interactions(path)
        assert str(info.value) == f"{path}: line 2: empty item id"

    def test_duplicate_ordinal_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(
            path,
            [
                {"user": "u1", "item": "a", "ord": 1},
                {"user": "u1", "item": "b", "ord": 1},
            ],
        )
        with pytest.raises(ValueError, match="duplicate ordinal"):
            load_interactions(path)

    @pytest.mark.parametrize("ords", [(1.5, 2.2), (1, True), (1.9, True)], ids=["float", "bool", "float-bool"])
    def test_non_integer_ord_rejected(self, tmp_path, ords):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"user": "u1", "item": item, "ord": o} for item, o in zip("ab", ords)])
        bad = next(i for i, o in enumerate(ords, start=1) if type(o) is not int)
        with pytest.raises(ValueError) as info:
            load_interactions(path)
        assert str(info.value) == f"{path}: line {bad}: ord must be an integer, got {json.dumps(ords[bad - 1])}"

    def test_integer_string_ord_accepted(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"user": "u1", "item": "a", "ord": "2"}, {"user": "u1", "item": "b", "ord": 10}])
        _, histories = load_interactions(path)
        assert [b.timestamp for b in histories[0].behaviors] == [2, 10]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"user": "u1", "item": "a", "ord": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_interactions(path)

    def test_rows_sorted_by_ordinal(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(
            path,
            [
                {"user": "u1", "item": "b", "ord": 5},
                {"user": "u1", "item": "a", "ord": 1},
            ],
        )
        _, histories = load_interactions(path)
        assert histories[0].item_ids() == ("a", "b")

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("u1\ta\t1\t\nu1\tb\t2\tgreat watch\n")
        catalog, histories = load_interactions(path)
        assert histories[0].behaviors[0].comment is None
        assert histories[0].behaviors[1].comment == "great watch"

    def test_tsv_malformed_field_count(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("u1\ta\n")
        with pytest.raises(ValueError, match="line 1"):
            load_interactions(path)

    def test_round_trip(self, tmp_path, bundled_dataset):
        catalog, histories = load_interactions(bundled_dataset["interactions"])
        out = tmp_path / "copy.jsonl"
        save_interactions(out, catalog, histories)
        catalog2, histories2 = load_interactions(out)
        assert catalog2 == catalog
        assert histories2 == histories


    @settings(max_examples=100, deadline=None)
    @given(data=interaction_sets())
    def test_save_load_round_trip_property(self, tmp_path_factory, data):
        catalog, histories = data
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        save_interactions(path, catalog, histories)
        used = {b.item for h in histories for b in h.behaviors}
        loaded_catalog, loaded = load_interactions(path)
        assert (loaded_catalog, loaded) == ({i: catalog[i] for i in sorted(used)}, histories)
        assert_strings_shared(loaded_catalog, loaded)

    @pytest.mark.parametrize("suffix", [".jsonl", ".tsv"])
    def test_equal_ids_and_comments_are_one_object(self, tmp_path, suffix):
        rows = [("u1", "a", 1, "loved it"), ("u1", "b", 2, "meh"), ("u2", "a", 1, "loved it"),
                ("u2", "b", 2, "loved it"), ("u2", "a", 3, None), ("u3", "b", 1, "meh"), ("u3", "c", 2, "a")]
        path = tmp_path / f"x{suffix}"
        if suffix == ".tsv":
            path.write_text("".join(f"{u}\t{i}\t{o}\t{c or ''}\n" for u, i, o, c in rows))
        else:
            write_jsonl(path, [{"user": u, "item": i, "ord": o, "comment": c} for u, i, o, c in rows])
        catalog, histories = load_interactions(path)
        assert list(catalog) == ["a", "b", "c"]
        assert [b.comment for h in histories for b in h.behaviors] == [r[3] for r in rows]
        assert_strings_shared(catalog, histories)


def assert_strings_shared(catalog, histories):
    """Each record's item is its catalog key object, and equal comments are one object."""
    keys = {key: key for key in catalog}
    comments = {}
    for history in histories:
        for record in history.behaviors:
            assert record.item is keys[record.item]
            assert catalog[record.item].id is record.item
            if record.comment is not None:
                assert comments.setdefault(record.comment, record.comment) is record.comment


class TestAttachCaptions:
    def test_known_item_gets_caption(self, tmp_path):
        catalog = {"a": Item(id="a", title="t")}
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"item": "a", "caption": "brisk story # tag"}])
        updated = attach_captions(catalog, path)
        assert updated["a"].enhanced_caption == "brisk story # tag"
        assert catalog["a"].enhanced_caption is None  # input untouched

    def test_unknown_item_warns_catalog_unchanged(self, tmp_path, caplog):
        catalog = {"a": Item(id="a", title="t")}
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"item": "zz", "caption": "x"}])
        with caplog.at_level(logging.WARNING):
            updated = attach_captions(catalog, path)
        assert updated == catalog
        assert "1 unknown item(s)" in caplog.text
        assert f"{path}: line 1: caption for unknown item 'zz'" in caplog.text

    def test_empty_caption_rejected(self, tmp_path, caplog):
        # a blank, null, missing or non-string caption is rejected, and an existing caption stays
        catalog = {"a": Item(id="a", title="t", enhanced_caption="kept")}
        path = tmp_path / "c.jsonl"
        rows = [{"caption": "   "}, {"caption": None}, {}, {"caption": 123}]
        write_jsonl(path, [{"item": "a", **row} for row in rows])
        with caplog.at_level(logging.WARNING):
            updated = attach_captions(catalog, path)
        assert updated["a"].enhanced_caption == "kept"
        for lineno in range(1, 5):
            assert f"{path}: line {lineno}: rejected caption for 'a'" in caplog.text
        assert "0 unknown item(s), 4 rejected row(s)" in caplog.text

    def test_unreadable_file_errors(self):
        with pytest.raises(OSError):
            attach_captions({}, "does/not/exist.jsonl")


# A good row, then a malformed one on line 2, for each reader.
_MALFORMED = {
    "interactions-jsonl": (
        "x.jsonl",
        load_interactions,
        '{"user": "u1", "item": "a", "ord": 1}\n{"user": "u1", "item": "b"}\n',
    ),
    "interactions-tsv": ("x.tsv", load_interactions, "u1\ta\t1\nu1\tb\n"),
    "item-features": (
        "features.jsonl",
        lambda path: load_item_features({}, path),
        '{"item": "a", "vec": [1.0]}\n{"item": "b", "vec": ["x"]}\n',
    ),
    "item-features-duplicate": (
        "features.jsonl",
        lambda path: load_item_features({}, path),
        '{"item": "a", "vec": [1.0]}\n{"item": "a", "vec": [2.0]}\n',
    ),
    "feedback": ("feedback.jsonl", load_feedback, '{"user": "u1", "item": "a"}\n{"user": "u1"}\n'),
    "frame-scores": (
        "frame_scores.jsonl",
        load_frame_scores,
        '{"item": "a", "frames": [{"idx": 0, "ref": "r", "score": 0.5}]}\n'
        '{"item": "b", "frames": [{"idx": 0}]}\n',
    ),
    "frame-scores-duplicate": (
        "frame_scores.jsonl",
        load_frame_scores,
        '{"item": "a", "frames": [{"idx": 0, "ref": "r", "score": 0.5}]}\n'
        '{"item": "a", "frames": [{"idx": 0, "ref": "r", "score": 0.9}]}\n',
    ),
    "episodes": (
        "episodes.jsonl",
        load_episodes,
        '{"task": "judgment", "user": "u", "item": "a", "truth": "like", "prompt": "p", "profile": ""}\n'
        '{"task": "selection", "user": "u"}\n',
    ),
    "replay": (
        "replay.jsonl",
        ReplayTransport,
        '{"request": {"model": "m"}, "response": {}}\n{"request": {"model": "m"}}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_every_reader_names_path_and_line(tmp_path, name):
    filename, read, content = _MALFORMED[name]
    path = tmp_path / filename
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        read(path)
    assert f"{path}: line 2: " in str(info.value)
    if name.endswith("-duplicate"):
        assert str(info.value) == f"{path}: line 2: duplicate item 'a'"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# JSON whitespace and, to show they are kept, characters that str.strip() would also drop
_SPACES = st.text(alphabet=" \t\n\r\x0b\x0c\xa0\u2028\ufeff", max_size=3)


@st.composite
def jsonl_lines(draw):
    """A line as a file holds it: JSON or near-JSON text between runs of spaces."""
    body = draw(
        st.one_of(
            st.builds(json.dumps, _JSON_VALUES, ensure_ascii=st.booleans()),
            st.text(max_size=10),
            st.just("{}"),
        )
    )
    tail = draw(st.sampled_from(["", "", "x", "{}", " 1", "]", '"']))
    return draw(_SPACES) + body + draw(_SPACES) + tail + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, line: str) -> str:
    try:
        return repr(parse(line))
    except ValueError as exc:
        return str(exc)


def _loads_row(line: str) -> dict:
    """The row contract on ``json.loads``, the reference ``_parse_jsonl_row`` must match."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from exc
    if not isinstance(row, dict):
        raise ValueError("expected an object")
    return row


@settings(max_examples=300, deadline=None)
@given(line=jsonl_lines())
@example(line='  {"a": 1}\t\n')  # surrounding JSON whitespace
@example(line='{"a": 1} x\n')  # trailing data
@example(line="{} {}\n")
@example(line="{}")  # an empty object
@example(line="[1]\n")  # not an object
@example(line="\ufeff{}\n")  # a byte-order mark is no whitespace
@example(line="\x0c{}\n")
@example(line='"abc\n')  # the newline is inside the string
@example(line="\n")
def test_parse_jsonl_row_matches_json_loads(line):
    assert _outcome(_parse_jsonl_row, line) == _outcome(_loads_row, line)


_SELECTION_ROW = {
    "task": "selection",
    "user": "u",
    "profile": "",
    "prompt": "p",
    "truth": 2,
    "candidate_items": ["b", "a"],
    "negatives": ["b"],
    "rng_seed": 3,
}


@pytest.mark.parametrize("field", ["negatives", "rng_seed", "profile"])
def test_episode_row_without_required_field_names_it(tmp_path, field):
    row = {key: value for key, value in _SELECTION_ROW.items() if key != field}
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(_SELECTION_ROW) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError) as info:
        load_episodes(path)
    assert str(info.value) == f"{path}: line 2: missing field '{field}'"


def test_episode_row_truth_outside_candidates_rejected(tmp_path):
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(_SELECTION_ROW | {"truth": 0}) + "\n")
    with pytest.raises(ValueError, match="line 1: selection truth 0 is not a candidate position"):
        load_episodes(path)


def test_synthetic_dataset_regenerates_bundled_files(tmp_path):
    paths = write_synthetic_dataset(tmp_path, seed=7)  # the seed the README regenerates with
    assert sorted(p.name for p in paths.values()) == sorted(p.name for p in DATA_DIR.iterdir())
    for path in paths.values():
        assert path.read_bytes() == (DATA_DIR / path.name).read_bytes(), path.name


class TestTypes:
    def test_item_rejects_over_limit_caption(self):
        with pytest.raises(ValueError, match="exceeds"):
            Item(id="a", title="t", enhanced_caption=" ".join(["w"] * 46))

    def test_item_rejects_non_finite_feature(self):
        with pytest.raises(ValueError, match="finite"):
            Item(id="a", title="t", feature=(1.0, float("nan")))

    def test_history_requires_strict_order(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            UserHistory(
                user="u",
                behaviors=(
                    BehaviorRecord(item="a", timestamp=1),
                    BehaviorRecord(item="b", timestamp=1),
                ),
            )

    def test_behavior_record_is_immutable(self):
        record = BehaviorRecord(item="a", timestamp=1)
        assert record.comment is None
        for field in ("item", "timestamp", "comment"):
            with pytest.raises(AttributeError):
                setattr(record, field, "b")

    def test_history_rejects_an_empty_item_id(self):
        with pytest.raises(ValueError, match="^behavior item id must be non-empty$"):
            UserHistory(user="u", behaviors=(BehaviorRecord(item="a", timestamp=1), BehaviorRecord(item="", timestamp=2)))

    def test_item_and_history_hold_no_instance_dict(self):
        history = UserHistory(user="u", behaviors=(BehaviorRecord("a", 1), BehaviorRecord("b", 2)))
        for value in (Item(id="a", title="t"), history, history.training_view()):
            assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize(
        "value, key",
        [
            (Item(id="a", title="t", enhanced_caption="a caption", feature=(0.5, -1.0)), "id"),
            (UserHistory(user="u", behaviors=(BehaviorRecord("a", 1, "nice"), BehaviorRecord("b", 2))), "user"),
        ],
    )
    def test_item_and_history_keep_value_semantics(self, value, key):
        for twin in (dataclasses.replace(value), copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
        changed = dataclasses.replace(value, **{key: "x"})
        assert getattr(changed, key) == "x" and changed != value
        with pytest.raises(ValueError, match="must be non-empty"):
            dataclasses.replace(value, **{key: ""})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, key, "x")

    def test_training_view_of_a_single_behavior_names_the_user(self):
        history = UserHistory(user="u", behaviors=(BehaviorRecord("a", 1),))
        with pytest.raises(ValueError, match="^user 'u': need at least 2 behaviors to split profile/target$"):
            history.training_view()

    def test_history_split(self):
        history = UserHistory(
            user="u",
            behaviors=tuple(BehaviorRecord(item=f"i{k}", timestamp=k) for k in range(1, 5)),
        )
        assert [b.item for b in history.training_view().behaviors] == ["i1", "i2", "i3"]
        assert history.target().item == "i4"
        assert history.training_view().item_ids() == ("i1", "i2", "i3")

    def test_candidate_set_invariants(self):
        with pytest.raises(ValueError, match="positive"):
            CandidateSet(positive="a", negatives=("a",), presentation_order=("a", "a"), rng_seed=0)
        with pytest.raises(ValueError, match="permute"):
            CandidateSet(positive="a", negatives=("b",), presentation_order=("a", "c"), rng_seed=0)
        cs = CandidateSet(positive="a", negatives=("b", "c"), presentation_order=("c", "a", "b"), rng_seed=0)
        assert cs.truth_index() == 2
        assert cs.size == 3

    def test_word_count_splits_on_whitespace(self):
        assert word_count("a tight story # thriller movie") == 6
