import itertools
import pickle
import string
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simrec.core import CandidateSet, Judgment, Selection
from simrec.rewards import (
    _ENUM_PREFIX_RE,
    ANSWER_LABELS,
    ParsedResponse,
    RewardBreakdown,
    format_reward,
    judgment_reward,
    parse_response,
    render_reply,
    score_parsed,
    selection_reward,
    total_reward,
)

JUDGE = Judgment(item="v1", label="like")


def selection_task(m=3, truth_pos=2, captions=None):
    order = tuple(f"c{i}" for i in range(1, m + 2))
    positive = order[truth_pos - 1]
    negatives = tuple(i for i in order if i != positive)
    return Selection(
        candidates=CandidateSet(
            positive=positive, negatives=negatives, presentation_order=order, rng_seed=0
        ),
        captions=captions,
    )


class TestParseResponse:
    def test_well_formed_judgment(self):
        parsed = parse_response("<think>likes cooking</think><answer>Yes</answer>", JUDGE)
        assert parsed.tag_order_ok
        assert parsed.action == "yes"
        assert parsed.think_text == "likes cooking"

    def test_wrong_tag_order_still_parses_action(self):
        parsed = parse_response("<answer>2</answer><think>x</think>", selection_task())
        assert not parsed.tag_order_ok
        assert parsed.action == 2

    def test_empty_input(self):
        parsed = parse_response("", JUDGE)
        assert parsed == ParsedResponse(None, None, False, None)

    def test_first_tag_occurrence_wins(self):
        parsed = parse_response(
            "<think>a</think><answer>Yes</answer><think>b</think><answer>No</answer>", JUDGE
        )
        assert parsed.think_text == "a"
        assert parsed.action == "yes"

    def test_template_marker_not_taken_as_answer(self):
        parsed = parse_response(
            "<think>(1) User_status: ok</think><answer>(2) Next_video: 3</answer>",
            selection_task(m=3),
        )
        assert parsed.action == 3

    def test_bare_integer_answer(self):
        assert parse_response("<answer>2</answer>", selection_task()).action == 2

    def test_out_of_range_integer_yields_none(self):
        assert parse_response("<answer>7</answer>", selection_task(m=3)).action is None
        assert parse_response("<answer>0</answer>", selection_task(m=3)).action is None

    def test_exact_caption_match(self):
        task = selection_task(m=2, truth_pos=1, captions=("cat video", "dog video", "bird video"))
        assert parse_response("<answer>Dog Video</answer>", task).action == 2

    def test_integer_takes_precedence_over_caption(self):
        task = selection_task(m=2, truth_pos=1, captions=("1 cat", "dog", "bird"))
        assert parse_response("<answer>3</answer>", task).action == 3

    def test_a_bare_integer_is_compared_with_no_caption(self):
        class Unread(tuple):
            def __iter__(self):
                raise AssertionError("a caption was compared")

        task = selection_task(m=2, captions=Unread(("a", "b", "c")))
        assert parse_response("<answer>(2) Next_video: 3</answer>", task).action == 3

    @pytest.mark.parametrize(
        "answer, action",
        [("clip v001", 3), ("clip v001.", 3), ('"clip v001"', 3), ("\u201cClip V001\u201d!", 3), ("'v010'.", 1),
         ("I pick clip v001", 1), ("clip v001 is next", 1)],
    )
    def test_quoted_or_punctuated_caption_names_its_candidate(self, answer, action):
        """Only a whole answer names a caption; free text around one stays on the integer path."""
        order = ("v010", "v002", "v001")
        candidates = CandidateSet(positive="v010", negatives=order[1:], presentation_order=order, rng_seed=0)
        task = Selection(candidates=candidates, captions=("clip v010", "clip v002", "clip v001"))
        assert parse_response(f"<answer>{answer}</answer>", task).action == action

    def test_yes_no_word_boundaries(self):
        assert parse_response("<answer>I know nothing</answer>", JUDGE).action is None
        assert parse_response("<answer>no way</answer>", JUDGE).action == "no"

    def test_case_insensitive_tags_and_words(self):
        parsed = parse_response("<THINK>x</THINK><ANSWER>yEs</ANSWER>", JUDGE)
        assert parsed.tag_order_ok
        assert parsed.action == "yes"


class TestRewardTables:
    # One row per scoring branch; totals are exact, never approximate.
    CASES = [
        # (raw, task, truth, r_format, r_task)
        ("<think>t</think><answer>Yes</answer>", JUDGE, "like", 1.0, 1.0),
        ("<think>t</think><answer>No</answer>", JUDGE, "like", 1.0, -1.0),
        ("<answer>Yes</answer><think>t</think>", JUDGE, "like", 0.5, 1.0),
        ("<think>only thoughts</think>", JUDGE, "like", 0.0, -1.0),
        ("<answer>No</answer>", JUDGE, "dislike", 0.0, 1.0),
        ("no tags anywhere", JUDGE, "like", -1.0, -1.0),
        ("", JUDGE, "like", -1.0, -1.0),
        ("<think>t</think><answer>maybe?</answer>", JUDGE, "like", 1.0, -1.0),
        ("<think>t</think><answer>2</answer>", selection_task(truth_pos=2), 2, 1.0, 2.0),
        ("<think>t</think><answer>1</answer>", selection_task(truth_pos=3), 3, 1.0, -1.5),
        ("<answer>2</answer><think>t</think>", selection_task(truth_pos=2), 2, 0.5, 2.0),
        ("<think>t</think><answer>hmm</answer>", selection_task(truth_pos=1), 1, 1.0, -2.0),
    ]

    @pytest.mark.parametrize("raw,task,truth,r_format,r_task", CASES)
    def test_exact_rows(self, raw, task, truth, r_format, r_task):
        breakdown = total_reward(raw, task, truth)
        assert breakdown.r_format == r_format
        assert breakdown.r_task == r_task
        assert breakdown.total == r_format + r_task

    def test_components_match_direct_calls(self):
        raw = "<think>t</think><answer>Yes</answer>"
        parsed = parse_response(raw, JUDGE)
        assert format_reward(parsed) == 1.0
        assert judgment_reward(parsed, "like") == 1.0
        assert judgment_reward(parsed, "dislike") == -1.0

    def test_built_records_equal_constructed_ones_and_stay_frozen(self):
        # parse_response and score_parsed fill the slots directly, past __init__
        parsed = parse_response("<think>t</think><answer>Yes</answer>", JUDGE)
        assert parsed == ParsedResponse("t", "Yes", True, "yes")
        breakdown = total_reward("<think>t</think><answer>Yes</answer>", JUDGE, "like")
        assert breakdown == RewardBreakdown(r_format=1.0, r_task=1.0)
        assert hash(breakdown) == hash(RewardBreakdown(1.0, 1.0))
        assert replace(breakdown, r_task=2.0) == RewardBreakdown(1.0, 2.0)
        for record, field in ((parsed, "action"), (breakdown, "r_task")):
            assert not hasattr(record, "__dict__")
            with pytest.raises(FrozenInstanceError):
                setattr(record, field, None)
            assert pickle.loads(pickle.dumps(record)) == record

    def test_selection_reward_out_of_range_action(self):
        parsed = ParsedResponse("t", "9", True, 9)
        assert selection_reward(parsed, truth_index=1, n_candidates=4) == -2.0
        # a bool is not an index, though True == 1
        assert selection_reward(ParsedResponse("t", "1", True, True), truth_index=1, n_candidates=4) == -2.0

    def test_judgment_reward_missing_action(self):
        parsed = parse_response("<think>t</think><answer>??</answer>", JUDGE)
        assert judgment_reward(parsed, "like") == -1.0

    @pytest.mark.parametrize("action", [None, "maybe", "Yes", 1, 0, True, ("yes",), ["yes"], {"yes": 1}])
    def test_judgment_reward_scores_every_other_hand_built_action_minus_one(self, action):
        parsed = ParsedResponse("t", "x", True, action)
        assert judgment_reward(parsed, "like") == judgment_reward(parsed, "dislike") == -1.0

    @pytest.mark.parametrize("answer, truth", [("Yes", "like"), ("No", "dislike")])
    def test_rendered_reply_scores_full_marks(self, answer, truth):
        parsed = parse_response(render_reply("some status", answer), JUDGE)
        assert parsed.think_text == "(1) User_status: some status"
        assert ANSWER_LABELS[parsed.action] == truth
        assert total_reward(render_reply("s", answer), JUDGE, truth).total == 2.0
        other = "dislike" if truth == "like" else "like"
        assert total_reward(render_reply("s", answer), JUDGE, other).total == 0.0

    def test_rendered_selection_reply_names_its_index(self):
        task = selection_task(m=3, truth_pos=3)
        for index in range(1, 5):
            assert parse_response(render_reply("s", str(index)), task).action == index
        assert total_reward(render_reply("s", "3"), task, 3).total == 3.0


FORMAT_VALUES = {1.0, 0.5, 0.0, -1.0}
JUDGMENT_VALUES = {1.0, -1.0}
SELECTION_VALUES = {2.0, -1.5, -2.0}


_ALPHABET = string.ascii_letters + string.digits + " <>/"
_FRAGMENTS = ["<think>", "</think>", "<answer>", "</answer>", "Yes", "No", "3", "0", ""]


@st.composite
def transcripts(draw):
    """Up to five fragments or whole tag spans, with up to eleven noise characters spliced in.

    The spans put answers inside well-formed tags, in either order, so every
    row of the score tables is drawn often, not only by chance alignment.
    """
    fragment = st.sampled_from(_FRAGMENTS)
    body = st.lists(fragment, max_size=3).map("".join)
    span = st.builds("<{0}>{1}</{0}>".format, st.sampled_from(["think", "answer"]), body)
    parts = draw(st.lists(fragment | span, max_size=5))
    parts.insert(draw(st.integers(0, len(parts))), draw(st.text(alphabet=_ALPHABET, max_size=11)))
    return "".join(parts)


# Both judgment labels and every selection truth position, with their tables and total bounds.
_TRUTHS = [(Judgment(item="v1", label=lab), lab, JUDGMENT_VALUES, 2.0) for lab in ("like", "dislike")]
_TRUTHS += [(selection_task(truth_pos=pos), pos, SELECTION_VALUES, 3.0) for pos in range(1, 5)]


def _assert_in_tables(raw):
    for task, truth, task_values, bound in _TRUTHS:
        parsed = parse_response(raw, task)
        if isinstance(task, Judgment):
            assert parsed.action in (None, "yes", "no")
        else:
            # type(...) is int: a bool is never an index
            assert parsed.action is None or (type(parsed.action) is int and 1 <= parsed.action <= task.candidates.size)
        breakdown = total_reward(raw, task, truth)
        assert breakdown == score_parsed(parsed, task, truth)
        assert breakdown.r_format in FORMAT_VALUES
        assert breakdown.r_task in task_values
        assert -bound <= breakdown.total <= bound


@settings(max_examples=150, deadline=None)
@given(raw=transcripts())
def test_rewards_stay_in_finite_sets(raw):
    _assert_in_tables(raw)


@settings(max_examples=300, deadline=None)
@given(answer=st.text(alphabet="()0123456789 \n\tx:", max_size=16))
def test_enum_prefix_slice_equals_a_substitution(answer):
    # The selection parser slices off an anchored match of the "(2)" marker;
    # that must leave what substituting the pattern away leaves.
    prefix = _ENUM_PREFIX_RE.match(answer)
    assert (answer[prefix.end():] if prefix else answer) == _ENUM_PREFIX_RE.sub("", answer)


@st.composite
def digit_named_selections(draw):
    """A selection whose item ids ("v007") and captions ("clip v042") hold digits
    that need not be their positions."""
    numbers = draw(st.lists(st.integers(0, 999), min_size=2, max_size=8, unique=True))
    order = tuple(f"v{n:03d}" for n in numbers)
    captions = tuple(f"clip v{n:03d}" for n in draw(st.permutations(numbers)))
    candidates = CandidateSet(positive=order[0], negatives=order[1:], presentation_order=order, rng_seed=0)
    return Selection(candidates=candidates, captions=captions)


@settings(max_examples=150, deadline=None)
@given(
    task=digit_named_selections(),
    position=st.integers(1, 8),
    names_caption=st.booleans(),
    template=st.sampled_from(["{}", "(2) Next_video: {}", " {} ", '"{}"', "{}.", "(2) Next_video: '{}'!"]),
)
def test_an_exact_caption_or_item_id_answer_parses_to_its_candidate(task, position, names_caption, template):
    position = min(position, task.candidates.size)
    name = (task.captions if names_caption else task.candidates.presentation_order)[position - 1]
    raw = f"<think>t</think><answer>{template.format(name)}</answer>"
    assert parse_response(raw, task).action == position


def test_every_short_fragment_sequence_stays_in_finite_sets():
    """Exhaustive where random draws are thin: every sequence of up to four non-empty fragments."""
    for n in range(5):
        for parts in itertools.product(_FRAGMENTS[:-1], repeat=n):
            _assert_in_tables("".join(parts))
