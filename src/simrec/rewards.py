"""Transcript parsing and verifiable reward scoring.

Agent responses follow the two-tag transcript convention::

    <think> reasoning, including "(1) User_status: ..." </think>
    <answer> the final answer, e.g. "(2) Next_video: 3" or "Yes" </answer>

``render_reply`` writes that form. ``parse_response`` decomposes any text
into the tag spans and a legal action: ``"yes"``/``"no"`` for a judgment
(``ANSWER_LABELS`` maps it to the like/dislike label it predicts), a 1-based
candidate index (an ``int``) for a selection, or ``None`` when no legal
action parses. The reward functions score format compliance and task
correctness from finite score tables, ``score_parsed`` composes them for a
parsed response, and ``total_reward`` parses and scores raw text. All
functions are pure and never raise on arbitrary input text.

Score tables:

- format: 1 (both tags, correct order), 0.5 (both tags, wrong order),
  0 (exactly one tag), -1 (no tags / empty input)
- judgment: +1 on a correct Yes/No, -1 on mismatch or no parseable action
- selection: +2 on the correct candidate, -1.5 on a wrong candidate,
  -2 when no candidate can be parsed
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Judgment, Selection, TaskKind

_THINK_RE = re.compile(r"<think>(.*?)</think>", re.IGNORECASE | re.DOTALL)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.IGNORECASE | re.DOTALL)
_YES_NO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_ENUM_PREFIX_RE = re.compile(r"^\s*\(\d+\)\s*")
_NEXT_VIDEO_RE = re.compile(r"next[_\s]?video\s*:?", re.IGNORECASE)
_INT_RE = re.compile(r"[-+]?\d+")
_QUOTES = "\"'`\u2018\u2019\u201c\u201d"
_CLOSING = _QUOTES + ".,;:!?"

ANSWER_LABELS = {"yes": "like", "no": "dislike"}


@dataclass(frozen=True, slots=True)
class ParsedResponse:
    """Structured decomposition of one agent transcript.

    ``action`` is "yes"/"no" for a judgment, a 1-based candidate index for a
    selection, and None when no legal action parses.
    """

    think_text: str | None
    answer_text: str | None
    tag_order_ok: bool
    action: str | int | None


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    """Format + task reward components; total is always their exact sum."""

    r_format: float
    r_task: float

    @property
    def total(self) -> float:
        return self.r_format + self.r_task


# Build the two records without the frozen __init__'s object.__setattr__ per field: the
# slot setters bypass the frozen __setattr__ and, bound once, are cheaper (see core).
_new_object = object.__new__
_set_think_text = ParsedResponse.think_text.__set__
_set_answer_text = ParsedResponse.answer_text.__set__
_set_tag_order_ok = ParsedResponse.tag_order_ok.__set__
_set_action = ParsedResponse.action.__set__
_set_r_format = RewardBreakdown.r_format.__set__
_set_r_task = RewardBreakdown.r_task.__set__


def render_reply(status: str, answer: str) -> str:
    """The two-tag transcript ``parse_response`` reads: a user status, then the answer."""
    return f"<think>(1) User_status: {status}</think><answer>(2) Next_video: {answer}</answer>"


def _parse_judgment_action(answer: str) -> str | None:
    match = _YES_NO_RE.search(answer)
    return None if match is None else match.group(1).lower()


def _bare_name(text: str) -> str:
    """``text`` without surrounding quotes, trailing sentence punctuation or case."""
    return text.strip().lstrip(_QUOTES).rstrip(_CLOSING).casefold()


def _parse_selection_action(answer: str, task: Selection) -> int | None:
    # The "(2)" in the response template is a list marker, not the answer.
    prefix = _ENUM_PREFIX_RE.match(answer)
    body = answer[prefix.end():] if prefix is not None else answer
    marker = _NEXT_VIDEO_RE.search(body)
    if marker is not None:
        body = body[marker.end():]
    body = body.strip()
    int_match = _INT_RE.search(body)
    if body and (int_match is None or len(int_match.group(0)) != len(body)):
        # Not a bare integer: an exact caption or item id names its candidate,
        # even when it holds digits ("clip v010"), is quoted or ends a sentence.
        needle = _bare_name(body)
        if task.captions is not None:
            for pos, caption in enumerate(task.captions, start=1):
                if _bare_name(caption) == needle:
                    return pos
        for pos, item_id in enumerate(task.candidates.presentation_order, start=1):
            if _bare_name(item_id) == needle:
                return pos
    if int_match is None:
        return None
    index = int(int_match.group(0))
    return index if 1 <= index <= task.candidates.size else None


def parse_response(raw: str, task: TaskKind) -> ParsedResponse:
    """Parse an arbitrary transcript into tag spans and a legal action.

    Deterministic: only the first occurrence of each tag is honored. Content
    that yields no legal action parses to ``action=None`` rather than raising.
    """
    think = _THINK_RE.search(raw)
    answer = _ANSWER_RE.search(raw)
    think_text = answer_text = None
    action: str | int | None = None
    tag_order_ok = False

    if think is not None:
        think_text = think.group(1).strip()
        tag_order_ok = answer is not None and think.start() < answer.start()

    if answer is not None:
        answer_text = answer.group(1).strip()
    if answer_text:
        if isinstance(task, Judgment):
            action = _parse_judgment_action(answer_text)
        elif isinstance(task, Selection):
            action = _parse_selection_action(answer_text, task)
        else:
            raise TypeError(f"unknown task kind: {task!r}")

    parsed = _new_object(ParsedResponse)
    _set_think_text(parsed, think_text)
    _set_answer_text(parsed, answer_text)
    _set_tag_order_ok(parsed, tag_order_ok)
    _set_action(parsed, action)
    return parsed


def format_reward(parsed: ParsedResponse) -> float:
    """Score transcript structure: 1, 0.5, 0, or -1 (see module table)."""
    has_think = parsed.think_text is not None
    has_answer = parsed.answer_text is not None
    if has_think and has_answer:
        return 1.0 if parsed.tag_order_ok else 0.5
    if has_think or has_answer:
        return 0.0
    return -1.0


def judgment_reward(parsed: ParsedResponse, truth: str) -> float:
    """+1 when the Yes/No action matches the like/dislike truth, else -1."""
    if truth not in ("like", "dislike"):
        raise ValueError(f"judgment truth must be like/dislike, got {truth!r}")
    # a hand-built action that is not a string need not be hashable
    predicted = ANSWER_LABELS.get(parsed.action) if isinstance(parsed.action, str) else None
    return 1.0 if predicted == truth else -1.0


def selection_reward(parsed: ParsedResponse, truth_index: int, n_candidates: int) -> float:
    """+2 for the correct candidate, -1.5 for a wrong one, -2 when unparseable.

    An index outside [1, n_candidates] scores -2 like a missing action.
    ``parse_response`` already rejects out-of-range indices, so the bound here
    only matters for hand-built actions.
    """
    index = parsed.action
    # type(...) is int, so that a bool is not an index
    if type(index) is not int or not 1 <= index <= n_candidates:
        return -2.0
    if index == truth_index:
        return 2.0
    return -1.5


def score_parsed(parsed: ParsedResponse, task: TaskKind, truth: str | int) -> RewardBreakdown:
    """Compose format + task rewards of a response parsed for ``task``."""
    if isinstance(task, Judgment):
        r_task = judgment_reward(parsed, str(truth))
    else:
        r_task = selection_reward(parsed, int(truth), task.candidates.size)
    breakdown = _new_object(RewardBreakdown)
    _set_r_format(breakdown, format_reward(parsed))
    _set_r_task(breakdown, r_task)
    return breakdown


def total_reward(raw: str, task: TaskKind, truth: str | int) -> RewardBreakdown:
    """Parse ``raw`` and compose format + task rewards for the given task."""
    return score_parsed(parse_response(raw, task), task, truth)
