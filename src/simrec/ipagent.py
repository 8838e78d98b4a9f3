"""Staged item-perception pipeline: keyframes -> perception -> caption.

Frame-text similarity scores are consumed from files (an external embedding
tool produces them); from the scores onward the pipeline is: pick the top
frames, hold one three-turn conversation with a multimodal chat endpoint
(focus on title-relevant content, extract the key information, then compress
into a recommendation-oriented caption), and enforce the caption word cap
with one corrective re-prompt before truncating.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    CAPTION_TARGET_WORDS,
    CAPTION_WORD_LIMIT,
    Item,
    ItemId,
    _encode_sorted,
    drop_torn_last_line,
    iter_jsonl,
    read_jsonl_by_item,
    word_count,
    write_jsonl,
)
from .llmclient import (
    ChatMessage,
    ChatRequest,
    ClientError,
    ClientStats,
    EndpointConfig,
    Transport,
    _run_ordered,
    complete,
)

logger = logging.getLogger(__name__)

KEYFRAME_COUNT = 3
DEFAULT_CAPTION_MODEL = "item-perception"

FOCUS_PROMPT = (
    "You are a helpful assistant to help to understand a video. These are key frames "
    "from a video, and the title of the video is: {title}. Pay special attention to "
    "content related to the title."
)
PERCEPTION_PROMPT = (
    "Based on the textual and visual contents, identify what visual content aligns "
    "with or extends beyond the title's description, note any discrepancies or "
    "additional context provided by the visuals. Now combined with your knowledge "
    "and understanding, give the key information about the video, including: main "
    "characters, core event and emotional appeal."
)
SUMMARY_PROMPT = (
    "If you want to recommend the video, create a concise summary within "
    f"{CAPTION_TARGET_WORDS} words on what the viewer would be interested in, "
    "following this format: [Core Content Description] + [Refined Tags]. The content "
    "should be clear and elegant, and tags should be brief and accurate to reflect "
    'the video topic. Here is a good example: "the girl just drove the wrong way, '
    'but did not expect to encounter terrible things # thriller movie # movie commentary"'
)
LIMIT_REMINDER = (
    f"Your summary is too long. Rewrite it within {CAPTION_TARGET_WORDS} words, "
    "keeping the format [Core Content Description] + [Refined Tags]."
)


class PipelineError(RuntimeError):
    """A per-item pipeline failure; carries the failing stage."""

    def __init__(self, item: ItemId, stage: str, reason: str) -> None:
        super().__init__(f"item {item!r}, stage {stage!r}: {reason}")
        self.stage = stage


@dataclass(frozen=True)
class FrameScore:
    index: int
    ref: str
    score: float


@dataclass(frozen=True)
class FrameScores:
    """Similarity scores between a video's sampled frames and its title."""

    item: ItemId
    frames: tuple[FrameScore, ...]

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError(f"item {self.item!r}: need at least one scored frame")
        if not all(math.isfinite(f.score) for f in self.frames):
            raise ValueError(f"item {self.item!r}: frame scores must be finite")


def select_keyframes(scores: FrameScores) -> tuple[FrameScore, ...]:
    """The ``KEYFRAME_COUNT`` highest-scoring frames, descending; ties go to the lower index.

    Returns every frame when fewer exist.
    """
    ranked = sorted(scores.frames, key=lambda f: (-f.score, f.index))
    return tuple(ranked[:KEYFRAME_COUNT])


def _ask(
    item: ItemId,
    stage: str,
    messages: list[ChatMessage],
    model: str,
    cfg: EndpointConfig,
    transport: Transport,
    stats: ClientStats | None,
) -> str:
    request = ChatRequest(model=model, messages=tuple(messages))
    reply = complete(request, cfg, transport=transport, stats=stats)
    if not reply.strip():
        raise PipelineError(item, stage, "empty model reply")
    messages.append(ChatMessage(role="assistant", content=reply))
    return reply


def run_ip_pipeline(
    item: Item,
    keyframes: tuple[FrameScore, ...],
    cfg: EndpointConfig,
    transport: Transport,
    model: str = DEFAULT_CAPTION_MODEL,
    stats: ClientStats | None = None,
) -> str:
    """Run the three-turn conversation for one item and return its caption.

    The final reply must fit ``CAPTION_WORD_LIMIT`` words; one corrective
    re-prompt is attempted, after which the caption is truncated with a warning.
    The stage replies stay in the conversation, and so in any recording.
    """
    messages = [
        ChatMessage(
            role="user",
            content=FOCUS_PROMPT.format(title=item.title),
            images=tuple(f.ref for f in keyframes),
        )
    ]
    _ask(item.id, "focus", messages, model, cfg, transport, stats)
    messages.append(ChatMessage(role="user", content=PERCEPTION_PROMPT))
    _ask(item.id, "perception", messages, model, cfg, transport, stats)
    messages.append(ChatMessage(role="user", content=SUMMARY_PROMPT))
    caption = _ask(item.id, "summary", messages, model, cfg, transport, stats)

    if word_count(caption) > CAPTION_WORD_LIMIT:
        messages.append(ChatMessage(role="user", content=LIMIT_REMINDER))
        caption = _ask(item.id, "summary-retry", messages, model, cfg, transport, stats)
        if word_count(caption) > CAPTION_WORD_LIMIT:
            logger.warning(
                "item %r: caption still over %d words after retry; truncating",
                item.id,
                CAPTION_WORD_LIMIT,
            )
            caption = " ".join(caption.split()[:CAPTION_WORD_LIMIT])
    return caption


def _frame_scores_row(row: dict) -> tuple[ItemId, FrameScores]:
    frames = tuple(
        FrameScore(index=int(f["idx"]), ref=str(f["ref"]), score=float(f["score"]))
        for f in row["frames"]
    )
    item_id = str(row["item"])
    return item_id, FrameScores(item=item_id, frames=frames)


def load_frame_scores(path: str | Path) -> dict[ItemId, FrameScores]:
    """Read frame-score JSONL: {"item": str, "frames": [{"idx","ref","score"}]}.

    A repeated item is a ValueError naming the path and line.
    """
    return read_jsonl_by_item(path, _frame_scores_row)


@dataclass
class BatchReport:
    """Outcome of a batch augmentation run."""

    written: int = 0
    skipped: int = 0
    failures: list[tuple[ItemId, str]] = field(default_factory=list)


def _caption_row_item(row: dict) -> ItemId:
    if "item" not in row:
        raise ValueError("caption row has no 'item'")
    return str(row["item"])


def _existing_caption_items(path: Path) -> set[ItemId]:
    if not path.exists():
        return set()
    return {item_id for _, item_id in iter_jsonl(path, _caption_row_item)}


def batch_augment(
    catalog: dict[ItemId, Item],
    frame_scores: str | Path,
    cfg: EndpointConfig,
    transport: Transport,
    out_path: str | Path,
    model: str = DEFAULT_CAPTION_MODEL,
    parallelism: int = 1,
    stats: ClientStats | None = None,
) -> BatchReport:
    """Caption every item in the ``frame_scores`` file, appending rows to ``out_path`` incrementally.

    Resumable: a torn last row left by a crash is cut off, then items that
    already have a caption row in the output are skipped. Items missing from
    the catalog and per-item pipeline errors land in the failure report; the
    batch continues. Up to ``parallelism`` items are
    captioned at once, and each row is written and flushed as soon as every
    earlier item is done, in sorted item order, so an interrupted run leaves
    a sorted prefix on disk. A run that adds rows to an earlier run's ends by
    rewriting the file in item order (a temp file, then ``os.replace``), so
    a rerun after failures or a crash gives the one-shot bytes.
    """
    scores = load_frame_scores(frame_scores)
    out_path = Path(out_path)
    report = BatchReport()
    drop_torn_last_line(out_path)
    done = _existing_caption_items(out_path)

    todo: list[ItemId] = []
    for item_id in sorted(scores):
        if item_id in done:
            report.skipped += 1
        elif item_id not in catalog:
            report.failures.append((item_id, "unknown item"))
        else:
            todo.append(item_id)

    def caption_one(item_id: ItemId) -> tuple[ItemId, str | PipelineError | ClientError]:
        try:
            return item_id, run_ip_pipeline(
                catalog[item_id],
                select_keyframes(scores[item_id]),
                cfg,
                transport,
                model=model,
                stats=stats,
            )
        except (PipelineError, ClientError) as exc:
            return item_id, exc

    with out_path.open("a", encoding="utf-8") as handle:

        def write(outcome: tuple[ItemId, str | PipelineError | ClientError]) -> None:
            item_id, result = outcome
            if isinstance(result, PipelineError):
                report.failures.append((item_id, result.stage))
            elif isinstance(result, ClientError):
                report.failures.append((item_id, f"transport: {result}"))
            else:
                handle.write(_encode_sorted({"item": item_id, "caption": result}) + "\n")
                handle.flush()
                report.written += 1

        _run_ordered(caption_one, todo, parallelism, write)
    if done and report.written:
        # this run's rows follow the earlier runs' rows: restore the one-shot order
        temp = out_path.with_name(out_path.name + ".tmp")
        write_jsonl(temp, sorted((row for _, row in iter_jsonl(out_path)), key=_caption_row_item))
        os.replace(temp, out_path)
    return report
