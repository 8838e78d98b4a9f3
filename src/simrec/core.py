"""Shared domain types, dataset ingestion, and the writers of every output file.

The vocabulary used by every other module:

- Item: a catalog entry (title, optional enhanced caption, optional feature vector)
- BehaviorRecord / UserHistory: a user's chronological watched + commented sequence
- CandidateSet: the shuffled m+1 candidates for a next-video selection task
- Judgment / Selection: the two task kinds with their ground truth

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import threading
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple

logger = logging.getLogger(__name__)

ItemId = str
UserId = str

# Hard cap on enhanced-caption length (whitespace tokens). The generation
# target is 35 words; the cap leaves tolerance before rejection/truncation.
CAPTION_WORD_LIMIT = 45
CAPTION_TARGET_WORDS = 35


def word_count(text: str) -> int:
    """Number of whitespace-separated tokens; hashtag tags count per token."""
    return len(text.split())


@dataclass(frozen=True, slots=True)
class Item:
    """A catalog entry. ``feature`` is a dense unitless vector when present."""

    id: ItemId
    title: str
    enhanced_caption: str | None = None
    feature: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("item id must be non-empty")
        if self.enhanced_caption is not None:
            if not self.enhanced_caption.strip():
                raise ValueError(f"item {self.id!r}: enhanced caption must be non-empty")
            if word_count(self.enhanced_caption) > CAPTION_WORD_LIMIT:
                raise ValueError(
                    f"item {self.id!r}: caption exceeds {CAPTION_WORD_LIMIT} words"
                )
        if self.feature is not None and not all(map(math.isfinite, self.feature)):
            raise ValueError(f"item {self.id!r}: feature vector has non-finite entries")

    def display_text(self) -> str:
        """Text used to present this item in prompts: caption when available."""
        return self.enhanced_caption if self.enhanced_caption is not None else self.title


class BehaviorRecord(NamedTuple):
    """One watched video with an optional comment at an integer ordinal.

    A tuple, so cheap to build and immutable; ``UserHistory`` checks that its
    item id is non-empty.
    """

    item: ItemId
    timestamp: int
    comment: str | None = None


@dataclass(frozen=True, slots=True)
class UserHistory:
    """A user's chronological behavior sequence.

    Loaded histories always have N >= 2 (profile + prediction target); the
    type itself accepts N >= 1 so that training views (the first N-1
    behaviors) remain representable for generator fitting.
    """

    user: UserId
    behaviors: tuple[BehaviorRecord, ...]

    def __post_init__(self) -> None:
        if not self.user:
            raise ValueError("user id must be non-empty")
        if len(self.behaviors) < 1:
            raise ValueError(f"user {self.user!r}: history must be non-empty")
        if not all(b.item for b in self.behaviors):
            raise ValueError("behavior item id must be non-empty")
        stamps = [b.timestamp for b in self.behaviors]
        if any(b >= a for b, a in zip(stamps, stamps[1:])):
            raise ValueError(f"user {self.user!r}: ordinals must be strictly increasing")

    @classmethod
    def _unchecked(cls, user: UserId, behaviors: tuple[BehaviorRecord, ...]) -> "UserHistory":
        """A history built from fields already known to be valid, skipping ``__post_init__``."""
        history = _new_object(cls)
        _set_user(history, user)
        _set_behaviors(history, behaviors)
        return history

    def __len__(self) -> int:
        return len(self.behaviors)

    def target(self) -> BehaviorRecord:
        """The N-th behavior (prediction target)."""
        self._require_target()
        return self.behaviors[-1]

    def training_view(self) -> "UserHistory":
        """This history with the held-out target dropped: the first N-1 behaviors,
        which are both the user profile and the training prefix.

        A prefix of a valid history is valid, so the view skips the checks of
        ``__post_init__``.
        """
        behaviors = self.behaviors
        if len(behaviors) < 2:
            self._require_target()  # raises
        return UserHistory._unchecked(self.user, behaviors[:-1])

    def item_ids(self) -> tuple[ItemId, ...]:
        return tuple(b.item for b in self.behaviors)

    def _require_target(self) -> None:
        if len(self.behaviors) < 2:
            raise ValueError(
                f"user {self.user!r}: need at least 2 behaviors to split profile/target"
            )


# Build a UserHistory without its checks: the slot setters bypass the frozen __setattr__
# and, bound once, cost less than object.__setattr__, which looks the slot up on every call.
_new_object = object.__new__
_set_user = UserHistory.user.__set__
_set_behaviors = UserHistory.behaviors.__set__


@dataclass(frozen=True)
class CandidateSet:
    """The m+1 shuffled candidates: one positive plus m distinct negatives."""

    positive: ItemId
    negatives: tuple[ItemId, ...]
    presentation_order: tuple[ItemId, ...]
    rng_seed: int

    def __post_init__(self) -> None:
        if self.positive in self.negatives:
            raise ValueError("positive item must not appear among negatives")
        if len(set(self.negatives)) != len(self.negatives):
            raise ValueError("negatives must be distinct")
        if sorted(self.presentation_order) != sorted((self.positive, *self.negatives)):
            raise ValueError("presentation order must permute the m+1 candidates")

    @property
    def size(self) -> int:
        return len(self.negatives) + 1

    def truth_index(self) -> int:
        """1-based position of the positive item in the presentation order."""
        return self.presentation_order.index(self.positive) + 1


@dataclass(frozen=True)
class Judgment:
    """Preference-judgment task: would the user like ``item``? Truth is the label."""

    item: ItemId
    label: str  # "like" | "dislike"

    def __post_init__(self) -> None:
        if self.label not in ("like", "dislike"):
            raise ValueError(f"judgment label must be like/dislike, got {self.label!r}")


@dataclass(frozen=True)
class Selection:
    """Next-video selection task over a candidate set.

    ``captions`` holds the rendered candidate texts in presentation order so
    free-text answers can be matched back to a candidate.
    """

    candidates: CandidateSet
    captions: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.captions is not None and len(self.captions) != self.candidates.size:
            raise ValueError("captions must align with the presentation order")


TaskKind = Judgment | Selection


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


_raw_decode = json.JSONDecoder().raw_decode
_JSON_WHITESPACE = " \t\n\r"
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def _parse_jsonl_row(line: str) -> dict:
    # raw_decode of the stripped line skips json.loads's per-call overhead; a line
    # it cannot take whole goes to json.loads, whose error names the fault as before
    text = line.strip(_JSON_WHITESPACE)
    try:
        row, end = _raw_decode(text)
    except json.JSONDecodeError:
        end = -1
    if end != len(text):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON ({exc.msg})") from exc
    if not isinstance(row, dict):
        raise ValueError("expected an object")
    return row


def iter_jsonl(
    path: str | Path,
    convert: Callable[[dict], Any] | None = None,
    parse_line: Callable[[str], dict] = _parse_jsonl_row,
) -> Iterator[tuple[int, Any]]:
    """Yield ``(lineno, value)`` for every non-blank line of a line-oriented file.

    ``parse_line`` turns a line into a row (a JSON object by default), and
    ``convert``, when given, turns the row into the yielded value. A KeyError,
    TypeError, IndexError or ValueError raised by either becomes a ValueError
    that names the path and line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = parse_line(line)
                value = row if convert is None else convert(row)
            except KeyError as exc:
                raise ValueError(f"{path}: line {lineno}: missing field {exc}") from exc
            except (TypeError, IndexError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            yield lineno, value


def read_jsonl_by_item(path: str | Path, convert: Callable[[dict], tuple[ItemId, Any]]) -> dict[ItemId, Any]:
    """Read a one-row-per-item JSONL file into ``{item: value}``.

    ``convert`` turns a row into ``(item, value)``. A repeated item is a
    ValueError naming the path and line, like any malformed row.
    """
    by_item: dict[ItemId, Any] = {}

    def add(row: dict) -> None:
        item_id, value = convert(row)
        if item_id in by_item:
            raise ValueError(f"duplicate item {item_id!r}")
        by_item[item_id] = value

    for _ in iter_jsonl(path, add):
        pass
    return by_item


def _parse_tsv_row(line: str) -> dict:
    fields = line.rstrip("\n").split("\t")
    if len(fields) not in (3, 4):
        raise ValueError("expected 3 or 4 tab-separated fields")
    row = {"user": fields[0], "item": fields[1], "ord": fields[2]}
    if len(fields) == 4 and fields[3] != "":
        row["comment"] = fields[3]
    return row


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary handle on ``<path>.tmp``, then ``os.replace`` that file onto ``path``, so a
    killed run leaves ``path`` whole, old or new. If the block raises, the temp file is deleted."""
    temp = Path(f"{path}.tmp")
    try:
        with open(temp, "wb") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Stream one sorted-key JSON object per line through ``atomic_write``; returns the row count."""
    count = 0
    with atomic_write(path) as raw, io.TextIOWrapper(raw, encoding="utf-8") as handle:
        for row in rows:
            handle.write(_encode_sorted(row) + "\n")
            count += 1
    return count


def write_npz(path: str | Path, **arrays: Any) -> None:
    """Save arrays to an uncompressed ``.npz`` archive through ``atomic_write``."""
    import numpy as np  # here, so that importing core, and through it the chat client, does not load numpy
    with atomic_write(path) as handle:
        np.savez(handle, **arrays)


class JsonlAppender(AbstractContextManager):
    """Appends sorted-key JSON rows to ``path``, each in one unbuffered ``O_APPEND`` write.

    The first ``append`` cuts off a torn last row left by a crash, then opens the file. No lock
    is held per row: the kernel appends each write whole, so concurrent rows never interleave."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()  # held only to open or close the file
        self._file: io.FileIO | None = None

    def append(self, row: dict) -> None:
        data = (_encode_sorted(row) + "\n").encode("utf-8")
        file = self._file
        if file is None:
            with self._lock:
                if self._file is None:
                    drop_torn_last_line(self.path)
                    self._file = open(self.path, "ab", buffering=0)
                file = self._file
        written = file.write(data)
        if written != len(data):
            raise OSError(f"{self.path}: short write, {written} of {len(data)} bytes of a row")

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def drop_torn_last_line(path: Path) -> None:
    """Cut a last line that lacks its ``\\n`` off an append-only file, with one warning.

    A writer that dies inside a row leaves such a line; the rows before it are
    whole, so a rerun can go on from them. A missing file is left alone.
    """
    try:
        handle = path.open("r+b")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        handle.seek(max(0, size - 1))
        if handle.read(1) in (b"", b"\n"):
            return  # empty, or ends with a whole row
        handle.seek(0)
        keep = handle.read().rfind(b"\n") + 1  # just past the last whole row; 0 when there is none
        handle.truncate(keep)
    logger.warning("%s: dropped a torn last line (%d bytes)", path, size - keep)


def load_interactions(path: str | Path) -> tuple[dict[ItemId, Item], list[UserHistory]]:
    """Load an interactions file into a catalog and per-user histories.

    Rows carry user id, item id, integer ordinal, and an optional comment
    (JSONL rows may also carry an optional "title"); a ``.tsv`` path is read
    as tab-separated fields, any other path as JSONL. Histories are sorted by
    ordinal per user; users with fewer than 2 behaviors are dropped with a
    logged count. Malformed rows and duplicate (user, ordinal) pairs raise
    ValueError naming the path and line. Equal item ids and equal comments
    are one string object each, and a record's item is its catalog key.
    """
    path = Path(path)
    titles: dict[ItemId, str] = {}
    per_user: dict[UserId, dict[int, BehaviorRecord]] = {}
    shared: dict[str, str] = {}  # the first object of each distinct item id or comment

    def add(row: dict) -> None:
        user = str(row["user"])
        item = str(row["item"])
        item = shared.setdefault(item, item)
        ordinal = row["ord"]
        if type(ordinal) is not int:  # an integer string (TSV, or JSONL "3") converts; bool and float do not
            if isinstance(ordinal, (bool, float)):
                raise ValueError(f"ord must be an integer, got {json.dumps(ordinal)}")
            ordinal = int(ordinal)
        if not user:
            raise ValueError("empty user id")
        if not item:
            raise ValueError("empty item id")
        comment = row.get("comment")
        if comment is not None:
            comment = str(comment)
            if not comment.strip():
                comment = None
            else:
                comment = shared.setdefault(comment, comment)
        title = row.get("title")
        if title:
            titles[item] = str(title)
        elif item not in titles:
            titles[item] = item
        records = per_user.setdefault(user, {})
        if ordinal in records:
            raise ValueError(f"duplicate ordinal {ordinal} for user {user!r}")
        records[ordinal] = BehaviorRecord(item, ordinal, comment)

    # add() runs inside iter_jsonl so that its errors name the path and line
    for _ in iter_jsonl(path, add, _parse_tsv_row if path.suffix == ".tsv" else _parse_jsonl_row):
        pass

    histories: list[UserHistory] = []
    dropped = 0
    for user in sorted(per_user):
        records = per_user[user]
        if len(records) < 2:
            dropped += 1
            continue
        # ids checked per row, ordinals distinct and now sorted: validated once, here
        histories.append(UserHistory._unchecked(user, tuple(records[o] for o in sorted(records))))
    if dropped:
        logger.warning("dropped %d user(s) with fewer than 2 behaviors", dropped)

    catalog = {item: Item(id=item, title=title) for item, title in sorted(titles.items())}
    return catalog, histories


def _interaction_row(user: UserId, record: BehaviorRecord, item: Item | None) -> dict:
    row: dict = {"user": user, "item": record.item, "ord": record.timestamp, "comment": record.comment}
    if item is not None and item.title != item.id:
        row["title"] = item.title
    return row


def save_interactions(
    path: str | Path, catalog: dict[ItemId, Item], histories: list[UserHistory]
) -> None:
    """Write histories back to interactions JSONL (round-trips with the loader)."""
    write_jsonl(
        path,
        (
            _interaction_row(history.user, record, catalog.get(record.item))
            for history in histories
            for record in history.behaviors
        ),
    )


def attach_captions(catalog: dict[ItemId, Item], captions: str | Path) -> dict[ItemId, Item]:
    """Attach enhanced captions from a captions JSONL file.

    Rows are {"item": str, "caption": str}. Unknown item ids and invalid
    captions (missing, not a string, empty, over the word cap) are skipped
    with a warning, and the item keeps any caption it had; they are
    not fatal. Returns a new catalog; the input is unchanged.
    """
    updated = dict(catalog)
    unknown = 0
    rejected = 0
    for lineno, row in iter_jsonl(captions):
        item_id = str(row.get("item", ""))
        caption = row.get("caption")
        if item_id not in updated:
            unknown += 1
            logger.warning("%s: line %d: caption for unknown item %r", captions, lineno, item_id)
            continue
        try:
            if not isinstance(caption, str):  # missing or null would clear the caption
                raise TypeError(f"caption must be a string, got {caption!r}")
            updated[item_id] = replace(updated[item_id], enhanced_caption=caption)
        except (ValueError, TypeError) as exc:
            rejected += 1
            logger.warning("%s: line %d: rejected caption for %r (%s)", captions, lineno, item_id, exc)
    if unknown or rejected:
        logger.warning("attach_captions: %d unknown item(s), %d rejected row(s)", unknown, rejected)
    return updated
