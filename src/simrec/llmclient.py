"""Chat-completion transport with retries, bounded concurrency, and replay.

All external model calls go through a ``Transport`` that takes the JSON
request payload and returns the JSON response body (the de-facto
``POST /v1/chat/completions`` schema). Besides the real HTTP transport there
is an in-memory mock that answers through a callable, plus recording/replay
transports so any pipeline can be re-run byte-identically without a live
endpoint.

A batch runs on at most ``max_in_flight`` plain worker threads. Each worker
takes the next request in turn, and results are handed on in input order as
soon as every earlier one is done. ``RecordingTransport`` keeps one unbuffered
append handle open from its first request and writes each row with one
``O_APPEND`` write before ``send`` returns; ``close()`` it, or use it as a
context manager, when the batch ends. No lock is taken per request: taking a
request, popping a replayed reply and storing a result are each one builtin
operation, which the GIL makes atomic; only a worker that emits takes a lock.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .core import _encode_sorted, drop_torn_last_line, iter_jsonl

T = TypeVar("T")
R = TypeVar("R")

API_KEY_ENV = "SIMREC_API_KEY"  # HttpTransport sends its value as a bearer token, when set
BACKOFF_BASE = 0.5  # seconds before the first retry; doubles per retry


class ClientError(RuntimeError):
    """Base class for chat-client failures."""


class TransportError(ClientError):
    """The endpoint could not be reached or kept failing after retries."""


class PermanentTransportError(TransportError):
    """A failure that retrying the same request cannot fix; never retried."""


class ProtocolError(ClientError):
    """The endpoint answered, but not with a usable completion."""


@dataclass(frozen=True)
class ChatMessage:
    """One conversation turn; images attach as content parts on the wire."""

    role: str
    content: str
    images: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"role must be system/user/assistant, got {self.role!r}")

    def to_wire(self) -> dict:
        if not self.images:
            return {"role": self.role, "content": self.content}
        parts: list[dict] = [{"type": "text", "text": self.content}]
        parts.extend(
            {"type": "image_url", "image_url": {"url": ref}} for ref in self.images
        )
        return {"role": self.role, "content": parts}


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("request needs at least one message")

    def to_payload(self) -> dict:
        return {
            "model": self.model,
            "messages": [m.to_wire() for m in self.messages],
            "temperature": self.temperature,
            "max_tokens": 2048,  # part of every recorded request, and so of every replay key
        }


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.timeout < math.inf:  # also rejects nan
            raise ValueError(f"timeout must be a finite number of seconds above 0, got {self.timeout!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")


class Transport:
    """Maps a chat payload to a response body; subclasses define how."""

    def send(self, payload: dict) -> dict:
        raise NotImplementedError


class HttpTransport(Transport):
    """JSON-over-HTTP transport; the auth token comes from ``API_KEY_ENV``."""

    def __init__(self, cfg: EndpointConfig) -> None:
        if not cfg.base_url:
            raise ValueError("HTTP transport needs a base URL")
        self.cfg = cfg

    def send(self, payload: dict) -> dict:
        """The decoded JSON reply; an undecodable body is a ProtocolError, not retried."""
        # imported here, so that importing simrec does not load http.client, email and ssl
        import http.client
        import urllib.error
        import urllib.request

        url = self.cfg.base_url.rstrip("/") + "/v1/chat/completions"
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(API_KEY_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(
            url, data=_encode_sorted(payload).encode("utf-8"), headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.cfg.timeout) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            exc.close()  # its unread reply holds the socket open for as long as the error lives
            if 400 <= exc.code < 500 and exc.code not in (408, 429):
                raise PermanentTransportError(f"{url}: HTTP {exc.code}") from exc
            raise TransportError(f"{url}: HTTP {exc.code}") from exc
        except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
            raise TransportError(f"{url}: {exc}") from exc
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as exc:  # also a UnicodeDecodeError
            raise ProtocolError(f"{url}: reply is not UTF-8 JSON: {exc}") from exc


class MockTransport(Transport):
    """In-memory transport that answers each payload through ``responder``.

    The responder returns a response dict or raw text, or raises. Tracks
    total and concurrent calls so tests can assert retry counts and in-flight
    bounds.
    """

    def __init__(self, responder: Callable[[dict], dict | str]) -> None:
        self._responder = responder
        self._lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.max_in_flight_seen = 0

    def send(self, payload: dict) -> dict:
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight_seen = max(self.max_in_flight_seen, self.in_flight)
        try:
            reply = self._responder(payload)
            return text_response(reply) if isinstance(reply, str) else reply
        finally:
            with self._lock:
                self.in_flight -= 1


def text_response(content: str) -> dict:
    """A minimal completion body whose first choice says ``content``."""
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class RecordingTransport(Transport):
    """Wraps another transport and appends {request, response} JSONL rows.

    The file is opened on the first ``send`` (a run that sends nothing
    creates none), unbuffered and in append mode. Each row then goes to it in
    one ``write`` before ``send`` returns, with no lock held: the kernel
    appends each write whole, so rows from concurrent sends never interleave.
    An existing file is appended to, once a torn last row left by a crash is
    cut off, so that the file still replays.
    """

    def __init__(self, inner: Transport, path: str | Path) -> None:
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()  # held only to open or close the file
        self._file: io.FileIO | None = None

    def send(self, payload: dict) -> dict:
        response = self.inner.send(payload)
        row = (_encode_sorted({"request": payload, "response": response}) + "\n").encode("utf-8")
        file = self._file
        if file is None:
            with self._lock:
                if self._file is None:
                    drop_torn_last_line(self.path)
                    self._file = open(self.path, "ab", buffering=0)
                file = self._file
        written = file.write(row)
        if written != len(row):
            raise OSError(f"{self.path}: short write, {written} of {len(row)} bytes of a row")
        return response

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> RecordingTransport:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _replay_pair(row: dict) -> tuple[str, dict]:
    if "request" not in row or "response" not in row:
        raise ValueError("replay row needs 'request' and 'response'")
    return _encode_sorted(row["request"]), row["response"]


class ReplayTransport(Transport):
    """Serves recorded responses keyed by the exact request payload.

    Repeated identical requests replay their recorded responses in order,
    each one once. An unrecorded request, or one whose recorded responses
    have all been served, is a permanent transport error.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._responses: dict[str, list[dict]] = {}
        for _, (key, response) in iter_jsonl(self.path, _replay_pair):
            self._responses.setdefault(key, []).append(response)

    def send(self, payload: dict) -> dict:
        try:
            # one list.pop, atomic under the GIL, so concurrent sends need no lock
            return self._responses.get(_encode_sorted(payload), []).pop(0)
        except IndexError:
            raise PermanentTransportError(f"{self.path}: no recorded response for request") from None


@dataclass
class ClientStats:
    """Counters complete() updates; shared across a batch."""

    requests: int = 0
    retries: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, attempts: int) -> None:
        with self._lock:
            self.requests += 1
            self.retries += attempts - 1


def complete(
    req: ChatRequest,
    cfg: EndpointConfig,
    transport: Transport,
    stats: ClientStats | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Send one chat request and return the first choice's message content.

    Transport failures are retried up to ``cfg.max_retries`` times, sleeping
    ``BACKOFF_BASE`` seconds doubled per retry, except a
    PermanentTransportError, which is raised at once; an undecodable or
    malformed success body raises ProtocolError.
    """
    payload = req.to_payload()
    last_error: TransportError | None = None
    for attempt in range(cfg.max_retries + 1):
        try:
            body = transport.send(payload)
        except (PermanentTransportError, ProtocolError):
            if stats is not None:
                stats.record(attempt + 1)
            raise
        except TransportError as exc:
            last_error = exc
            if attempt < cfg.max_retries:
                sleep(BACKOFF_BASE * (2**attempt))
            continue
        if stats is not None:
            stats.record(attempt + 1)
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion body: {exc}") from exc
        if not isinstance(content, str):
            raise ProtocolError("completion content is not text")
        return content
    assert last_error is not None
    if stats is not None:
        stats.record(cfg.max_retries + 1)
    raise TransportError(f"giving up after {cfg.max_retries + 1} attempts: {last_error}")


def complete_batch(
    reqs: Sequence[ChatRequest],
    cfg: EndpointConfig,
    transport: Transport,
    stats: ClientStats | None = None,
) -> list[str | ClientError]:
    """Complete many requests with at most ``cfg.max_in_flight`` concurrent.

    Results come back in input order regardless of completion order;
    per-request failures are returned positionally instead of aborting the
    batch.
    """

    def one(req: ChatRequest) -> str | ClientError:
        try:
            return complete(req, cfg, transport=transport, stats=stats)
        except ClientError as exc:
            return exc

    results: list[str | ClientError] = []
    _run_ordered(one, reqs, cfg.max_in_flight, results.append)
    return results


def _run_ordered(
    fn: Callable[[T], R], items: Sequence[T], workers: int, emit: Callable[[R], object]
) -> None:
    """Call ``emit(fn(item))`` for every item, in input order, on ``workers`` threads.

    At most ``min(workers, len(items))`` threads run ``fn``; each takes the
    next index from one shared iterator and stores its result. Only the
    worker whose result is next in order takes the lock, and emits every
    stored result that follows on from it, so ``emit`` runs one call at a
    time and in input order. This relies on the GIL: a worker stores its
    result, then reads ``emitted``, while the emitter advances ``emitted``,
    then looks for the next stored result, so one of the two always emits it.
    The first exception raised by ``fn``, by ``emit`` or while the caller
    waits stops new items from starting; the threads finish their current
    items, results that are next in order are still emitted unless ``emit``
    itself failed, and the exception is re-raised here.
    """
    n_threads = min(workers, len(items))
    indices = iter(range(len(items)))
    lock = threading.Lock()
    finished: dict[int, R] = {}
    emitted = 0
    error: BaseException | None = None
    emit_failed = False

    def fail(exc: BaseException) -> None:
        nonlocal error
        if error is None:
            error = exc

    def work() -> None:
        nonlocal emitted, emit_failed
        for index in indices:
            if error is not None:
                return
            try:
                result = fn(items[index])
            except BaseException as exc:
                with lock:
                    fail(exc)
                return
            finished[index] = result
            if index != emitted:
                continue  # an earlier result is still out; its emitter will emit this one
            with lock:
                while not emit_failed and emitted in finished:
                    try:
                        emit(finished.pop(emitted))
                    except BaseException as exc:
                        emit_failed = True
                        fail(exc)
                    emitted += 1

    threads = [threading.Thread(target=work, name=f"simrec-batch-{i}") for i in range(n_threads)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    except BaseException as exc:
        with lock:
            fail(exc)
        for thread in threads:
            thread.join()
    if error is not None:
        raise error
