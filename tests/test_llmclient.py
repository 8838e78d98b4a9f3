import http.client
import io
import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, reply
from responders import scripted_mock
from simrec.llmclient import (
    ChatMessage,
    ChatRequest,
    ClientError,
    ClientStats,
    EndpointConfig,
    HttpTransport,
    MockTransport,
    PermanentTransportError,
    ProtocolError,
    RecordingTransport,
    ReplayTransport,
    TransportError,
    _run_ordered,
    complete,
    complete_batch,
    text_response,
)


def request(text="hi", model="m"):
    return ChatRequest(model=model, messages=(ChatMessage(role="user", content=text),))


CFG = EndpointConfig(max_retries=3, max_in_flight=3)


class TestComplete:
    def test_canned_reply(self):
        transport = scripted_mock(["ok"])
        assert complete(request(), CFG, transport=transport) == "ok"

    def test_success_after_two_retries(self):
        transport = scripted_mock([TransportError("HTTP 500"), TransportError("HTTP 500"), "fine"])
        stats = ClientStats()
        sleeps = []
        assert complete(request(), CFG, transport=transport, stats=stats, sleep=sleeps.append) == "fine"
        assert transport.calls == 3
        assert stats.retries == 2
        assert sleeps == [0.5, 1.0]

    def test_all_attempts_fail_names_endpoint(self):
        transport = scripted_mock([TransportError("https://api.example/v1: timeout")] * 4)
        sleeps = []
        with pytest.raises(TransportError, match="api.example"):
            complete(request(), CFG, transport=transport, sleep=sleeps.append)
        assert transport.calls == 4  # initial + 3 retries
        assert sleeps == [0.5, 1.0, 2.0]

    def test_backoff_schedule(self):
        sleeps = []
        transport = scripted_mock([TransportError("x")] * 3 + ["done"])
        cfg = EndpointConfig(max_retries=3)
        complete(request(), cfg, transport=transport, sleep=sleeps.append)
        assert sleeps == [0.5, 1.0, 2.0]

    def test_permanent_error_is_not_retried(self):
        sleeps = []
        stats = ClientStats()
        transport = scripted_mock([PermanentTransportError("HTTP 404")])
        cfg = EndpointConfig(max_retries=3)
        with pytest.raises(PermanentTransportError, match="404"):
            complete(request(), cfg, transport=transport, stats=stats, sleep=sleeps.append)
        assert transport.calls == 1
        assert sleeps == []
        assert (stats.requests, stats.retries) == (1, 0)

    def test_replay_miss_is_not_retried(self, tmp_path):
        log = tmp_path / "replay.jsonl"
        log.write_text("")
        sends = []

        class CountingReplay(ReplayTransport):
            def send(self, payload):
                sends.append(payload)
                return super().send(payload)

        sleeps = []
        stats = ClientStats()
        cfg = EndpointConfig(max_retries=3)
        with pytest.raises(PermanentTransportError, match="no recorded response"):
            complete(request(), cfg, transport=CountingReplay(log), stats=stats, sleep=sleeps.append)
        assert len(sends) == 1
        assert sleeps == []
        assert stats.retries == 0

    @pytest.mark.parametrize("code, retried", [(400, False), (401, False), (404, False),
                                               (408, True), (429, True), (500, True), (503, True)])
    def test_http_status_decides_retry(self, monkeypatch, code, retried):
        def refuse(req, timeout):
            raise urllib.error.HTTPError(req.full_url, code, "refused", None, None)

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        sleeps = []
        cfg = EndpointConfig(base_url="http://endpoint.invalid", max_retries=2)
        with pytest.raises(TransportError, match=f"HTTP {code}") as info:
            complete(request(), cfg, transport=HttpTransport(cfg), sleep=sleeps.append)
        assert isinstance(info.value, PermanentTransportError) is not retried
        assert sleeps == ([0.5, 1.0] if retried else [])

    @pytest.mark.parametrize("body", [b"not json", b"\xff\xfe{}"])
    def test_undecodable_http_reply_fails_only_its_request(self, monkeypatch, body):
        sent = []

        def reply(req, timeout):
            text = json.loads(req.data)["messages"][0]["content"]
            sent.append(text)
            return io.BytesIO(body if text == "bad" else json.dumps(text_response("ok")).encode())

        monkeypatch.setattr(urllib.request, "urlopen", reply)
        stats = ClientStats()
        cfg = EndpointConfig(base_url="http://endpoint.invalid", max_retries=2, max_in_flight=1)
        results = complete_batch(
            [request(t) for t in ("a", "bad", "c")], cfg, transport=HttpTransport(cfg), stats=stats
        )
        assert results[0] == results[2] == "ok"
        assert isinstance(results[1], ProtocolError)
        assert sent == ["a", "bad", "c"]  # not retried
        assert (stats.requests, stats.retries) == (3, 0)

    def test_cut_off_http_reply_is_retried(self, monkeypatch):
        class CutOff(io.BytesIO):
            def read(self, *args):
                raise http.client.IncompleteRead(b'{"cho', 40)

        replies = [CutOff(), io.BytesIO(json.dumps(text_response("ok")).encode())]
        monkeypatch.setattr(urllib.request, "urlopen", lambda req, timeout: replies.pop(0))
        sleeps = []
        cfg = EndpointConfig(base_url="http://endpoint.invalid", max_retries=2)
        assert complete(request(), cfg, transport=HttpTransport(cfg), sleep=sleeps.append) == "ok"
        assert sleeps == [0.5]

    def test_empty_choices_is_protocol_error(self):
        transport = scripted_mock([{"choices": []}])
        with pytest.raises(ProtocolError):
            complete(request(), CFG, transport=transport)

    def test_http_transport_requires_url(self):
        with pytest.raises(ValueError, match="base URL"):
            HttpTransport(CFG)

    @pytest.mark.parametrize("timeout", [0, -1.0, math.inf, math.nan])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match="^timeout must be a finite number of seconds above 0"):
            EndpointConfig(timeout=timeout)


OK_BODY = json.dumps(text_response("ok")).encode()


def hang(handler):
    """Answer nothing until the test ends, so the client's timeout fires first."""
    handler.server.done.wait(10)


def hang_up(handler):
    """Close the connection without a status line."""


class TestHttpOverLoopback:
    """``HttpTransport`` against a real socket: each fault reaches its retry or no-retry branch."""

    def complete(self, loopback, *replies, max_retries=2, timeout=10.0):
        loopback.replies.extend(replies)
        cfg = EndpointConfig(base_url=loopback.url, timeout=timeout, max_retries=max_retries)
        sleeps = []
        try:
            return complete(request(), cfg, transport=HttpTransport(cfg), sleep=sleeps.append), sleeps
        finally:
            assert all(body == request().to_payload() for _, body in loopback.requests)

    @pytest.mark.parametrize("code", [429, 503])
    def test_overload_then_success_is_retried(self, loopback, code):
        assert self.complete(loopback, reply(code), reply(200, OK_BODY)) == ("ok", [0.5])
        assert len(loopback.requests) == 2

    def test_bad_request_is_permanent(self, loopback):
        with pytest.raises(PermanentTransportError, match="HTTP 400"):
            self.complete(loopback, reply(400))
        assert len(loopback.requests) == 1

    @pytest.mark.parametrize(
        "fault", [hang, reply(200, OK_BODY[:10], length=len(OK_BODY)), hang_up], ids=["timeout", "short-body", "closed"]
    )
    def test_socket_fault_is_retried_then_a_transport_error(self, loopback, fault):
        with pytest.raises(TransportError, match="giving up after 2 attempts") as info:
            self.complete(loopback, fault, fault, max_retries=1, timeout=0.2)
        assert not isinstance(info.value, PermanentTransportError)
        assert len(loopback.requests) == 2

    def test_non_utf8_body_is_a_protocol_error_not_retried(self, loopback):
        with pytest.raises(ProtocolError, match="not UTF-8 JSON"):
            self.complete(loopback, reply(200, b"\xff\xfe{}"))
        assert len(loopback.requests) == 1

    def test_bearer_token_only_when_the_key_is_set(self, loopback, monkeypatch):
        monkeypatch.setenv("SIMREC_API_KEY", "sk-test")
        assert self.complete(loopback, reply(200, OK_BODY))[0] == "ok"
        monkeypatch.delenv("SIMREC_API_KEY")
        assert self.complete(loopback, reply(200, OK_BODY))[0] == "ok"
        (with_key, _), (without_key, _) = loopback.requests
        assert with_key["Authorization"] == "Bearer sk-test"
        assert "Authorization" not in without_key
        assert with_key["Content-Type"] == without_key["Content-Type"] == "application/json"


def sleeping(seconds, answer):
    """A responder that sleeps ``seconds``, inside the mock's in-flight count, then answers ``answer(payload)``."""

    def responder(payload):
        time.sleep(seconds)
        return answer(payload)

    return responder


class TestCompleteBatch:
    def test_bounded_concurrency(self):
        transport = MockTransport(responder=sleeping(0.01, lambda payload: "r"))
        results = complete_batch([request(str(i)) for i in range(10)], CFG, transport=transport)
        assert results == ["r"] * 10
        assert transport.max_in_flight_seen <= CFG.max_in_flight

    def test_results_in_input_order(self):
        transport = MockTransport(responder=sleeping(0.005, lambda payload: payload["messages"][0]["content"]))
        texts = [f"msg-{i}" for i in range(12)]
        results = complete_batch([request(t) for t in texts], CFG, transport=transport)
        assert results == texts

    def test_one_failure_is_positional(self):
        def responder(payload):
            if payload["messages"][0]["content"] == "bad":
                raise TransportError("boom")
            return "good"

        cfg = EndpointConfig(max_retries=0, max_in_flight=2)
        reqs = [request(t) for t in ("a", "bad", "c", "d", "e")]
        results = complete_batch(reqs, cfg, transport=MockTransport(responder=responder))
        assert [isinstance(r, ClientError) for r in results] == [False, True, False, False, False]
        assert results[0] == "good"

    def test_empty_batch(self):
        assert complete_batch([], CFG, transport=scripted_mock([])) == []

    def test_non_client_error_reaches_the_caller(self):
        def responder(payload):
            if payload["messages"][0]["content"] == "bug":
                raise KeyError("responder bug")
            return "fine"

        reqs = [request(t) for t in ("a", "b", "bug", "c", "d")]
        with pytest.raises(KeyError, match="responder bug"):
            complete_batch(reqs, CFG, transport=MockTransport(responder=responder))


class Concurrency:
    """Calls ``fn`` and counts how many calls overlap."""

    def __init__(self, fn):
        self.fn = fn
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def __call__(self, item):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            return self.fn(item)
        finally:
            with self.lock:
                self.active -= 1


def slow_square(item):
    index, pause = item
    time.sleep(pause)
    return index * index


class TestRunOrdered:
    @settings(max_examples=60, deadline=None)
    @given(
        pauses=st.lists(st.floats(0, 0.001), max_size=40),
        workers=st.integers(1, 4),
    )
    def test_emits_in_input_order_within_the_worker_bound(self, pauses, workers):
        items = list(enumerate(pauses))
        fn = Concurrency(slow_square)
        emitted = []
        _run_ordered(fn, items, workers, emitted.append)
        assert emitted == [slow_square((i, 0)) for i, _ in items]
        assert fn.peak <= workers

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exception_at_item_k_stops_the_batch(self, workers):
        k = 7

        def fn(item):
            time.sleep(0.001 * (item % 3))
            if item == k:
                raise RuntimeError(f"item {item}")
            return item

        emitted = []
        with pytest.raises(RuntimeError, match=f"item {k}"):
            _run_ordered(fn, list(range(20)), workers, emitted.append)
        assert emitted == list(range(k))

    def test_emit_failure_stops_emitting(self):
        emitted = []

        def emit(result):
            if result == 4:
                raise OSError("disk full")
            emitted.append(result)

        with pytest.raises(OSError, match="disk full"):
            _run_ordered(lambda x: x, list(range(50)), 3, emit)
        assert emitted == [0, 1, 2, 3]

    def test_stress_more_workers_than_cores(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fn = Concurrency(lambda x: x)
            emitted = []
            emit = Concurrency(emitted.append)
            _run_ordered(fn, list(range(3000)), 8, emit)
        finally:
            sys.setswitchinterval(old)
        assert emitted == list(range(3000))
        assert fn.peak <= 8
        assert emit.peak == 1
        assert not [t for t in threading.enumerate() if t.name.startswith("simrec-batch-")]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def reversed_keys(value):
    """``value`` with the keys of every dict in it, at any depth, inserted in reverse order."""
    if isinstance(value, dict):
        return {key: reversed_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [reversed_keys(item) for item in value]
    return value


class TestRecordReplay:
    def test_record_then_replay_reproduces_outputs(self, tmp_path):
        log = tmp_path / "replay.jsonl"
        reqs = [request(t) for t in ("alpha", "beta", "alpha")]
        with RecordingTransport(
            MockTransport(responder=lambda p: p["messages"][0]["content"].upper()), log
        ) as live:
            first = complete_batch(reqs, CFG, transport=live)
        replayed = complete_batch(reqs, CFG, transport=ReplayTransport(log))
        assert replayed == first == ["ALPHA", "BETA", "ALPHA"]

    def test_replay_unknown_request_errors(self, tmp_path):
        log = tmp_path / "replay.jsonl"
        log.write_text(
            json.dumps({"request": request("x").to_payload(), "response": text_response("y")})
            + "\n"
        )
        transport = ReplayTransport(log)
        with pytest.raises(TransportError, match="no recorded response"):
            transport.send(request("unseen").to_payload())

    def test_recorded_rows_are_on_disk_before_close(self, tmp_path):
        log = tmp_path / "replay.jsonl"
        with RecordingTransport(MockTransport(responder=lambda p: "r"), log) as live:
            assert not log.exists()  # opened on the first send
            complete_batch([request("a"), request("b")], CFG, transport=live)
            with log.open("r", encoding="utf-8") as second_handle:
                rows = [json.loads(line) for line in second_handle]
            assert sorted(row["request"]["messages"][0]["content"] for row in rows) == ["a", "b"]

    def test_recording_to_a_torn_file_cuts_the_torn_row_and_still_replays(self, tmp_path, caplog):
        log = tmp_path / "replay.jsonl"
        with RecordingTransport(scripted_mock(["one", "two"]), log) as live:
            complete(request("a"), CFG, transport=live)
            complete(request("b"), CFG, transport=live)
        log.write_bytes(log.read_bytes()[:-20])  # a crash inside the second row's write
        torn = len(log.read_bytes().splitlines(keepends=True)[-1])
        with caplog.at_level(logging.WARNING), RecordingTransport(scripted_mock(["three"]), log) as live:
            complete(request("c"), CFG, transport=live)
        assert [r.getMessage() for r in caplog.records] == [f"{log}: dropped a torn last line ({torn} bytes)"]
        replay = ReplayTransport(log)
        assert [complete(request(t), CFG, transport=replay) for t in ("a", "c")] == ["one", "three"]
        with pytest.raises(PermanentTransportError, match="no recorded response"):
            replay.send(request("b").to_payload())

    @pytest.mark.parametrize(
        "second_row, needle",
        [
            ('{"request": {"model": "m"}}', "line 2: replay row needs"),
            ("{not json", "line 2: invalid JSON"),
        ],
    )
    def test_malformed_replay_row_names_file_and_line(self, tmp_path, second_row, needle):
        log = tmp_path / "replay.jsonl"
        good = json.dumps({"request": request("x").to_payload(), "response": text_response("y")})
        log.write_text(good + "\n" + second_row + "\n")
        with pytest.raises(ValueError, match=f"replay.jsonl: {needle}"):
            ReplayTransport(log)

    @settings(max_examples=50, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=6), JSON_VALUES, min_size=1, max_size=5))
    def test_replay_ignores_the_key_order_of_the_request(self, tmp_path_factory, payload):
        log = tmp_path_factory.mktemp("replay") / "replay.jsonl"
        with RecordingTransport(MockTransport(responder=lambda p: "recorded"), log) as live:
            live.send(payload)
        assert ReplayTransport(log).send(reversed_keys(payload)) == text_response("recorded")

    def test_concurrent_records_are_whole_rows_that_all_replay(self, tmp_path):
        log = tmp_path / "replay.jsonl"
        reqs = [request(f"q{i}") for i in range(500)]
        cfg = EndpointConfig(max_retries=0, max_in_flight=4)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RecordingTransport(MockTransport(responder=lambda p: p["messages"][0]["content"] + "!"), log) as live:
                recorded = complete_batch(reqs, cfg, transport=live)
        finally:
            sys.setswitchinterval(old)
        lines = log.read_bytes().split(b"\n")
        assert len(lines) == 501 and lines[-1] == b""  # 500 rows, each ending in a newline
        rows = [json.loads(line) for line in lines[:-1]]
        asked = sorted(r["request"]["messages"][0]["content"] for r in rows)
        assert asked == sorted(req.messages[0].content for req in reqs)
        assert complete_batch(reqs, cfg, transport=ReplayTransport(log)) == recorded == [f"q{i}!" for i in range(500)]

    def test_concurrent_replay_serves_each_recorded_reply_once(self, tmp_path):
        k = 200
        log = tmp_path / "replay.jsonl"
        same = [request("same")] * k
        replies = iter(range(k))
        with RecordingTransport(MockTransport(responder=lambda p: f"r{next(replies)}"), log) as live:
            complete_batch(same, CFG, transport=live)
        replay = ReplayTransport(log)
        cfg = EndpointConfig(max_retries=0, max_in_flight=4)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            served = complete_batch(same, cfg, transport=replay)
        finally:
            sys.setswitchinterval(old)
        assert sorted(served) == sorted(f"r{i}" for i in range(k))
        with pytest.raises(PermanentTransportError, match="no recorded response"):
            replay.send(request("same").to_payload())

    def test_repeated_requests_replay_in_order(self, tmp_path):
        log = tmp_path / "replay.jsonl"
        payload = request("same").to_payload()
        with log.open("w") as handle:
            for reply in ("first", "second"):
                handle.write(json.dumps({"request": payload, "response": text_response(reply)}) + "\n")
        transport = ReplayTransport(log)
        assert transport.send(payload)["choices"][0]["message"]["content"] == "first"
        assert transport.send(payload)["choices"][0]["message"]["content"] == "second"


class TestWireFormat:
    def test_text_only_message(self):
        assert ChatMessage(role="user", content="hello").to_wire() == {
            "role": "user",
            "content": "hello",
        }

    def test_image_attachments_become_parts(self):
        wire = ChatMessage(role="user", content="look", images=("img://a", "img://b")).to_wire()
        assert wire["content"][0] == {"type": "text", "text": "look"}
        assert wire["content"][1] == {"type": "image_url", "image_url": {"url": "img://a"}}
        assert len(wire["content"]) == 3

    def test_request_payload_shape(self):
        payload = request("q", model="demo").to_payload()
        assert payload == {
            "model": "demo",
            "messages": [{"role": "user", "content": "q"}],
            "temperature": 0.0,
            "max_tokens": 2048,
        }

    def test_request_validation(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=())
        with pytest.raises(ValueError):
            ChatMessage(role="bot", content="x")


def test_importing_simrec_leaves_the_http_stack_unloaded():
    """Only ``HttpTransport.send`` needs ``urllib.request`` (and its http.client, email, ssl)."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, simrec.fixtures; print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
