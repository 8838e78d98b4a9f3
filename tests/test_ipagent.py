import json
import logging
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from simrec.core import CAPTION_WORD_LIMIT, Item, word_count
from simrec.fixtures import make_caption_responder
from simrec.ipagent import (
    FrameScore,
    FrameScores,
    PipelineError,
    batch_augment,
    load_frame_scores,
    run_ip_pipeline,
    select_keyframes,
)
from simrec.llmclient import EndpointConfig, MockTransport, ReplayTransport, RecordingTransport, TransportError
from responders import scripted_mock

CFG = EndpointConfig(max_retries=0)


def frames(*scores):
    return FrameScores(
        item="v1",
        frames=tuple(
            FrameScore(index=i, ref=f"frames/v1/{i:02d}.jpg", score=s) for i, s in enumerate(scores)
        ),
    )


class TestSelectKeyframes:
    def test_top3_by_score_descending(self):
        scores = frames(0.1, 0.9, 0.3, 0.8, 0.2, 0.7, 0.05, 0.4, 0.6, 0.15)
        assert [f.index for f in select_keyframes(scores)] == [1, 3, 5]

    def test_ties_break_to_lower_index(self):
        assert [f.index for f in select_keyframes(frames(0.5, 0.5, 0.5, 0.5))] == [0, 1, 2]

    def test_shortfall_returns_all(self):
        assert [f.index for f in select_keyframes(frames(0.2, 0.9))] == [1, 0]

    def test_fuzz_against_sorting_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            count = int(rng.integers(1, 14))
            values = [float(x) for x in rng.uniform(0, 1, size=count).round(3)]
            scores = frames(*values)
            picked = select_keyframes(scores)
            oracle = sorted(scores.frames, key=lambda f: (-f.score, f.index))[:3]
            assert list(picked) == oracle
            assert len(picked) == min(3, count)
            assert all(a.score >= b.score for a, b in zip(picked, picked[1:]))
            assert set(picked) <= set(scores.frames)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FrameScores(item="v1", frames=())


ITEM = Item(id="v1", title="clip v1")
KEYFRAMES = select_keyframes(frames(0.9, 0.8, 0.7, 0.1))


class TestRunIpPipeline:
    def test_three_stage_round_trip(self):
        caption_30 = " ".join(["word"] * 28) + " # tag"
        transport = scripted_mock(["frames noted", "characters and event", caption_30])
        assert run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport) == caption_30
        assert transport.calls == 3

    def test_over_limit_triggers_one_corrective_retry(self):
        long_caption = " ".join(["w"] * 60)
        retry_caption = " ".join(["w"] * 34)
        transport = scripted_mock(["a", "b", long_caption, retry_caption])
        assert run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport) == retry_caption
        assert transport.calls == 4

    def test_second_violation_truncates_with_warning(self, caplog):
        transport = scripted_mock(["a", "b", " ".join(["w"] * 60), " ".join(["x"] * 50)])
        with caplog.at_level(logging.WARNING):
            caption = run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport)
        assert caption == " ".join(["x"] * 45)
        assert "truncating" in caplog.text

    def test_empty_stage_reply_is_pipeline_error(self):
        transport = scripted_mock(["a", "   ", "c"])
        with pytest.raises(PipelineError) as err:
            run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport)
        assert err.value.stage == "perception"
        assert "'v1'" in str(err.value)

    def test_image_refs_attached_to_first_turn(self):
        seen = []

        def responder(payload):
            seen.append(payload)
            return "reply words here"

        run_ip_pipeline(ITEM, KEYFRAMES, CFG, MockTransport(responder=responder))
        first = seen[0]["messages"][0]["content"]
        refs = [part["image_url"]["url"] for part in first if part.get("type") == "image_url"]
        assert refs == [f.ref for f in KEYFRAMES]

    @given(st.integers(1, 3 * CAPTION_WORD_LIMIT), st.integers(1, 3 * CAPTION_WORD_LIMIT))
    @example(CAPTION_WORD_LIMIT, 1)  # the edges of the cap
    @example(CAPTION_WORD_LIMIT + 1, CAPTION_WORD_LIMIT + 1)
    @settings(max_examples=60, deadline=None)
    def test_caption_never_exceeds_the_cap(self, summary_words, retry_words):
        summary = " ".join(["s"] * summary_words)
        transport = scripted_mock(["a", "b", summary, " ".join(["r"] * retry_words)])
        caption = run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport)
        assert word_count(caption) <= CAPTION_WORD_LIMIT
        over = summary_words > CAPTION_WORD_LIMIT
        assert transport.calls == (4 if over else 3)  # the corrective re-prompt, only when over
        if not over:
            assert caption == summary


@pytest.fixture()
def catalog5(bundled_catalog_histories):
    catalog, _ = bundled_catalog_histories
    return catalog


class TestBatchAugment:
    def test_five_items_all_mocked(self, tmp_path, catalog5, bundled_dataset):
        out = tmp_path / "captions.jsonl"
        transport = MockTransport(responder=make_caption_responder())
        report = batch_augment(catalog5, bundled_dataset["frame_scores"], CFG, transport, out)
        assert report.written == 5
        assert report.skipped == 0
        assert report.failures == []
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 5
        assert all(len(r["caption"].split()) <= 45 for r in rows)

    def test_rerun_issues_no_new_calls(self, tmp_path, catalog5, bundled_dataset):
        out = tmp_path / "captions.jsonl"
        transport = MockTransport(responder=make_caption_responder())
        batch_augment(catalog5, bundled_dataset["frame_scores"], CFG, transport, out)
        calls_after_first = transport.calls
        report = batch_augment(catalog5, bundled_dataset["frame_scores"], CFG, transport, out)
        assert transport.calls == calls_after_first
        assert report.written == 0
        assert report.skipped == 5

    def test_failed_stage_recorded_and_batch_continues(self, tmp_path, catalog5, bundled_dataset):
        frame_scores = bundled_dataset["frame_scores"]
        scores = load_frame_scores(frame_scores)
        broken_item = sorted(scores)[1]

        base = make_caption_responder()

        def responder(payload):
            body = base(payload)
            text = body["choices"][0]["message"]["content"]
            if broken_item in text and "presenter" in text:
                return ""  # empty perception reply for this one item
            return body

        out = tmp_path / "captions.jsonl"
        report = batch_augment(catalog5, frame_scores, CFG, MockTransport(responder=responder), out)
        assert report.written == 4
        assert (broken_item, "perception") in report.failures

    def test_replay_determinism(self, tmp_path, catalog5, bundled_dataset):
        log = tmp_path / "replay.jsonl"
        first = tmp_path / "captions1.jsonl"
        with RecordingTransport(MockTransport(responder=make_caption_responder()), log) as live:
            batch_augment(catalog5, bundled_dataset["frame_scores"], CFG, live, first)
        second = tmp_path / "captions2.jsonl"
        batch_augment(
            catalog5, bundled_dataset["frame_scores"], CFG, ReplayTransport(log), second
        )
        assert first.read_bytes() == second.read_bytes()


class TestBatchAugmentStreaming:
    """Rows reach the file one by one, so a crashed batch resumes where it stopped."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_crash_leaves_the_finished_sorted_prefix_then_rerun_resumes(
        self, tmp_path, catalog5, bundled_dataset, parallelism
    ):
        frame_scores = bundled_dataset["frame_scores"]
        scores = load_frame_scores(frame_scores)
        reference = tmp_path / "reference.jsonl"
        batch_augment(catalog5, frame_scores, CFG, MockTransport(responder=make_caption_responder()), reference)
        expected = reference.read_text().splitlines(keepends=True)

        crash_item = sorted(scores)[3]
        base = make_caption_responder()

        def crashing(payload):
            body = base(payload)
            if crash_item in body["choices"][0]["message"]["content"]:
                raise RuntimeError("responder bug")
            return body

        out = tmp_path / "captions.jsonl"
        with pytest.raises(RuntimeError, match="responder bug"):
            batch_augment(
                catalog5, frame_scores, CFG, MockTransport(responder=crashing), out, parallelism=parallelism
            )
        assert out.read_text() == "".join(expected[:3])

        report = batch_augment(
            catalog5, frame_scores, CFG, MockTransport(responder=make_caption_responder()), out,
            parallelism=parallelism,
        )
        assert (report.written, report.skipped) == (2, 3)
        assert out.read_bytes() == reference.read_bytes()

    def test_rerun_after_a_torn_last_row_gives_the_one_shot_bytes(self, tmp_path, catalog5, bundled_dataset, caplog):
        frame_scores = bundled_dataset["frame_scores"]
        reference = tmp_path / "reference.jsonl"
        batch_augment(catalog5, frame_scores, CFG, MockTransport(responder=make_caption_responder()), reference)
        whole = reference.read_bytes()
        last_row = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        out = tmp_path / "captions.jsonl"
        for cut in range(last_row + 1, len(whole)):  # every torn state of the last row, its "\n" always lost
            out.write_bytes(whole[:cut])
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                report = batch_augment(catalog5, frame_scores, CFG, MockTransport(responder=make_caption_responder()), out)
            assert out.read_bytes() == whole
            assert (report.written, report.skipped) == (1, 4)
            assert [r.getMessage() for r in caplog.records] == [
                f"{out}: dropped a torn last line ({cut - last_row} bytes)"
            ]

    @pytest.mark.parametrize("kill_at", [2, 5])
    def test_rerun_after_a_killed_process_gives_the_one_shot_bytes(
        self, tmp_path, catalog5, bundled_dataset, kill_at
    ):
        frame_scores = bundled_dataset["frame_scores"]
        reference, out = tmp_path / "reference.jsonl", tmp_path / "captions.jsonl"
        batch_augment(catalog5, frame_scores, CFG, MockTransport(responder=make_caption_responder()), reference)
        # the child dies, with no cleanup, as the kill_at-th item starts its conversation
        child = (
            "import os, sys\n"
            "from simrec.core import load_interactions\n"
            "from simrec.fixtures import make_caption_responder\n"
            "from simrec.ipagent import batch_augment\n"
            "from simrec.llmclient import EndpointConfig, MockTransport\n"
            "interactions, frame_scores, out, kill_at = sys.argv[1:]\n"
            "base, started = make_caption_responder(), []\n"
            "def responder(payload):\n"
            "    if len(payload['messages']) == 1:\n"
            "        started.append(1)\n"
            "        if len(started) == int(kill_at):\n"
            "            os._exit(3)\n"
            "    return base(payload)\n"
            "catalog, _ = load_interactions(interactions)\n"
            "batch_augment(catalog, frame_scores, EndpointConfig(max_retries=0), MockTransport(responder), out)\n"
        )
        pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", child, str(bundled_dataset["interactions"]), str(frame_scores), str(out),
             str(kill_at)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
        )
        assert result.returncode == 3, result.stderr
        expected = reference.read_text().splitlines(keepends=True)
        assert out.read_text() == "".join(expected[: kill_at - 1])

        report = batch_augment(catalog5, frame_scores, CFG, MockTransport(responder=make_caption_responder()), out)
        assert (report.written, report.skipped) == (5 - (kill_at - 1), kill_at - 1)
        assert out.read_bytes() == reference.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["captions.jsonl", "reference.jsonl"]

    @settings(max_examples=30, deadline=None)
    @given(failing=st.sets(st.integers(0, 4)), parallelism=st.sampled_from([1, 2]))
    def test_rerun_after_failed_items_gives_the_one_shot_bytes(
        self, tmp_path_factory, bundled_catalog_histories, bundled_dataset, failing, parallelism
    ):
        catalog, _ = bundled_catalog_histories
        frame_scores = bundled_dataset["frame_scores"]
        scores = load_frame_scores(frame_scores)
        down = {sorted(scores)[i] for i in failing}
        base = make_caption_responder()

        def responder(payload):
            body = base(payload)
            if any(item in body["choices"][0]["message"]["content"] for item in down):
                raise TransportError("endpoint down")
            return body

        root = tmp_path_factory.mktemp("rerun")
        reference, out = root / "reference.jsonl", root / "captions.jsonl"
        batch_augment(catalog, frame_scores, CFG, MockTransport(responder=base), reference)
        with mock.patch("os.replace", wraps=os.replace) as replace:
            first = batch_augment(catalog, frame_scores, CFG, MockTransport(responder=responder), out, parallelism=parallelism)
            fresh_rewrites = replace.call_count
            second = batch_augment(catalog, frame_scores, CFG, MockTransport(responder=base), out, parallelism=parallelism)
        assert out.read_bytes() == reference.read_bytes()
        assert sorted(item for item, _ in first.failures) == sorted(down)
        assert (first.written, first.skipped) == (5 - len(down), 0)
        assert (second.written, second.skipped, second.failures) == (len(down), 5 - len(down), [])
        # only a run that adds rows to an earlier run's rewrites, and it leaves no temp file
        assert (fresh_rewrites, replace.call_count) == (0, 1 if 0 < len(down) < 5 else 0)
        assert sorted(p.name for p in root.iterdir()) == ["captions.jsonl", "reference.jsonl"]


@pytest.mark.parametrize(
    "content, needle",
    [('{"item": "a", "caption": "x"}\n{oops\n', "line 2: invalid JSON"),
     ('{"caption": "x"}\n', "line 1: caption row has no 'item'")],
)
def test_malformed_existing_caption_row_names_file_and_line(
    tmp_path, catalog5, bundled_dataset, content, needle
):
    out = tmp_path / "captions.jsonl"
    out.write_text(content)
    transport = MockTransport(responder=make_caption_responder())
    with pytest.raises(ValueError, match=f"captions.jsonl: {needle}"):
        batch_augment(catalog5, bundled_dataset["frame_scores"], CFG, transport, out)


def test_load_frame_scores_malformed_names_line(tmp_path):
    path = tmp_path / "fs.jsonl"
    path.write_text('{"item": "a", "frames": [{"idx": 0}]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_frame_scores(path)


def test_parallel_batch_matches_sequential(tmp_path, bundled_catalog_histories, bundled_dataset):
    catalog, _ = bundled_catalog_histories
    sequential = tmp_path / "seq.jsonl"
    parallel = tmp_path / "par.jsonl"
    for out, workers in ((sequential, 1), (parallel, 3)):
        transport = MockTransport(responder=make_caption_responder())
        batch_augment(
            catalog, bundled_dataset["frame_scores"], CFG, transport, out, parallelism=workers
        )
    assert sequential.read_bytes() == parallel.read_bytes()
