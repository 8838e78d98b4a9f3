import json
import logging

import numpy as np
import pytest

from simrec.core import Item
from simrec.fixtures import make_caption_responder
from simrec.ipagent import (
    EnhancedCaption,
    FrameScore,
    FrameScores,
    PipelineError,
    batch_augment,
    load_frame_scores,
    run_ip_pipeline,
    select_keyframes,
)
from simrec.llmclient import EndpointConfig, MockTransport, ReplayTransport, RecordingTransport

CFG = EndpointConfig(max_retries=0, backoff_base=0.0)


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


def canned_pipeline(replies):
    return MockTransport(script=list(replies))


class TestRunIpPipeline:
    def test_three_stage_round_trip(self):
        caption_30 = " ".join(["word"] * 28) + " # tag"
        transport = canned_pipeline(["frames noted", "characters and event", caption_30])
        result = run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport)
        assert result.word_count == 30
        assert result.caption == caption_30
        assert result.stage_transcripts == ("frames noted", "characters and event")
        assert result.retries == 0
        assert transport.calls == 3

    def test_over_limit_triggers_one_corrective_retry(self):
        long_caption = " ".join(["w"] * 60)
        retry_caption = " ".join(["w"] * 34)
        transport = canned_pipeline(["a", "b", long_caption, retry_caption])
        result = run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport)
        assert result.retries == 1
        assert result.word_count == 34
        assert transport.calls == 4

    def test_second_violation_truncates_with_warning(self, caplog):
        transport = canned_pipeline(["a", "b", " ".join(["w"] * 60), " ".join(["x"] * 50)])
        with caplog.at_level(logging.WARNING):
            result = run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport)
        assert result.word_count == 45
        assert result.caption == " ".join(["x"] * 45)
        assert "truncating" in caplog.text

    def test_empty_stage_reply_is_pipeline_error(self):
        transport = canned_pipeline(["a", "   ", "c"])
        with pytest.raises(PipelineError) as err:
            run_ip_pipeline(ITEM, KEYFRAMES, CFG, transport)
        assert err.value.stage == "perception"
        assert err.value.item == "v1"

    def test_image_refs_attached_to_first_turn(self):
        seen = []

        def responder(payload):
            seen.append(payload)
            return "reply words here"

        run_ip_pipeline(ITEM, KEYFRAMES, CFG, MockTransport(responder=responder))
        first = seen[0]["messages"][0]["content"]
        refs = [part["image_url"]["url"] for part in first if part.get("type") == "image_url"]
        assert refs == [f.ref for f in KEYFRAMES]

    def test_caption_cap_enforced_on_type(self):
        with pytest.raises(ValueError, match="cap"):
            EnhancedCaption(
                item="v1", caption="x", word_count=46, stage_transcripts=("a", "b")
            )


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
        scores = load_frame_scores(bundled_dataset["frame_scores"])
        broken_item = sorted(scores)[1]

        base = make_caption_responder()

        def responder(payload):
            body = base(payload)
            text = body["choices"][0]["message"]["content"]
            if broken_item in text and "presenter" in text:
                return ""  # empty perception reply for this one item
            return body

        out = tmp_path / "captions.jsonl"
        report = batch_augment(catalog5, scores, CFG, MockTransport(responder=responder), out)
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
        scores = load_frame_scores(bundled_dataset["frame_scores"])
        reference = tmp_path / "reference.jsonl"
        batch_augment(catalog5, scores, CFG, MockTransport(responder=make_caption_responder()), reference)
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
                catalog5, scores, CFG, MockTransport(responder=crashing), out, parallelism=parallelism
            )
        assert out.read_text() == "".join(expected[:3])

        report = batch_augment(
            catalog5, scores, CFG, MockTransport(responder=make_caption_responder()), out,
            parallelism=parallelism,
        )
        assert (report.written, report.skipped) == (2, 3)
        assert out.read_bytes() == reference.read_bytes()


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
