"""Run the staged caption pipeline against a scripted endpoint, then replay it.

Three conversation turns per item (focus on title-relevant frames, extract
key information, compress to a tagged caption), with the word cap enforced.
Recording the run produces a replay file that reproduces the caption file
byte for byte without any endpoint.
"""

import json
import tempfile
from pathlib import Path

from simrec.core import load_interactions
from simrec.fixtures import make_caption_responder
from simrec.ipagent import batch_augment, load_frame_scores, select_keyframes
from simrec.llmclient import EndpointConfig, MockTransport, RecordingTransport, ReplayTransport

data = Path(__file__).resolve().parent.parent / "data" / "synthetic"
catalog, _ = load_interactions(data / "interactions.jsonl")
frame_scores = data / "frame_scores.jsonl"
scores = load_frame_scores(frame_scores)
cfg = EndpointConfig(max_retries=0)

first_item = sorted(scores)[0]
picked = select_keyframes(scores[first_item])
print(f"keyframes for {first_item}: {[f.index for f in picked]} (scores {[f.score for f in picked]})")

with tempfile.TemporaryDirectory(prefix="caption-demo-") as tmp:
    workdir = Path(tmp)
    replay_log = workdir / "replay.jsonl"
    with RecordingTransport(MockTransport(responder=make_caption_responder()), replay_log) as live:
        report = batch_augment(catalog, frame_scores, cfg, live, workdir / "captions_live.jsonl")
    print(f"\nlive run:   written={report.written} skipped={report.skipped} failures={report.failures}")

    replayed = batch_augment(
        catalog, frame_scores, cfg, ReplayTransport(replay_log), workdir / "captions_replay.jsonl"
    )
    print(f"replay run: written={replayed.written}")
    live_captions = (workdir / "captions_live.jsonl").read_bytes()
    same = live_captions == (workdir / "captions_replay.jsonl").read_bytes()
    print(f"byte-identical caption files: {same}")

print("\ncaptions:")
for line in live_captions.decode("utf-8").splitlines():
    row = json.loads(line)
    words = len(row["caption"].split())
    print(f"  {row['item']} ({words} words): {row['caption']}")
