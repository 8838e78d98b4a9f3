"""Deterministic demo dataset and scripted responders.

``write_synthetic_dataset`` produces the bundled dataset under ``data/``
(interactions, per-item feature vectors, frame scores, liked feedback) from a
single seed. The responders are pure functions of the request payload, so
recording them through ``RecordingTransport`` yields replay files that are
stable regardless of call order.

Regenerate the bundled dataset with::

    python -m simrec.fixtures data/synthetic --seed 7
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Callable

import numpy as np

from .core import save_interactions, write_jsonl
from .env import generate_synthetic_world
from .ipagent import FOCUS_PROMPT, PERCEPTION_PROMPT, SUMMARY_PROMPT
from .llmclient import ChatMessage, ChatRequest, text_response
from .rewards import render_reply

SIM_MODEL = "user-sim"

_TITLE_RE = re.compile(r"the title of the video is: (.*?)\. Pay special attention")


def simulation_request(prompt: str, model: str = SIM_MODEL, temperature: float = 0.0) -> ChatRequest:
    """The exact request the simulate command sends for one episode prompt."""
    return ChatRequest(
        model=model,
        messages=(ChatMessage(role="user", content=prompt),),
        temperature=temperature,
    )


def write_synthetic_dataset(
    root: str | Path,
    seed: int = 7,
    n_users: int = 50,
    n_items: int = 120,
    dim: int = 8,
    history_length: tuple[int, int] = (4, 9),
    pool_size: int = 10,
    n_frame_items: int = 5,
    n_feedback_users: int = 15,
) -> dict[str, Path]:
    """Write the bundled synthetic dataset; returns the created file paths.

    The feedback file pairs each chosen user with their held-out target item,
    which is the constructed fixture for the rerank direction check.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    world, catalog, histories = generate_synthetic_world(
        n_users=n_users,
        n_items=n_items,
        dim=dim,
        seed=seed,
        history_length=history_length,
        pool_size=pool_size,
    )
    paths = {
        "interactions": root / "interactions.jsonl",
        "features": root / "features.jsonl",
        "frame_scores": root / "frame_scores.jsonl",
        "feedback": root / "feedback.jsonl",
    }
    save_interactions(paths["interactions"], catalog, histories)

    write_jsonl(
        paths["features"],
        ({"item": item_id, "vec": list(catalog[item_id].feature)} for item_id in sorted(catalog)),
    )

    rng = np.random.default_rng(seed + 1)
    interacted = sorted({b.item for h in histories for b in h.behaviors})
    frame_rows = []
    for item_id in interacted[:n_frame_items]:
        frames = [
            {
                "idx": idx,
                "ref": f"frames/{item_id}/{idx:02d}.jpg",
                "score": round(float(rng.uniform(0.05, 0.95)), 4),
            }
            for idx in range(10)
        ]
        frame_rows.append({"item": item_id, "frames": frames})
    write_jsonl(paths["frame_scores"], frame_rows)

    write_jsonl(
        paths["feedback"],
        ({"user": h.user, "item": h.target().item} for h in histories[:n_feedback_users]),
    )
    return paths


# ---------------------------------------------------------------------------
# Scripted responders (pure functions of the request payload)
# ---------------------------------------------------------------------------


def _message_text(message: dict) -> str:
    """A message's text, whether its content is a string or a list of parts."""
    content = message["content"]
    if isinstance(content, str):
        return content
    return next(p["text"] for p in content if p.get("type") == "text")


def _last_user_text(payload: dict) -> str:
    for message in reversed(payload["messages"]):
        if message["role"] == "user":
            return _message_text(message)
    raise ValueError("payload has no user message")


def make_uniform_responder(n_candidates: int, seed: int = 0) -> Callable[[dict], dict]:
    """Picks a candidate index uniformly via a prompt hash (order-independent)."""

    def responder(payload: dict) -> dict:
        prompt = _last_user_text(payload)
        digest = hashlib.sha256(f"{seed}|{prompt}".encode("utf-8")).digest()
        index = int.from_bytes(digest[:8], "big") % n_candidates + 1
        return text_response(render_reply("steady viewing habits", str(index)))

    return responder


def make_caption_responder() -> Callable[[dict], dict]:
    """Plays all three caption stages deterministically from the video title."""

    def responder(payload: dict) -> dict:
        prompt = _last_user_text(payload)
        match = _TITLE_RE.search(_message_text(payload["messages"][0]))
        title = match.group(1) if match else "the video"
        if prompt.startswith(FOCUS_PROMPT[:40]):
            return text_response(f"The frames stay close to {title}, with steady pacing.")
        if prompt == PERCEPTION_PROMPT:
            return text_response(
                f"Main characters: one presenter. Core event: {title} plays out. "
                "Emotional appeal: easy curiosity."
            )
        if prompt == SUMMARY_PROMPT:
            return text_response(f"{title} delivers a brisk, watchable moment # demo clip # short video")
        raise ValueError(f"caption responder got an unexpected prompt: {prompt[:60]}...")

    return responder


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Regenerate the bundled synthetic dataset.")
    parser.add_argument("root", help="output directory, e.g. data/synthetic")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    paths = write_synthetic_dataset(args.root, seed=args.seed)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
