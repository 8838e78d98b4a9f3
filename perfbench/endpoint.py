"""endpoint-record-replay: the ``simulate`` and ``augment`` paths.

Per round, on a seeded world of 1000 users:

1. build one selection episode and one judgment pair per user from a fitted
   markov top-10 recall, then ``export_episodes`` and ``load_episodes``;
2. record pass: ``complete_batch`` (2 in flight) through
   ``RecordingTransport(MockTransport(responder))``;
3. replay pass: the same requests through ``ReplayTransport``, each reply
   scored with ``parse_response`` and ``total_reward``;
4. ``batch_augment`` over 100 items (2 in parallel) against the caption
   responder.

The mocks answer without latency. With a fixed 1 ms latency the record pass
was bound by thread wake-ups on the shared host: on one request list its
wall time ranged 2.4-4.1 s between passes, and the workload's ``work_per_s``
spread 0.30 over ten seeds, past its 0.25 bound. Without it the record pass
is bound by ``RecordingTransport``'s per-request file append and the replay
pass by CPU. Only mock and replay transports run: ``HttpTransport`` and real
network behaviour are not measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

import simrec.env as env
import simrec.fixtures as fixtures
import simrec.ipagent as ipagent
from simrec.cli import main as cli_main
from simrec.core import load_interactions
from simrec.fixtures import make_caption_responder, make_uniform_responder, simulation_request
from simrec.llmclient import (
    ClientStats,
    EndpointConfig,
    MockTransport,
    RecordingTransport,
    ReplayTransport,
    complete_batch,
)
from simrec.recommender import fit_markov
from simrec.rewards import parse_response, total_reward

import gates
from rounds import Round, core_metrics, count_lines, median_stages
from spans import SpanView

N_USERS, N_ITEMS, DIM, HISTORY, POOL = 1000, 1000, 8, (4, 10), 10
TOP_K, M = 10, 3
AUGMENT_ITEMS = 100
IN_FLIGHT = 2
ENDPOINT = EndpointConfig(max_in_flight=IN_FLIGHT)


class EndpointRecordReplay:
    name = "endpoint-record-replay"

    def __init__(self, work: Path, seed: int, n_users: int = N_USERS, n_items: int = N_ITEMS,
                 augment_items: int = AUGMENT_ITEMS) -> None:
        self.work = work
        self.seed = seed
        self.n_users = n_users
        self.n_items = n_items
        self.augment_items = augment_items
        self.episodes_path = work / "episodes.jsonl"
        self.replay_path = work / "replay.jsonl"
        self.captions_path = work / "captions.jsonl"
        self.first = None  # digests of the first round's recorded replies and captions

    def sizes(self) -> dict:
        return {
            "users": self.n_users,
            "items": self.n_items,
            "dim": DIM,
            "history_length": list(HISTORY),
            "top_k": TOP_K,
            "m": M,
            "augment_items": self.augment_items,
            "in_flight": IN_FLIGHT,
            "rows": self.rows,
        }

    def input_files(self) -> dict[str, Path]:
        return {"interactions": self.paths["interactions"], "frame_scores": self.paths["frame_scores"]}

    def setup(self, tr) -> None:
        with tr.patch(fixtures, "generate_synthetic_world", "env.generate_synthetic_world"):
            self.paths = fixtures.write_synthetic_dataset(
                self.work / "data", seed=self.seed, n_users=self.n_users, n_items=self.n_items,
                dim=DIM, history_length=HISTORY, pool_size=POOL,
                n_frame_items=self.augment_items, n_feedback_users=0,
            )
        self.rows = count_lines(self.paths["interactions"])

    def round(self, tr) -> Round:
        t0 = time.perf_counter()
        with tr.span("core.load_interactions"):
            catalog, histories = load_interactions(self.paths["interactions"])
        with tr.span("recommender.fit.markov"):
            recall = tr.proxy(fit_markov([h.training_view() for h in histories], catalog), "recommender.recall")
        cfg = env.EnvConfig(top_k=TOP_K, m=M, seed=self.seed)
        episodes = []
        with tr.patch(env, "make_episode", "env.make_episode"):
            for history in histories:
                episodes.append(env.make_episode(history, catalog, "selection", cfg, candidate_generator=recall))
                with tr.span("env.make_judgment_pair"):
                    episodes.extend(env.make_judgment_pair(history, catalog, cfg, recall))
        with tr.span("env.export_episodes"):
            env.export_episodes(episodes, self.episodes_path)
        with tr.span("env.load_episodes"):
            episodes = env.load_episodes(self.episodes_path)
        with tr.span("llmclient.build_requests"):
            requests = [simulation_request(ep.prompt) for ep in episodes]

        t1 = time.perf_counter()
        self.replay_path.unlink(missing_ok=True)
        stats = ClientStats()
        record_mock = MockTransport(responder=make_uniform_responder(M + 1, self.seed))
        recorder = RecordingTransport(record_mock, self.replay_path)
        with tr.span("llmclient.complete_batch.record"):
            recorded = complete_batch(requests, ENDPOINT, tr.proxy(recorder, "llmclient.record"), stats)

        t2 = time.perf_counter()
        with tr.span("llmclient.replay_load"):
            replay = ReplayTransport(self.replay_path)
        with tr.span("llmclient.complete_batch.replay"):
            replayed = complete_batch(requests, ENDPOINT, tr.proxy(replay, "llmclient.replay"), stats)
        parse = tr.wrap(parse_response, "rewards.parse_response")
        score = tr.wrap(total_reward, "rewards.total_reward")
        totals = []
        with tr.span("rewards.score_replies"):
            for episode, reply in zip(episodes, replayed):
                text = reply if isinstance(reply, str) else ""
                parse(text, episode.task)
                totals.append(score(text, episode.task, episode.truth).total)

        t3 = time.perf_counter()
        self.captions_path.unlink(missing_ok=True)
        caption_mock = MockTransport(responder=make_caption_responder())
        with (
            tr.patch(ipagent, "load_frame_scores", "ipagent.load_frame_scores"),
            tr.patch(ipagent, "select_keyframes", "ipagent.select_keyframes"),
            tr.span("ipagent.batch_augment"),
        ):
            report = ipagent.batch_augment(
                catalog, self.paths["frame_scores"], ENDPOINT, tr.proxy(caption_mock, "llmclient.augment"),
                self.captions_path, parallelism=IN_FLIGHT, stats=stats,
            )
        t4 = time.perf_counter()

        gates.check_replay(recorded, replayed)
        gates.check_equal("augment failures", report.failures, [])
        gates.check_equal("captions written", report.written, self.augment_items)
        in_flight = max(record_mock.max_in_flight_seen, caption_mock.max_in_flight_seen)
        gates.check_at_most("requests in flight", in_flight, IN_FLIGHT)
        digests = (
            hashlib.sha256(json.dumps(recorded).encode("utf-8")).hexdigest(),
            hashlib.sha256(self.captions_path.read_bytes()).hexdigest(),
        )
        if self.first is None:
            self.first = digests
        gates.check_equal("recorded replies and captions.jsonl sha256 of a repeated round", digests, self.first)
        self.mean_total_reward = float(np.mean(totals))  # as cmd_simulate computes it

        n = len(requests)
        errors = sum(not isinstance(r, str) for r in (*recorded, *replayed))
        return Round(
            wall=t4 - t0,
            work=len(episodes),
            attempted=2 * n + report.written + len(report.failures) + report.skipped,
            failed=errors + len(report.failures),
            stages=[("episodes", t1 - t0), ("record", t2 - t1), ("replay", t3 - t2), ("augment", t4 - t3)],
            facts={
                "llmclient.record_bytes": self.replay_path.stat().st_size,
                "llmclient.retries": stats.retries,
                "llmclient.failures": errors,
                "llmclient.max_in_flight_seen": in_flight,
                "ipagent.written": report.written,
                "ipagent.failed": len(report.failures),
                "ipagent.skipped": report.skipped,
            },
        )

    def check(self) -> None:
        """The simulate command on the last recorded file must score like the library path."""
        cli_out = self.work / "simulate"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([
                "simulate", "--episodes", str(self.episodes_path), "--replay", str(self.replay_path),
                "--in-flight", str(IN_FLIGHT), "--out", str(cli_out),
            ])
        gates.check_equal("simulate --replay exit code", code, 0)
        metrics = json.loads((cli_out / "metrics.json").read_text(encoding="utf-8"))
        gates.check_equal("simulate --replay mean_total_reward", metrics["mean_total_reward"], self.mean_total_reward)

    def summary(self, rounds: list[Round]) -> dict[str, float]:
        median = median_stages(rounds)
        n = rounds[0].work
        return {
            "episodes_per_s": n / median["episodes"],
            "record_requests_per_s": n / median["record"],
            "replay_requests_per_s": n / median["replay"],
            "augment_items_per_s": self.augment_items / median["augment"],
        }

    def layer_metrics(self, view: SpanView, rnd: Round) -> dict[str, float]:
        out = core_metrics(view, self.rows)
        out.update(rnd.facts)
        send_busy = view.total("llmclient.record.send")
        out.update({
            "recommender.top_k_calls.recall": view.count("recommender.recall.top_k"),
            "env.make_episode_ms_p50": view.quantile("env.make_episode", 50, 1e3),
            "env.export_episodes_s": view.total("env.export_episodes"),
            "env.load_episodes_s": view.total("env.load_episodes"),
            "rewards.total_reward_calls": view.count("rewards.total_reward"),
            "rewards.score_us_p50": view.quantile("rewards.total_reward", 50, 1e6),
            "llmclient.send_ms_p50.record": view.quantile("llmclient.record.send", 50, 1e3),
            "llmclient.send_ms_p99.record": view.quantile("llmclient.record.send", 99, 1e3),
            "llmclient.overhead_s.record": view.total("llmclient.complete_batch.record") - send_busy / IN_FLIGHT,
            "llmclient.replay_load_s": view.total("llmclient.replay_load"),
            "llmclient.batch_s.replay": view.total("llmclient.complete_batch.replay"),
            "ipagent.batch_augment_s": view.total("ipagent.batch_augment"),
            "ipagent.load_frame_scores_s": view.total("ipagent.load_frame_scores"),
            "ipagent.select_keyframes_us_p50": view.quantile("ipagent.select_keyframes", 50, 1e6),
            "ipagent.sends_per_item": view.count("llmclient.augment.send") / max(1, rnd.facts["ipagent.written"]),
        })
        for source in ("record", "replay", "augment"):
            out[f"llmclient.send_calls.{source}"] = view.count(f"llmclient.{source}.send")
        return out
