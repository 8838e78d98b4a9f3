import dataclasses
import hashlib
import json
import math
import shutil

import numpy as np
import pytest

import simrec.cli
from simrec.cli import main
from simrec.env import EnvConfig, SyntheticEpisodeSource, export_episodes, generate_synthetic_world, load_episodes
from simrec.fixtures import make_caption_responder, make_uniform_responder, simulation_request, write_synthetic_dataset
from simrec.llmclient import EndpointConfig, MockTransport, RecordingTransport, complete_batch, text_response
from simrec.rewards import render_reply
from conftest import DATA_DIR, reply
from responders import make_always_yes_responder, make_perfect_responder


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def episode_source():
    world, catalog, histories = generate_synthetic_world(
        n_users=20, n_items=80, dim=6, seed=19, history_length=5, pool_size=10
    )
    return SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=10, m=3, seed=3))


def record_simulation(episodes, responder, path):
    """Record responder replies for exactly the requests simulate will send, in order."""
    cfg = EndpointConfig(max_retries=0, max_in_flight=1)
    requests = [simulation_request(ep.prompt) for ep in episodes]
    with RecordingTransport(MockTransport(responder=responder), path) as transport:
        complete_batch(requests, cfg, transport=transport)


class TestAugmentCommand:
    def test_replay_run_with_zero_failures(self, tmp_path, capsys):
        replay = tmp_path / "replay.jsonl"
        out = tmp_path / "run"
        # record the conversation once, then drive the CLI purely from replay
        from simrec.core import load_interactions
        from simrec.ipagent import batch_augment

        catalog, _ = load_interactions(DATA_DIR / "interactions.jsonl")
        with RecordingTransport(MockTransport(responder=make_caption_responder()), replay) as live:
            batch_augment(
                catalog,
                DATA_DIR / "frame_scores.jsonl",
                EndpointConfig(max_retries=0),
                live,
                tmp_path / "scratch.jsonl",
            )
        code = run(
            "augment",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--frame-scores", DATA_DIR / "frame_scores.jsonl",
            "--replay", replay,
            "--out", out,
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "written: 5 skipped: 0 failed: 0" in printed
        assert (out / "captions.jsonl").exists()
        assert json.loads((out / "failures.json").read_text()) == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "augment"
        assert set(manifest["inputs"]) == {
            str(DATA_DIR / "interactions.jsonl"), str(DATA_DIR / "frame_scores.jsonl"), str(replay)
        }

    def test_missing_frame_scores_exits_2(self, tmp_path):
        code = run(
            "augment",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--frame-scores", tmp_path / "nope.jsonl",
            "--replay", tmp_path / "r.jsonl",
            "--out", tmp_path / "run",
        )
        assert code == 2

    def test_frame_scores_item_outside_the_catalog_is_a_failure_row(self, tmp_path, capsys, caption_replay):
        rows = (DATA_DIR / "frame_scores.jsonl").read_text()
        frame_scores = tmp_path / "frame_scores.jsonl"
        frame_scores.write_text(rows + json.dumps(json.loads(rows.splitlines()[0]) | {"item": "ghost"}) + "\n")
        out = tmp_path / "run"
        assert run(
            "augment",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--frame-scores", frame_scores,
            "--replay", caption_replay,
            "--out", out,
        ) == 0
        assert "written: 5 skipped: 0 failed: 1" in capsys.readouterr().out
        assert json.loads((out / "failures.json").read_text()) == [{"item": "ghost", "stage": "unknown item"}]

    def test_in_flight_below_one_exits_2(self, tmp_path, capsys):
        code = run(
            "augment",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--frame-scores", DATA_DIR / "frame_scores.jsonl",
            "--replay", tmp_path / "r.jsonl",
            "--in-flight", 0,
            "--out", tmp_path / "run",
        )
        assert code == 2
        assert "max_in_flight must be at least 1" in capsys.readouterr().err

    def test_resume_skips_existing(self, tmp_path, capsys):
        replay = tmp_path / "replay.jsonl"
        out = tmp_path / "run"
        from simrec.core import load_interactions
        from simrec.ipagent import batch_augment

        catalog, _ = load_interactions(DATA_DIR / "interactions.jsonl")
        with RecordingTransport(MockTransport(responder=make_caption_responder()), replay) as live:
            batch_augment(
                catalog,
                DATA_DIR / "frame_scores.jsonl",
                EndpointConfig(max_retries=0),
                live,
                tmp_path / "scratch.jsonl",
            )
        for _ in range(2):
            code = run(
                "augment",
                "--interactions", DATA_DIR / "interactions.jsonl",
                "--frame-scores", DATA_DIR / "frame_scores.jsonl",
                "--replay", replay,
                "--out", out,
            )
            assert code == 0
        assert "skipped: 5" in capsys.readouterr().out


class TestEvalRecCommand:
    def test_markov_beats_random_baseline(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--model", "markov",
            "--k", "10,20",
            "--slice", "all,cold",
            "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        model_hr = report["slices"]["all"]["hr"]
        random_hr = report["random_baseline"]["all"]["hr"]
        assert model_hr["10"] > random_hr["10"]
        assert model_hr["20"] >= model_hr["10"]

    @pytest.mark.parametrize("command", ["eval-rec", "rerank"])
    def test_captions_log_once_that_the_model_ranks_without_them(self, tmp_path, caplog, command):
        captions = tmp_path / "captions.jsonl"
        captions.write_text(json.dumps({"item": "v000", "caption": "a short caption"}) + "\n")
        extra = ["--feedback", DATA_DIR / "feedback.jsonl"] if command == "rerank" else []
        reports = []
        for given in ([], ["--captions", captions]):
            out = tmp_path / f"run{len(reports)}"
            caplog.clear()
            assert run(command, "--interactions", DATA_DIR / "interactions.jsonl", "--model", "markov",
                       *extra, *given, "--out", out) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert [r.getMessage() for r in caplog.records if "without captions" in r.getMessage()] == [
            "markov ranks without captions: they reach a ranking only as --features vectors computed outside simrec"
        ]

    def test_cold_slice_count_matches_hand_count(self, tmp_path, bundled_catalog_histories):
        _, histories = bundled_catalog_histories
        out = tmp_path / "run"
        assert run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--model", "popularity",
            "--out", out,
        ) == 0
        report = json.loads((out / "report.json").read_text())
        hand_count = sum(1 for h in histories if len(h) - 1 <= 5)
        assert report["slices"]["cold"]["n_users"] == hand_count

    def test_embedding_model_with_features(self, tmp_path):
        out = tmp_path / "run"
        assert run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--features", DATA_DIR / "features.jsonl",
            "--model", "embedding",
            "--out", out,
        ) == 0

    def test_mixed_length_features_exit_2_naming_the_line(self, tmp_path, capsys):
        features = tmp_path / "features.jsonl"
        rows = (DATA_DIR / "features.jsonl").read_text().splitlines()
        first, second = json.loads(rows[0]), json.loads(rows[1])
        features.write_text(json.dumps(first) + "\n" + json.dumps(second | {"vec": second["vec"][:-1]}) + "\n")
        assert run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--features", features,
            "--model", "embedding",
            "--out", tmp_path / "run",
        ) == 2
        assert f"{features}: line 2: vec has " in capsys.readouterr().err

    def test_embedding_without_features_exits_2(self, tmp_path):
        assert run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--model", "embedding",
            "--out", tmp_path / "run",
        ) == 2

    @pytest.mark.parametrize("out", ["taken", "taken/sub", pytest.param("x" * 300, id="name-too-long")])
    def test_out_at_or_below_a_file_exits_2_naming_it(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("not a directory\n")
        assert run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--out", tmp_path / out,
        ) == 2
        assert f"error: cannot make output directory {tmp_path / out}: " in capsys.readouterr().err

    def test_rerun_is_bit_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "eval-rec",
                "--interactions", DATA_DIR / "interactions.jsonl",
                "--model", "markov",
                "--out", out,
            ) == 0
            outputs.append((out / "report.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "markov", "k": "10"}))
        out = tmp_path / "run"
        assert run(
            "eval-rec",
            "--config", cfg,
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--k", "10,20",
            "--out", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"] == "markov"  # from config file
        assert manifest["config"]["k"] == "10,20"  # flag wins

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(
            "eval-rec",
            "--config", cfg,
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--out", tmp_path / "run",
        ) == 2

    def test_rerun_from_manifest_is_bit_identical(self, tmp_path):
        first = tmp_path / "first"
        assert run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--model", "markov",
            "--out", first,
        ) == 0
        second = tmp_path / "second"
        assert run(
            "eval-rec", "--config", first / "manifest.json", "--out", second
        ) == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    # SHA-256 of every file a run writes: ``digest`` is its report (report.json,
    # simulate's metrics.json or augment's captions.jsonl), ``outputs`` the rest.
    # Inputs are copied next to the run and named by relative paths, so that the
    # manifest bytes are stable; a changed pin must be named in CHANGES.md.
    @pytest.mark.parametrize(
        "dataset, model, features, digest, command, outputs",
        [
            ("bundled", "popularity", False, "6eeacd65b60d7dbc3537257f1a1d2431768bbf9685250f6d61e0be4938103ace",
             "eval-rec", {"manifest.json": "53a2db9c409e10cc3e5b3041479452186fc2eb65d3c45e9c8c3e5675945fac8e"}),
            ("bundled", "popularity", True, "6eeacd65b60d7dbc3537257f1a1d2431768bbf9685250f6d61e0be4938103ace",
             "eval-rec", {"manifest.json": "2bc10e80739dc5e84bfd8ec6ba748ae219a39384ca1dfac7b9766f8fd08c7817"}),
            ("bundled", "markov", False, "e9c47bd21aba4fb9650b0fb161397b73ea0445ec9324545169e92d9493301c9c",
             "eval-rec", {"manifest.json": "e7f107b4c1fe9bfaae1705acd17286e91bc08dcbba12b82843b67a32d77889b0"}),
            ("bundled", "markov", True, "e9c47bd21aba4fb9650b0fb161397b73ea0445ec9324545169e92d9493301c9c",
             "eval-rec", {"manifest.json": "d43d1b7ccf744a7f564c63eb5d1c19998a0fd097ee896b750fbc7f31775a2649"}),
            ("bundled", "embedding", True, "907f16763639dc819d224bfa7223090a414deb75e7b63f174926c4b053eac769",
             "eval-rec", {"manifest.json": "1cfba18898263e0c994bc4f4be341f0ffcef9789d94e21c9ac34b8603db7fd35"}),
            ("seeded", "popularity", False, "0e58d11562e9721404b6fe3410122b7981e8046e37ade85ee17d232362111afb",
             "eval-rec", {"manifest.json": "7581cadc4377b692f773200cf22f49aebebd96bdc1c40fe3fac1d2497ffa5788"}),
            ("seeded", "popularity", True, "0e58d11562e9721404b6fe3410122b7981e8046e37ade85ee17d232362111afb",
             "eval-rec", {"manifest.json": "853fd1545e1375947a9f7501113bb195e6679f0d0339090d07dd0649cd45d23d"}),
            ("seeded", "markov", False, "8c20adb483966eeccf67629108cd6f2eccfcd469e6c90299d897aaaeb1eac073",
             "eval-rec", {"manifest.json": "f95893d5cfb627f424d279993dfd5d93b1024dadbcc92f6ff05756fad7e19323"}),
            ("seeded", "markov", True, "8c20adb483966eeccf67629108cd6f2eccfcd469e6c90299d897aaaeb1eac073",
             "eval-rec", {"manifest.json": "9290771a559ae8868c59d397d0577b119c57a8a65011cce6526966972f2d97c1"}),
            ("seeded", "embedding", True, "d61667bd777727263cf3a330025a13abe33189bf24f27e3d13cdda2a527f4283",
             "eval-rec", {"manifest.json": "74c601477436e870763243f8e8d254c8d47bc280cfa5350e15b8280c869adfd2"}),
            ("bundled", "markov", False, "0a42debb6bcffc5b8fc5e3c46a7698fb011cb8f1574f3caad022a731e721bb61",
             "rerank", {"manifest.json": "b1f3729715bb9d9376e3fff88fa5b00ce2578c7768a7969e1021d06ecd6cbbf0"}),
            ("bundled", "markov", True, "0a42debb6bcffc5b8fc5e3c46a7698fb011cb8f1574f3caad022a731e721bb61",
             "rerank", {"manifest.json": "17e13cca62980491f84cec79a5f7c63d4196a7faa7219efef7bf9abe96056f29"}),
            ("bundled", "embedding", True, "f489a99573b362f59506d5adb08d8255e56bb84c6e44edd97cca851f086c313f",
             "rerank", {"manifest.json": "696675feeec5477d35e746def229c055478023a109e821feb27daf5b2a4d0a8e"}),
            ("seeded", "popularity", False, "289a8e610cb9eb6aa07f40ebc911373a8699e1e953c975702d4101d1039d0e54",
             "rerank", {"manifest.json": "0972f65953fc904a0604a80a4adfc1d66a460f420898704968f1d4f570cd244d"}),
            ("seeded", "markov", True, "94e11c87b2c5fb2e66b83dfbf51fd8c1f70c0b1c7b04818ad6122bfb4a3f63a0",
             "rerank", {"manifest.json": "56ba49eda6724587444a92fec09819e44ee4d25bfaed561de023734fdb1600d4"}),
            ("replayed", None, False, "80d8539bebfe572a836754240134ccbf1119fb95a7d51793d7cfdf724677ca29",
             "simulate", {"transcripts.jsonl": "4d8f31075853e5462645bc74028b38bc58084240457978471b0cea66c7112230",
             "manifest.json": "1147f65f77d63dad3b7d0b40b9e5845bc48edfc2127d125223216f2f491a01ca"}),
            ("messy", None, False, "137ecea93f411bdc051458c59facd7867e55fff9a5d7ad418ead3be48b28787f",
             "simulate", {"transcripts.jsonl": "f1b157e7fb1767f544a3a3591360e1e402054a8394d21d5497e8501f1b0d1903",
             "manifest.json": "b3327ab82b8d4c8e19a3f4daa92d1c60b81b731e6ec4a7935c1a35e7ab6c93a7"}),
            ("bundled", None, False, "9cca80cec2492bd6ff5da62959688838d8a67104b3e4f5a72097d79ea8c224bf",
             "augment", {"failures.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
             "manifest.json": "2f86f828191d2ff156299a60852e8128020f283e09c1ab909654b0f592a388ac"}),
        ],
    )
    def test_reports_are_pinned(
        self, dataset, model, features, digest, command, outputs, tmp_path, monkeypatch, request
    ):
        """Every ranker's report, with and without features (embedding needs them), is byte-stable,
        and so is every file that rerank, simulate --replay (answered perfectly, and messily with
        one failed request) and augment --replay write."""
        sources = {
            "bundled": lambda: {
                name: DATA_DIR / f"{name}.jsonl" for name in ("interactions", "features", "feedback", "frame_scores")
            },
            "seeded": lambda: request.getfixturevalue("seeded_dataset"),
            "replayed": lambda: dict(zip(("episodes", "replay"), request.getfixturevalue("replayed_episodes"))),
            "messy": lambda: dict(zip(("episodes", "replay"), request.getfixturevalue("messy_replay"))),
        }[dataset]()
        if command == "augment":
            sources["replay"] = request.getfixturevalue("caption_replay")
        names = {
            "eval-rec": ["interactions"],
            "rerank": ["interactions", "feedback"],
            "simulate": ["episodes", "replay"],
            "augment": ["interactions", "frame_scores", "replay"],
        }[command] + ["features"] * features
        argv = [command, "--out", "run"] + (["--model", model] if model else [])
        for name in names:
            shutil.copy(sources[name], tmp_path / f"{name}.jsonl")
            argv += ["--" + name.replace("_", "-"), f"{name}.jsonl"]
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 0
        report = {"simulate": "metrics.json", "augment": "captions.jsonl"}.get(command, "report.json")
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "run").iterdir()}
        assert written == {report: digest, **outputs}


@pytest.fixture(scope="module")
def seeded_dataset(tmp_path_factory):
    """A small seeded world whose features file also covers items no history touches."""
    return write_synthetic_dataset(tmp_path_factory.mktemp("seeded"), seed=3, n_users=60, n_items=200)


class TestSimulateCommand:
    def test_perfect_responder_scores_one(self, tmp_path, episode_source):
        rng = np.random.default_rng(71)
        episodes = [episode_source.sample(rng, "selection") for _ in range(40)]
        episodes_path = tmp_path / "episodes.jsonl"
        export_episodes(episodes, episodes_path)
        replay = tmp_path / "replay.jsonl"
        record_simulation(episodes, make_perfect_responder(episodes), replay)
        out = tmp_path / "run"
        assert run(
            "simulate",
            "--episodes", episodes_path,
            "--replay", replay,
            "--task", "selection",
            "--out", out,
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["selection_acc"]["3"] == 1.0
        transcripts = (out / "transcripts.jsonl").read_text().splitlines()
        assert len(transcripts) == 40

    def test_always_yes_on_balanced_judgment(self, tmp_path, episode_source):
        rng = np.random.default_rng(72)
        episodes = []
        # exactly balanced labels so chance accuracy is exactly one half
        likes = [ep for ep in (episode_source.sample(rng, "judgment") for _ in range(200)) if ep.truth == "like"][:25]
        dislikes = [ep for ep in (episode_source.sample(rng, "judgment") for _ in range(200)) if ep.truth == "dislike"][:25]
        episodes = likes + dislikes
        episodes_path = tmp_path / "episodes.jsonl"
        export_episodes(episodes, episodes_path)
        replay = tmp_path / "replay.jsonl"
        record_simulation(episodes, make_always_yes_responder(), replay)
        out = tmp_path / "run"
        assert run(
            "simulate", "--episodes", episodes_path, "--replay", replay, "--out", out
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["recall"] == 1.0
        assert metrics["acc"] == 0.5

    def test_uniform_responder_near_chance(self, tmp_path, episode_source):
        rng = np.random.default_rng(73)
        episodes = [episode_source.sample(rng, "selection") for _ in range(300)]
        episodes_path = tmp_path / "episodes.jsonl"
        export_episodes(episodes, episodes_path)
        replay = tmp_path / "replay.jsonl"
        record_simulation(episodes, make_uniform_responder(n_candidates=4, seed=1), replay)
        out = tmp_path / "run"
        assert run(
            "simulate", "--episodes", episodes_path, "--replay", replay, "--m", "3", "--out", out
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.15 <= metrics["selection_acc"]["3"] <= 0.35

    def test_manifest_lists_the_replay_file(self, tmp_path, replayed_episodes):
        episodes, replay = replayed_episodes
        out = tmp_path / "run"
        assert run("simulate", "--episodes", episodes, "--replay", replay, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {str(episodes), str(replay)}

    def test_replay_recorded_again_replays_to_the_same_bytes(self, tmp_path, replayed_episodes):
        episodes, replay = replayed_episodes
        again = tmp_path / "again.jsonl"
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("simulate", "--episodes", episodes, "--replay", replay, "--record", again, "--out", first) == 0
        assert run("simulate", "--episodes", episodes, "--replay", again, "--out", second) == 0
        for name in ("transcripts.jsonl", "metrics.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_endpoint_run_matches_a_replay_of_the_same_replies(self, tmp_path, replayed_episodes, loopback):
        episodes_path, _ = replayed_episodes
        episodes = load_episodes(episodes_path)
        answer = text_response(render_reply("browsing", "1"))
        replay = tmp_path / "replay.jsonl"
        record_simulation(episodes, lambda payload: answer, replay)
        loopback.replies.extend([reply(200, json.dumps(answer).encode())] * len(episodes))
        live, replayed = tmp_path / "live", tmp_path / "replayed"
        assert run("simulate", "--episodes", episodes_path, "--endpoint", loopback.url, "--retries", 0,
                   "--out", live) == 0
        assert run("simulate", "--episodes", episodes_path, "--replay", replay, "--out", replayed) == 0
        assert sorted(json.dumps(body, sort_keys=True) for _, body in loopback.requests) == sorted(
            json.dumps(simulation_request(ep.prompt).to_payload(), sort_keys=True) for ep in episodes
        )
        for name in ("transcripts.jsonl", "metrics.json"):
            assert (live / name).read_bytes() == (replayed / name).read_bytes(), name
        assert set(json.loads((live / "manifest.json").read_text())["inputs"]) == {str(episodes_path)}

    def test_missing_replay_and_endpoint_exits_2(self, tmp_path, episode_source):
        rng = np.random.default_rng(74)
        episodes_path = tmp_path / "episodes.jsonl"
        export_episodes([episode_source.sample(rng, "judgment")], episodes_path)
        assert run("simulate", "--episodes", episodes_path, "--out", tmp_path / "run") == 2

    def test_malformed_replay_row_exits_2_naming_file_and_line(self, tmp_path, episode_source, capsys):
        rng = np.random.default_rng(77)
        episodes_path = tmp_path / "episodes.jsonl"
        export_episodes([episode_source.sample(rng, "judgment")], episodes_path)
        replay = tmp_path / "replay.jsonl"
        replay.write_text('{"request": {}}\n')
        code = run("simulate", "--episodes", episodes_path, "--replay", replay, "--out", tmp_path / "run")
        assert code == 2
        assert "replay.jsonl: line 1" in capsys.readouterr().err

    def test_mixed_file_reports_both_metric_families(self, tmp_path, episode_source):
        rng = np.random.default_rng(75)
        episodes = [episode_source.sample(rng, "selection") for _ in range(10)]
        episodes += [episode_source.sample(rng, "judgment") for _ in range(10)]
        episodes_path = tmp_path / "episodes.jsonl"
        export_episodes(episodes, episodes_path)
        replay = tmp_path / "replay.jsonl"
        record_simulation(episodes, make_perfect_responder(episodes), replay)
        out = tmp_path / "run"
        assert run(
            "simulate", "--episodes", episodes_path, "--replay", replay, "--out", out
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["acc"] == 1.0
        assert metrics["selection_acc"]["3"] == 1.0
        assert metrics["n_episodes"] == 20


class TestTrainToyCommand:
    def test_fixed_seed_gives_identical_traces(self, tmp_path):
        traces = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "train-toy",
                "--iters", 60,
                "--seed", 5,
                "--task", "selection",
                "--out", out,
            ) == 0
            traces.append((out / "trace.jsonl").read_bytes())
        assert traces[0] == traces[1]

    def test_curriculum_on_and_off_complete(self, tmp_path, capsys):
        for task in ("mixed", "selection"):
            out = tmp_path / task
            assert run(
                "train-toy",
                "--iters", 40,
                "--seed", 2,
                "--task", task,
                "--out", out,
            ) == 0
            summary = json.loads((out / "summary.json").read_text())
            if task == "mixed":
                assert summary["switch_iteration"] == 20
                tasks = {
                    json.loads(line)["task"]
                    for line in (out / "trace.jsonl").read_text().splitlines()
                }
                assert tasks == {"judgment", "selection"}
            else:
                assert summary["switch_iteration"] is None

    @pytest.mark.parametrize("fraction", ["-0.5", "1.5", "nan"])
    def test_curriculum_fraction_outside_the_unit_interval_exits_2_naming_it(self, fraction, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train-toy", "--iters", 10, "--task", "mixed", "--curriculum-fraction", fraction, "--out", out) == 2
        assert "curriculum_fraction must lie in [0, 1]" in capsys.readouterr().err
        assert not (out / "trace.jsonl").exists()

    @pytest.mark.parametrize("n_eval", ["0", "-3"])
    def test_eval_episodes_below_1_exits_2_before_training(self, n_eval, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train-toy", "--iters", 10, "--eval-episodes", n_eval, "--out", out) == 2
        assert f"error: eval_episodes must be at least 1, got {n_eval}" in capsys.readouterr().err
        assert not (out / "trace.jsonl").exists()

    # SHA-256 of trace.jsonl, summary.json, the final W's bytes and manifest.json
    # at --iters 500 --seed 1 --out run; a change to any of them must be named
    # in CHANGES.md.
    @pytest.mark.parametrize(
        "task,trace,summary,weights,manifest",
        [
            ("selection", "c5b6983f610f2b5e3bb2759a1063fc1b3cde821a19388f4b19cb16871da77a4a",
             "17f56fad784687f769306e814e66901fad0c8065572bc304ac67079602287b37",
             "d4ef753587c1f50d968b670800dd8d2b6094a64cdac3d917f74c9c0e9a5c245d",
             "b59f490d22fa7b9515d25a09304f75abe99cbb17d51ac5c2534308d16a7621df"),
            ("judgment", "d935975c41d54a065668bdf13eb501ba26166cc657b074933f3e2bc6d5d48c3d",
             "09523aedc40bb960267d6cd9ae184dc8384f548dac146bbdc6a14d3046d276f9",
             "157d4c1ae88297a0610bdf174c9362a6fc967523493a4438bbab4d93b536179b",
             "2aa98aa1a341537f1b696d0732c2aa0b27fb4136c0961375e1d4668c8154ba5e"),
            ("mixed", "a5209ae8786365e54697d87dd88054b385d58b285f411759f1eae3a974148296",
             "7165493a255c83f779f466dcc466f56bb191a3125746b2d3bd235e454add472f",
             "35ca2441775a2e2e7e208b60abcbe743c1b57203b9bc29e81223542fc3822d64",
             "ef7c5022fdf5fa75b0373b4e66aa1e8e33915cb5abcf68b0bea2ebc24223fa23"),
        ],
    )
    def test_outputs_are_pinned(self, task, trace, summary, weights, manifest, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("train-toy", "--iters", 500, "--seed", 1, "--task", task, "--out", "run") == 0
        out = tmp_path / "run"
        with np.load(out / "policy.npz") as policy:
            w = policy["W"].tobytes()
        got = [hashlib.sha256(data).hexdigest() for data in (
            (out / "trace.jsonl").read_bytes(), (out / "summary.json").read_bytes(), w, (out / "manifest.json").read_bytes()
        )]
        assert got == [trace, summary, weights, manifest]

    def test_manifest_with_the_removed_curriculum_key_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"command": "train-toy", "config": {"iters": 4, "curriculum": "on"}, "inputs": [], "version": "0.1.0"}
        ))
        assert run("train-toy", "--config", manifest, "--out", tmp_path / "run") == 2
        assert "'curriculum'" in capsys.readouterr().err

    def test_config_sets_world_and_grpo_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n_users": 10, "n_items": 50, "dim": 4, "m": 2, "group_size": 4, "learning_rate": 0.02}
        ))
        out = tmp_path / "run"
        assert run("train-toy", "--config", cfg, "--iters", 10, "--out", out) == 0
        assert (out / "policy.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {}
        assert (manifest["config"]["n_users"], manifest["config"]["group_size"]) == (10, 4)

    def test_bad_grpo_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"group_size": 1}))
        assert run("train-toy", "--config", cfg, "--iters", 5, "--out", tmp_path / "run") == 2

    def test_rerun_from_manifest_is_bit_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_users": 12, "m": 2, "group_size": 6, "learning_rate": 0.02}))
        first = tmp_path / "first"
        assert run("train-toy", "--config", cfg, "--iters", 20, "--eval-episodes", 20, "--out", first) == 0
        cfg.unlink()
        second = tmp_path / "second"
        assert run("train-toy", "--config", first / "manifest.json", "--out", second) == 0
        for name in ("trace.jsonl", "summary.json", "policy.npz"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestRerankCommand:
    def test_empty_feedback_identity(self, tmp_path, capsys):
        feedback = tmp_path / "feedback.jsonl"
        feedback.write_text("")
        out = tmp_path / "run"
        assert run(
            "rerank",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--feedback", feedback,
            "--model", "markov",
            "--out", out,
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["before"] == report["after"]

    def test_aligned_feedback_does_not_hurt(self, tmp_path):
        out = tmp_path / "run"
        assert run(
            "rerank",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--feedback", DATA_DIR / "feedback.jsonl",
            "--model", "markov",
            "--out", out,
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["after"]["all"]["hr"]["10"] >= report["before"]["all"]["hr"]["10"]

    def test_manifest_lists_features_and_captions(self, tmp_path, bundled_catalog_histories):
        catalog, _ = bundled_catalog_histories
        captions = tmp_path / "captions.jsonl"
        captions.write_text(json.dumps({"item": min(catalog), "caption": "a short caption"}) + "\n")
        out = tmp_path / "run"
        assert run(
            "rerank",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--feedback", DATA_DIR / "feedback.jsonl",
            "--features", DATA_DIR / "features.jsonl",
            "--captions", captions,
            "--out", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {
            str(DATA_DIR / name) for name in ("interactions.jsonl", "feedback.jsonl", "features.jsonl")
        } | {str(captions)}

    def test_malformed_feedback_row_exits_2(self, tmp_path):
        feedback = tmp_path / "feedback.jsonl"
        feedback.write_text('{"user": "u000"}\n')
        assert run(
            "rerank",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--feedback", feedback,
            "--model", "markov",
            "--out", tmp_path / "run",
        ) == 2


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


@pytest.fixture(scope="module")
def replayed_episodes(tmp_path_factory, episode_source):
    """An episodes file and a replay file answering every simulate request for it."""
    root = tmp_path_factory.mktemp("replayed")
    rng = np.random.default_rng(76)
    episodes = [episode_source.sample(rng, kind) for kind in ("selection", "judgment") * 5]
    export_episodes(episodes, root / "episodes.jsonl")
    record_simulation(episodes, make_perfect_responder(episodes), root / "replay.jsonl")
    return root / "episodes.jsonl", root / "replay.jsonl"


def make_messy_responder(episodes):
    """Cycles, by each prompt's place in ``episodes``, through a correct index, a
    wrong index, an out-of-range index, a candidate's caption, "No", a reply
    without tags and an empty answer; a judgment reads "correct"/"wrong" as
    Yes/No and "caption" as its item id."""
    places = {ep.prompt: (place, ep) for place, ep in enumerate(episodes)}

    def responder(payload):
        place, ep = places[payload["messages"][-1]["content"]]
        task, truth = ep.task, ep.truth
        size = task.candidates.size if hasattr(task, "candidates") else 2
        correct = str(truth) if isinstance(truth, int) else ("Yes" if truth == "like" else "No")
        wrong = str(truth % size + 1) if isinstance(truth, int) else ("No" if truth == "like" else "Yes")
        caption = task.captions[-1] if hasattr(task, "candidates") else task.item
        answers = [correct, wrong, str(size + 1), caption, "No"]
        if place % 7 < 5:
            text = render_reply("browsing", answers[place % 7])
        else:
            text = "I would pick the first one" if place % 7 == 5 else "<think>unsure</think><answer></answer>"
        return text_response(text)

    return responder


@pytest.fixture(scope="module")
def messy_replay(tmp_path_factory):
    """Selection (m=3 and m=1) and judgment episodes, answered by the messy responder,
    with one recorded reply deleted so that its request fails."""
    root = tmp_path_factory.mktemp("messy")
    world, catalog, histories = generate_synthetic_world(
        n_users=20, n_items=80, dim=6, seed=23, history_length=5, pool_size=10
    )
    # captions without digits, so that a caption answer is matched as text, not as an index
    letters = str.maketrans("0123456789", "abcdefghij")
    catalog = {iid: dataclasses.replace(item, enhanced_caption=f"clip {iid.translate(letters)}")
               for iid, item in catalog.items()}
    sources = [SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=10, m=m, seed=5)) for m in (3, 1)]
    rng = np.random.default_rng(78)
    draws = [(sources[0], "selection"), (sources[0], "judgment"), (sources[1], "selection")]
    # 21 episodes: every answer of the 7-cycle meets every kind of the 3-cycle
    episodes = [source.sample(rng, kind) for _ in range(7) for source, kind in draws]
    export_episodes(episodes, root / "episodes.jsonl")
    record_simulation(episodes, make_messy_responder(episodes), root / "replay.jsonl")
    rows = (root / "replay.jsonl").read_text().splitlines(keepends=True)
    (root / "replay.jsonl").write_text("".join(rows[:4] + rows[5:]))
    return root / "episodes.jsonl", root / "replay.jsonl"


@pytest.fixture(scope="module")
def caption_replay(tmp_path_factory):
    from simrec.core import load_interactions
    from simrec.ipagent import batch_augment

    root = tmp_path_factory.mktemp("captions")
    catalog, _ = load_interactions(DATA_DIR / "interactions.jsonl")
    with RecordingTransport(MockTransport(responder=make_caption_responder()), root / "replay.jsonl") as live:
        batch_augment(
            catalog,
            DATA_DIR / "frame_scores.jsonl",
            EndpointConfig(max_retries=0, max_in_flight=1),
            live,
            root / "scratch.jsonl",
        )
    return root / "replay.jsonl"


def command_argv(command, replayed_episodes):
    """Flags that make ``command`` run quickly to completion on the bundled data."""
    episodes, replay = replayed_episodes
    return {
        "eval-rec": ["--interactions", DATA_DIR / "interactions.jsonl"],
        "simulate": ["--episodes", episodes, "--replay", replay],
        "train-toy": ["--iters", 4, "--eval-episodes", 4],
    }[command]


class TestConfigValues:
    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("train-toy", "task", "both"),
            ("simulate", "in_flight", "2"),
            ("simulate", "temperature", "0.0"),
            ("eval-rec", "k", [10, 20]),
            ("eval-rec", "seed", True),
            ("train-toy", "n_users", "10"),
            ("train-toy", "history_length", [3]),
            ("train-toy", "group_size", "4"),
        ],
    )
    def test_wrong_type_or_choice_exits_2_naming_the_key(
        self, command, key, value, tmp_path, capsys, replayed_episodes
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = command_argv(command, replayed_episodes)
        assert run(command, "--config", cfg, *argv, "--out", tmp_path / "run") == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("history_length", 301),
            ("history_length", [9, 4]),
            ("pool_size", 0),
            ("pool_size", -2),
            ("pool_size", 301),
            ("noise", -1.0),
            ("noise", math.nan),
            ("noise", math.inf),
            ("n_items", 1),
            ("dim", 0),
            ("m", 10),
        ],
    )
    def test_unusable_world_setting_exits_2_naming_the_key(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))  # nan and inf as JSON's NaN and Infinity
        out = tmp_path / "run"
        assert run("train-toy", "--config", cfg, "--iters", 4, "--eval-episodes", 4, "--out", out) == 2
        bounds = {
            "history_length": "must lie in [2, n_items=300], low <= high; got",
            "pool_size": "must lie in [1, n_items=300], got",
            "noise": "must be a finite number >= 0, got",
            "n_items": "must be at least 2, got",
            "dim": "must be at least 1, got",
            "m": "must be below pool_size=10, got",
        }
        assert f"error: {key} {bounds[key]} " in capsys.readouterr().err
        assert not (out / "trace.jsonl").exists()

    @pytest.mark.parametrize("timeout", ["0", "-1", "inf", "nan"])
    def test_timeout_that_is_not_finite_and_positive_exits_2_naming_it(
        self, timeout, tmp_path, capsys, replayed_episodes
    ):
        episodes, replay = replayed_episodes
        argv = ["--episodes", episodes, "--replay", replay, "--timeout", timeout, "--out", tmp_path / "run"]
        assert run("simulate", *argv) == 2
        assert "error: timeout must be a finite number of seconds above 0" in capsys.readouterr().err

    def test_unknown_train_toy_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"discount": 1.0}))
        assert run("train-toy", "--config", cfg, "--iters", 4, "--out", tmp_path / "run") == 2
        assert "unknown config keys: ['discount']" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[1, 2]", "{not json"])
    def test_unreadable_json_file_exits_2_naming_it(self, content, tmp_path, capsys):
        path = tmp_path / "file.json"
        path.write_text(content)
        assert run("train-toy", "--config", path, "--iters", 4, "--out", tmp_path / "run") == 2
        assert str(path) in capsys.readouterr().err

    def test_int_is_accepted_for_a_float_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"curriculum_fraction": 1, "temperature": 2}))
        out = tmp_path / "run"
        assert run("train-toy", "--config", cfg, "--iters", 4, "--eval-episodes", 4, "--out", out) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert type(config["curriculum_fraction"]) is float
        assert type(config["temperature"]) is float

    def test_flag_beats_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_users": 10, "m": 2}))
        out = tmp_path / "run"
        assert run(
            "train-toy", "--config", cfg, "--m", 3, "--iters", 4, "--eval-episodes", 4, "--out", out
        ) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["n_users"], config["m"]) == (10, 3)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["eval-rec", "--interactions", "{interactions}"], "an output directory is required (--out)"),
        (["eval-rec", "--out", "{out}"], "interactions file is required"),
        *((["eval-rec", "--interactions", "{interactions}", "--k", k, "--out", "{out}"], f"bad k list {k!r}")
          for k in ("0", "a", "10,")),
        (["eval-rec", "--interactions", "{interactions}", "--slice", "warm", "--out", "{out}"], "unknown slice 'warm'"),
        (["simulate", "--episodes", "{episodes}", "--replay", "{replay}", "--task", "selection", "--m", 5,
          "--out", "{out}"],
         "no episodes left after filtering"),
        (["simulate", "--episodes", "{episodes}", "--replay", "{replay}", "--retries", -1, "--out", "{out}"],
         "max_retries must be non-negative"),
        (["simulate", "--episodes", "{episodes}", "--replay", "{replay}", "--endpoint", "http://127.0.0.1:9",
          "--out", "{out}"],
         "give --endpoint URL or --replay FILE, not both"),
    ],
)
def test_usage_error_exits_2_naming_it(argv, message, tmp_path, capsys, replayed_episodes):
    episodes, replay = replayed_episodes
    paths = {"interactions": DATA_DIR / "interactions.jsonl", "episodes": episodes, "replay": replay,
             "out": tmp_path / "run"}
    assert run(*(str(a).format(**paths) for a in argv)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_internal_error_exits_1_without_a_manifest(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("scorer bug")

    monkeypatch.setattr(simrec.cli, "evaluate_leave_one_out", broken)
    out = tmp_path / "run"
    assert run("eval-rec", "--interactions", DATA_DIR / "interactions.jsonl", "--out", out) == 1
    assert "internal error: scorer bug" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


ENDPOINT_DEFAULTS = {"endpoint": None, "record": None, "timeout": 30.0, "retries": 3, "in_flight": 4}


@pytest.mark.parametrize(
    "argv,expected",
    [
        pytest.param(
            ["augment", "--interactions", "{interactions}", "--frame-scores", "{frame_scores}",
             "--replay", "{caption_replay}", "--in-flight", 2],
            {**ENDPOINT_DEFAULTS, "interactions": "{interactions}", "frame_scores": "{frame_scores}",
             "replay": "{caption_replay}", "model": "item-perception", "in_flight": 2},
            id="augment",
        ),
        pytest.param(
            ["eval-rec", "--interactions", "{interactions}", "--features", "{features}", "--model", "embedding",
             "--k", "5", "--seed", 3],
            {"interactions": "{interactions}", "captions": None, "features": "{features}", "model": "embedding",
             "k": "5", "slice": "all,cold", "seed": 3},
            id="eval-rec",
        ),
        pytest.param(
            ["simulate", "--episodes", "{episodes}", "--replay", "{replay}", "--task", "selection", "--m", 3,
             "--in-flight", 2, "--timeout", 5],
            {**ENDPOINT_DEFAULTS, "episodes": "{episodes}", "replay": "{replay}", "task": "selection", "m": 3,
             "in_flight": 2, "timeout": 5.0, "model": "user-sim", "temperature": 0.0},
            id="simulate",
        ),
        pytest.param(
            ["train-toy", "--iters", 6, "--eval-episodes", 4, "--task", "mixed", "--m", 2,
             "--curriculum-fraction", 0.5],
            {"iters": 6, "seed": 0, "task": "mixed", "curriculum_fraction": 0.5, "m": 2, "eval_episodes": 4,
             "n_users": 40, "n_items": 300, "dim": 8, "world_seed": 11, "history_length": 6, "pool_size": 10,
             "noise": 0.0, "like_threshold": 0.0, "temperature": 2.5, "group_size": 16, "clip_epsilon": 0.2,
             "kl_coefficient": 0.001, "learning_rate": 0.05, "std_floor": 1e-8},
            id="train-toy",
        ),
        pytest.param(
            ["rerank", "--interactions", "{interactions}", "--feedback", "{feedback}"],
            {"interactions": "{interactions}", "feedback": "{feedback}", "captions": None, "features": None,
             "model": "markov", "k": "10,20"},
            id="rerank",
        ),
    ],
)
def test_flags_only_run_writes_the_manifest_config(argv, expected, tmp_path, replayed_episodes, caption_replay):
    episodes, replay = replayed_episodes
    paths = {
        "interactions": DATA_DIR / "interactions.jsonl",
        "frame_scores": DATA_DIR / "frame_scores.jsonl",
        "features": DATA_DIR / "features.jsonl",
        "feedback": DATA_DIR / "feedback.jsonl",
        "episodes": episodes,
        "replay": replay,
        "caption_replay": caption_replay,
    }

    def fill(value):
        return str(value).format(**paths) if isinstance(value, str) else value

    out = tmp_path / "run"
    assert run(*map(fill, argv), "--out", out) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    expected = {key: fill(value) for key, value in expected.items()} | {"out": str(out)}
    # compared as JSON text so that 5 and 5.0 differ
    assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)
