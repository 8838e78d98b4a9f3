import json

import numpy as np
import pytest

from simrec.cli import main
from simrec.env import EnvConfig, SyntheticEpisodeSource, export_episodes, generate_synthetic_world
from simrec.fixtures import (
    make_always_yes_responder,
    make_caption_responder,
    make_perfect_responder,
    make_uniform_responder,
    simulation_request,
)
from simrec.llmclient import EndpointConfig, MockTransport, RecordingTransport, complete_batch
from conftest import DATA_DIR


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def episode_source():
    world, catalog, histories = generate_synthetic_world(
        n_users=20, n_items=80, dim=6, seed=19, history_length=5, pool_size=10
    )
    return SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=10, m=3, seed=3))


def record_simulation(episodes, responder, path):
    """Record responder replies for exactly the requests simulate will send."""
    cfg = EndpointConfig(max_retries=0, backoff_base=0.0)
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
                EndpointConfig(max_retries=0, backoff_base=0.0),
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
        assert len(manifest["inputs"]) == 2

    def test_missing_frame_scores_exits_2(self, tmp_path):
        code = run(
            "augment",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--frame-scores", tmp_path / "nope.jsonl",
            "--replay", tmp_path / "r.jsonl",
            "--out", tmp_path / "run",
        )
        assert code == 2

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
                EndpointConfig(max_retries=0, backoff_base=0.0),
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

    def test_embedding_without_features_exits_2(self, tmp_path):
        assert run(
            "eval-rec",
            "--interactions", DATA_DIR / "interactions.jsonl",
            "--model", "embedding",
            "--out", tmp_path / "run",
        ) == 2

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
            EndpointConfig(max_retries=0, backoff_base=0.0),
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
