"""Command-line entry point for reproducible runs.

Five subcommands: ``augment`` (caption items through the perception
pipeline), ``eval-rec`` (leave-one-out ranking metrics), ``simulate`` (score
an endpoint's behavior on exported episodes), ``train-toy`` (desk-scale
grouped policy optimization), and ``rerank`` (before/after metrics around
feedback augmentation).

``main`` runs every command the same way: it resolves the settings as
defaults < --config JSON < explicit flags, makes the output directory, runs
the command, and last writes the resolved config plus the digest of every
input file it names into ``<out>/manifest.json``, which marks a finished
run. It exits 0 on success, 2 on usage/input errors, and 1 on internal errors.

Each command's settings are declared once, in ``_COMMANDS``: the table builds
the argparse sub-parsers and the defaults, checks every value read from a
JSON file against the type and choices of the flag it stands for, and marks
the options that name an input file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .core import Judgment, Selection, atomic_write, attach_captions, load_interactions, write_jsonl, write_npz
from .env import EnvConfig, Episode, SyntheticEpisodeSource, derive_seed, generate_synthetic_world, load_episodes
from .grpo import (
    GrpoConfig,
    ToySoftmaxPolicy,
    curriculum_switch_iteration,
    evaluate_policy,
    train,
)
from .fixtures import SIM_MODEL, simulation_request
from .ipagent import DEFAULT_CAPTION_MODEL, batch_augment
from .llmclient import (
    ClientError,
    EndpointConfig,
    HttpTransport,
    RecordingTransport,
    ReplayTransport,
    Transport,
    complete_batch,
)
from .recommender import (
    GENERATORS,
    RandomGenerator,
    augment_with_feedback,
    classification_metrics,
    evaluate_leave_one_out,
    load_feedback,
    load_item_features,
)
from .rewards import ANSWER_LABELS, parse_response, score_parsed

logger = logging.getLogger(__name__)


class InputError(ValueError):
    """Bad flags or bad input files; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class _Option:
    """One setting of a command.

    ``type`` is ``str``, ``int`` or ``float`` (the flag's argparse type and the
    JSON type a file must give), or ``tuple`` for a history length: an integer
    or a [low, high] pair of integers. A ``None`` default makes ``null`` valid.
    ``input`` marks a file the command reads, whose digest goes into the manifest.
    """

    name: str
    type: type = str
    default: object = None
    choices: tuple = ()
    flag: bool = True
    help: str | None = None
    input: bool = False


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", tuple: "an integer or [low, high]"}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, obj: object) -> None:
    with atomic_write(path) as handle:
        handle.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _write_manifest(out_dir: Path, command: str, config: dict, options: tuple[_Option, ...]) -> None:
    inputs = sorted(str(Path(config[o.name])) for o in options if o.input and config[o.name])
    manifest = {
        "command": command,
        "config": config,
        "inputs": {p: _sha256(Path(p)) for p in inputs},
        "version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(resolved: dict) -> Path:
    out = resolved.get("out")
    if not out:
        raise InputError("an output directory is required (--out)")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make output directory {path}: {exc.strerror}") from exc
    return path


def _require_file(path_str: str | None, what: str) -> Path:
    if not path_str:
        raise InputError(f"{what} is required")
    path = Path(path_str)
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    return path


def _read_json_object(path_str: str) -> dict:
    path = _require_file(path_str, "config file")
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return value


def _typed(option: _Option, value: object) -> object:
    """A value read from the config file, checked against its option."""
    if value is None and option.default is None:
        return None
    if option.type is float and type(value) is int:
        value = float(value)
    if option.type is tuple:
        ok = type(value) is int or (
            type(value) is list and len(value) == 2 and all(type(v) is int for v in value)
        )
    else:
        ok = type(value) is option.type  # so a bool is not an int
    if not ok:
        raise InputError(f"config key {option.name!r} must be {_TYPE_NAMES[option.type]}, got {value!r}")
    if option.choices and value not in option.choices:
        raise InputError(f"config key {option.name!r} must be one of {list(option.choices)}, got {value!r}")
    return tuple(value) if type(value) is list else value


def _checked(values: dict, options: tuple[_Option, ...]) -> dict:
    by_name = {option.name: option for option in options}
    unknown = set(values) - set(by_name)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return {key: _typed(by_name[key], value) for key, value in values.items()}


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags."""
    resolved = {option.name: option.default for option in args.options}
    if args.config:
        file_cfg = _read_json_object(args.config)
        manifest_keys = {"command", "config", "inputs", "version"}
        if set(file_cfg) == manifest_keys and isinstance(file_cfg["config"], dict):
            # a manifest from a previous run reruns with its resolved config
            file_cfg = file_cfg["config"]
        resolved.update(_checked(file_cfg, args.options))
    for option in args.options:
        if option.flag and getattr(args, option.name) is not None:
            resolved[option.name] = getattr(args, option.name)
    return resolved


def _endpoint_config(resolved: dict) -> EndpointConfig:
    return EndpointConfig(
        base_url=resolved.get("endpoint") or "",
        timeout=resolved["timeout"],
        max_retries=resolved["retries"],
        max_in_flight=resolved["in_flight"],
    )


@contextlib.contextmanager
def _transport(resolved: dict, cfg: EndpointConfig) -> Iterator[Transport]:
    if resolved.get("replay") and resolved.get("endpoint"):
        raise InputError("give --endpoint URL or --replay FILE, not both")
    if resolved.get("replay"):
        transport: Transport = ReplayTransport(_require_file(resolved["replay"], "replay file"))
    elif resolved.get("endpoint"):
        transport = HttpTransport(cfg)
    else:
        raise InputError("provide --endpoint URL or --replay FILE")
    if resolved.get("record"):
        with RecordingTransport(transport, resolved["record"]) as recorder:
            yield recorder
    else:
        yield transport


def _ks(spec: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(k) for k in spec.split(","))
    except ValueError as exc:
        raise InputError(f"bad k list {spec!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise InputError(f"bad k list {spec!r}")
    return ks


def _load_catalog_histories(resolved: dict):
    """The catalog (with any captions and features) and the histories."""
    catalog, histories = load_interactions(_require_file(resolved["interactions"], "interactions file"))
    for name, attach in (("captions", attach_captions), ("features", load_item_features)):
        if resolved[name]:
            catalog = attach(catalog, _require_file(resolved[name], f"{name} file"))
    if resolved["captions"]:
        logger.warning(
            "%s ranks without captions: they reach a ranking only as --features vectors computed outside simrec",
            resolved["model"],
        )
    return catalog, histories


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

def cmd_augment(resolved: dict, out: Path) -> None:
    interactions = _require_file(resolved["interactions"], "interactions file")
    frame_scores = _require_file(resolved["frame_scores"], "frame-scores file")
    catalog, _ = load_interactions(interactions)
    cfg = _endpoint_config(resolved)
    captions_path = out / "captions.jsonl"
    with _transport(resolved, cfg) as transport:
        report = batch_augment(
            catalog,
            frame_scores,
            cfg,
            transport,
            captions_path,
            model=resolved["model"],
            parallelism=cfg.max_in_flight,
        )
    if not captions_path.exists():
        # nothing captioned and no earlier file: the printed path must still name a file
        write_jsonl(captions_path, [])
    _write_json(out / "failures.json", [{"item": i, "stage": s} for i, s in report.failures])
    print(f"captions: {captions_path}")
    print(f"written: {report.written} skipped: {report.skipped} failed: {len(report.failures)}")


# ---------------------------------------------------------------------------
# eval-rec
# ---------------------------------------------------------------------------

def cmd_eval_rec(resolved: dict, out: Path) -> None:
    catalog, histories = _load_catalog_histories(resolved)
    ks = _ks(resolved["k"])
    slices = tuple(resolved["slice"].split(","))
    train_views = [h.training_view() for h in histories]

    generator = GENERATORS[resolved["model"]](train_views, catalog)
    reports = evaluate_leave_one_out(generator, histories, ks=ks, slices=slices)

    baseline = RandomGenerator(seed=resolved["seed"])
    baseline.fit(train_views, catalog)
    baseline_reports = evaluate_leave_one_out(baseline, histories, ks=ks, slices=slices)

    payload = {
        "model": resolved["model"],
        "slices": {tag: rep.to_dict() for tag, rep in reports.items()},
        "random_baseline": {tag: rep.to_dict() for tag, rep in baseline_reports.items()},
    }
    _write_json(out / "report.json", payload)
    for tag, rep in reports.items():
        for k in ks:
            print(f"{resolved['model']} [{tag}] HR@{k}={rep.hr[k]:.4f} NDCG@{k}={rep.ndcg[k]:.4f}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _transcript_row(episode: Episode, reply: str | ClientError) -> dict:
    """One transcripts.jsonl row: the reply parsed once, its action and its rewards."""
    text = reply if isinstance(reply, str) else ""
    parsed = parse_response(text, episode.task)
    breakdown = score_parsed(parsed, episode.task, episode.truth)
    return {
        "user": episode.user,
        "task": "judgment" if isinstance(episode.task, Judgment) else "selection",
        "truth": episode.truth,
        "response": text if isinstance(reply, str) else f"<error: {reply}>",
        "action": parsed.action,
        "r_format": breakdown.r_format,
        "r_task": breakdown.r_task,
        "total": breakdown.total,
    }


def _simulation_metrics(episodes: list[Episode], rows: list[dict]) -> dict:
    """metrics.json: rewards over every row, classification over judgment rows,
    and selection accuracy per candidate count m (the episodes give m)."""
    metrics: dict = {
        "n_episodes": len(rows),
        "mean_total_reward": float(np.mean([row["total"] for row in rows])),
        "slice": "all",
        "n_users": len({row["user"] for row in rows}),
    }
    judged = [row for row in rows if row["task"] == "judgment"]
    if judged:
        predictions = [ANSWER_LABELS.get(row["action"]) for row in judged]
        metrics.update(classification_metrics(predictions, [row["truth"] for row in judged])._asdict())
        metrics["parse_failures"] = sum(row["action"] is None for row in judged)
    hits: dict[int, list[bool]] = {}
    for episode, row in zip(episodes, rows):
        if row["task"] == "selection":
            hits.setdefault(episode.task.candidates.size - 1, []).append(row["action"] == row["truth"])
    if hits:
        metrics["selection_acc"] = {str(m): float(np.mean(h)) for m, h in sorted(hits.items())}
    return metrics


def cmd_simulate(resolved: dict, out: Path) -> None:
    episodes = load_episodes(_require_file(resolved["episodes"], "episodes file"))
    if resolved["task"]:
        kind = Judgment if resolved["task"] == "judgment" else Selection
        episodes = [ep for ep in episodes if isinstance(ep.task, kind)]
    if resolved["m"] is not None:
        m = resolved["m"]
        episodes = [
            ep
            for ep in episodes
            if not isinstance(ep.task, Selection) or ep.task.candidates.size - 1 == m
        ]
    if not episodes:
        raise InputError("no episodes left after filtering")

    cfg = _endpoint_config(resolved)
    requests = [
        simulation_request(ep.prompt, model=resolved["model"], temperature=resolved["temperature"])
        for ep in episodes
    ]
    with _transport(resolved, cfg) as transport:
        replies = complete_batch(requests, cfg, transport=transport)

    transcripts = [_transcript_row(episode, reply) for episode, reply in zip(episodes, replies)]
    metrics = _simulation_metrics(episodes, transcripts)
    write_jsonl(out / "transcripts.jsonl", transcripts)
    _write_json(out / "metrics.json", metrics)
    print(json.dumps(metrics, sort_keys=True))


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def cmd_train_toy(resolved: dict, out: Path) -> None:
    iterations = resolved["iters"]
    n_eval = resolved["eval_episodes"]
    if n_eval < 1:  # checked before training writes trace.jsonl
        raise InputError(f"eval_episodes must be at least 1, got {n_eval}")
    # a ValueError from either is an input error, as main reports every ValueError
    grpo_cfg = GrpoConfig(**{o.name: resolved[o.name] for o in _GRPO})
    switch = curriculum_switch_iteration(iterations, resolved["curriculum_fraction"])

    task = resolved["task"]

    world, catalog, histories = generate_synthetic_world(
        seed=resolved["world_seed"], **{o.name: resolved[o.name] for o in _WORLD}
    )
    env_cfg = EnvConfig(top_k=resolved["pool_size"], m=resolved["m"], seed=resolved["seed"])
    source = SyntheticEpisodeSource(world, catalog, histories, env_cfg, pool_size=resolved["pool_size"])
    policy = ToySoftmaxPolicy(world, dim=resolved["dim"], temperature=resolved["temperature"])

    report_every = max(1, iterations // 10)

    def report_progress(entry: dict) -> None:
        if entry["iter"] % report_every == 0 or entry["iter"] == iterations - 1:
            print(
                f"iter {entry['iter']:>5} [{entry['task']}] "
                f"mean_reward {entry['mean_reward']:+.3f} accuracy {entry['accuracy']:.2f}"
            )

    trace = train(
        source,
        policy,
        grpo_cfg,
        iterations=iterations,
        seed=resolved["seed"],
        task=task,
        curriculum_fraction=resolved["curriculum_fraction"],
        trace_path=out / "trace.jsonl",
        progress=report_progress,
    )

    eval_rng = np.random.default_rng(derive_seed(resolved["seed"], "held-out"))
    heldout: dict[str, float] = {}
    kinds = ("judgment", "selection") if task == "mixed" else (task,)
    for kind in kinds:
        episodes = [source.sample(eval_rng, kind) for _ in range(n_eval)]
        heldout[kind] = evaluate_policy(policy, episodes)

    write_npz(out / "policy.npz", W=policy.W)
    summary = {
        "iterations": iterations,
        "task": task,
        "heldout_accuracy": heldout,
        "final_mean_reward": trace[-1]["mean_reward"],
        "switch_iteration": switch if task == "mixed" else None,
    }
    _write_json(out / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True))


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------

def cmd_rerank(resolved: dict, out: Path) -> None:
    catalog, histories = _load_catalog_histories(resolved)
    feedback = load_feedback(_require_file(resolved["feedback"], "feedback file"))
    ks = _ks(resolved["k"])

    train_views = [h.training_view() for h in histories]
    fit = GENERATORS[resolved["model"]]
    before = evaluate_leave_one_out(fit(train_views, catalog), histories, ks=ks)
    augmented = augment_with_feedback(train_views, feedback, catalog)
    after = evaluate_leave_one_out(fit(augmented, catalog), histories, ks=ks)

    payload = {
        "model": resolved["model"],
        "n_feedback": len(feedback),
        "before": {tag: rep.to_dict() for tag, rep in before.items()},
        "after": {tag: rep.to_dict() for tag, rep in after.items()},
    }
    _write_json(out / "report.json", payload)
    for k in ks:
        print(
            f"HR@{k}: before={before['all'].hr[k]:.4f} after={after['all'].hr[k]:.4f}"
        )


# ---------------------------------------------------------------------------
# option table and parser
# ---------------------------------------------------------------------------


def _paths(*names: str) -> tuple[_Option, ...]:
    """Options naming an input file: strings with no default."""
    return tuple(_Option(name, input=True) for name in names)


_OUT = _Option("out", help="output directory for this run")
_ENDPOINT = (
    _Option("endpoint", help="chat-completion base URL"),
    _Option("replay", help="replay transcript file instead of a live endpoint", input=True),
    _Option("record", help="record request/response pairs to this file"),
    _Option("timeout", float, 30.0),
    _Option("retries", int, 3),
    _Option("in_flight", int, 4),
)
_MODEL_HELP = "model name sent with each request"
_RANKERS = tuple(sorted(GENERATORS))
_TASKS = ("judgment", "selection")

# the generate_synthetic_world settings besides its seed, set through train-toy's --config
_WORLD = (
    _Option("n_users", int, 40, flag=False),
    _Option("n_items", int, 300, flag=False),
    _Option("dim", int, 8, flag=False),
    _Option("history_length", tuple, 6, flag=False),
    _Option("pool_size", int, 10, flag=False),
    _Option("noise", float, 0.0, flag=False),
    _Option("like_threshold", float, 0.0, flag=False),
)

# the GrpoConfig fields, set through train-toy's --config
_GRPO = tuple(_Option(f.name, type(f.default), f.default, flag=False) for f in dataclasses.fields(GrpoConfig))

# command -> (help, function(resolved, out), options); every command also takes --config and --out
_COMMANDS = {
    "augment": ("caption items via the perception pipeline", cmd_augment, (
        *_paths("interactions", "frame_scores"),
        *_ENDPOINT,
        _Option("model", default=DEFAULT_CAPTION_MODEL, help=_MODEL_HELP),
    )),
    "eval-rec": ("leave-one-out ranking metrics", cmd_eval_rec, (
        *_paths("interactions", "captions", "features"),
        _Option("model", default="popularity", choices=_RANKERS),
        _Option("k", default="10,20"),
        _Option("slice", default="all,cold"),
        _Option("seed", int, 0),
    )),
    "simulate": ("score an endpoint on exported episodes", cmd_simulate, (
        _Option("episodes", input=True),
        _Option("task", choices=_TASKS),
        _Option("m", int),
        *_ENDPOINT,
        _Option("model", default=SIM_MODEL, help=_MODEL_HELP),
        _Option("temperature", float, 0.0),
    )),
    "train-toy": ("desk-scale grouped policy optimization", cmd_train_toy, (
        _Option("iters", int, 1000),
        _Option("seed", int, 0),
        _Option("task", default="selection", choices=(*_TASKS, "mixed")),
        _Option("curriculum_fraction", float, 0.5),
        _Option("eval_episodes", int, 400),
        _Option("world_seed", int, 11, flag=False),
        *_WORLD,
        _Option("m", int, 3),
        _Option("temperature", float, 2.5, flag=False),
        *_GRPO,
    )),
    "rerank": ("before/after metrics around liked feedback", cmd_rerank, (
        *_paths("interactions", "feedback", "captions", "features"),
        _Option("model", default="markov", choices=_RANKERS),
        _Option("k", default="10,20"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrec",
        description="User-simulation harness and recommendation environment.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command")
    for name, (summary, func, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("--config", help="JSON config file; flags override its keys")
        options = (*options, _OUT)
        for option in options:
            if option.flag:
                sub.add_argument(
                    "--" + option.name.replace("_", "-"),
                    dest=option.name,
                    type=option.type,
                    choices=option.choices or None,
                    help=option.help,
                )
        sub.set_defaults(func=func, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        resolved = _resolve(args)
        out = _out_dir(resolved)
        args.func(resolved, out)
        _write_manifest(out, args.command, resolved, args.options)
        return 0
    except (InputError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
