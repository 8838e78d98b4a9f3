"""Every benchmark workload module imports, and runs traced, against the library as it stands.

The benchmark's own tests (``python3 -m pytest -q perfbench``) are not part of
the default test run, so without this a deleted or renamed library name that
``perfbench/`` imports would only show up when the benchmark runs.
"""

import gc
import importlib
import warnings

import pytest

from conftest import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"

# the seeds and sizes perfbench/test_gates.py runs; train-grpo needs 800 iterations to reach its held-out floor
WORKLOADS = {
    "train_grpo": ("TrainGrpo", {"seed": 2, "iterations": 800}),
    "eval_loo": ("EvalLoo", {"seed": 4, "n_users": 80, "n_items": 300}),
    "endpoint": ("EndpointRecordReplay", {"seed": 6, "n_users": 40, "n_items": 120, "augment_items": 5}),
}


@pytest.mark.parametrize("name", ["train_grpo", "eval_loo", "endpoint", "reference"])
def test_benchmark_module_imports(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module(name)
    assert module.__file__ == str(PERFBENCH / f"{name}.py")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_passes_every_correctness_gate(name, tmp_path, monkeypatch):
    """A traced run drives simrec through the tracer's proxies and patches, which an untraced one skips.

    Rounds this short are mostly tracing overhead, so the ceiling on the share
    of a round no simrec span covers is lifted: a round over it would end the
    run before the correctness gates that follow it are checked. The endpoint
    workload never closes its ``RecordingTransport``, so the replay file's
    unclosed handle is the one warning allowed.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "UNCOVERED_CEILING", 1.0)
    class_name, settings = WORKLOADS[name]
    wl = getattr(importlib.import_module(name), class_name)(tmp_path, **settings)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = run.execute(wl, seconds=0.001, trace=True, import_probe=lambda: 0.0, run_id="test")
        gc.collect()
    assert outcome.failure is None
    assert outcome.attempted > 0 and outcome.failed == 0
    assert 0.0 <= outcome.values["trace.uncovered_share"] <= 1.0
    unclosed_replay = f"unclosed file <_io.FileIO name='{tmp_path / 'replay.jsonl'}' mode='ab' closefd=True>"
    assert [str(w.message) for w in caught if str(w.message) != unclosed_replay] == []
