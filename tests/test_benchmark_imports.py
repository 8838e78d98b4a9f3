"""Every benchmark workload module imports against the library as it stands.

The benchmark's own tests (``python3 -m pytest -q perfbench``) are not part of
the default test run, so without this a deleted or renamed library name that
``perfbench/`` imports would only show up when the benchmark runs.
"""

import importlib

import pytest

from conftest import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"


@pytest.mark.parametrize("name", ["train_grpo", "eval_loo", "endpoint", "reference"])
def test_benchmark_module_imports(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module(name)
    assert module.__file__ == str(PERFBENCH / f"{name}.py")
