from pathlib import Path

import pytest

from simrec.core import load_interactions
from simrec.env import EnvConfig, SyntheticEpisodeSource, generate_synthetic_world

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data" / "synthetic"


@pytest.fixture(scope="session")
def bundled_dataset():
    """Paths to the committed synthetic dataset."""
    paths = {
        "interactions": DATA_DIR / "interactions.jsonl",
        "features": DATA_DIR / "features.jsonl",
        "frame_scores": DATA_DIR / "frame_scores.jsonl",
        "feedback": DATA_DIR / "feedback.jsonl",
    }
    for path in paths.values():
        assert path.is_file(), f"missing bundled fixture {path}"
    return paths


@pytest.fixture(scope="session")
def bundled_catalog_histories(bundled_dataset):
    return load_interactions(bundled_dataset["interactions"])


@pytest.fixture(scope="session")
def small_world():
    """A small synthetic world shared by environment and policy tests."""
    world, catalog, histories = generate_synthetic_world(
        n_users=12, n_items=60, dim=4, seed=5, history_length=5, pool_size=8
    )
    source = SyntheticEpisodeSource(
        world, catalog, histories, EnvConfig(top_k=8, m=3, seed=2), pool_size=8
    )
    return world, catalog, histories, source

