import http.server
import json
import threading
from pathlib import Path

import pytest

from simrec.core import load_interactions
from simrec.env import EnvConfig, SyntheticEpisodeSource, generate_synthetic_world

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
DATA_DIR = REPO_ROOT / "data" / "synthetic"


def pytest_collection_modifyitems(items):
    """Fail a test under tests/ that leaks a file handle.

    An unclosed file warns from its finaliser, where a raised warning becomes
    an unraisable exception, so both warnings are errors.
    """
    for item in items:
        if TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


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


def reply(status, body=b"", length=None):
    """A scripted reply: ``status`` and ``body``, announced as ``length`` bytes (default: its size)."""

    def send(handler):
        handler.send_response(status)
        handler.send_header("Content-Length", str(len(body) if length is None else length))
        handler.end_headers()
        handler.wfile.write(body)

    return send


class Loopback:
    """A stdlib HTTP server on 127.0.0.1 that answers the n-th POST with ``replies[n]``
    and keeps each request's headers and JSON body."""

    def __init__(self):
        self.replies = []
        self.requests = []
        owner = self

        class Handler(http.server.BaseHTTPRequestHandler):
            disable_nagle_algorithm = True  # else delayed ACKs add about 40 ms per request

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                owner.requests.append((dict(self.headers), json.loads(body)))
                owner.replies[len(owner.requests) - 1](self)

            def log_message(self, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.done = threading.Event()
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,))  # poll: quick shutdown
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def close(self):
        self.server.done.set()
        self.server.shutdown()
        self.server.server_close()  # also joins the request threads
        self.thread.join(10)
        assert not self.thread.is_alive()


@pytest.fixture()
def loopback(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # never route the test's requests through a proxy
    server = Loopback()
    yield server
    server.close()
