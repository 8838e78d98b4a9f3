"""Scripted responders and mocks that only the tests use."""

from collections import deque

from simrec.llmclient import MockTransport, text_response
from simrec.rewards import render_reply

STATUS = "steady viewing habits"


def make_perfect_responder(episodes):
    """Answers every known episode prompt with its ground truth."""
    truths = {ep.prompt: ep.truth for ep in episodes}

    def responder(payload):
        truth = truths[payload["messages"][-1]["content"]]
        answer = str(truth) if isinstance(truth, int) else ("Yes" if truth == "like" else "No")
        return text_response(render_reply(STATUS, answer))

    return responder


def make_always_yes_responder():
    def responder(payload):
        return text_response(render_reply(STATUS, "Yes"))

    return responder


def scripted_mock(entries):
    """A ``MockTransport`` whose n-th send answers ``entries[n]``: a response dict
    or text, or an exception to raise. A send past the last entry fails the test."""
    queue = deque(entries)

    def responder(payload):
        try:
            entry = queue.popleft()
        except IndexError:
            raise AssertionError("mock script exhausted") from None
        if isinstance(entry, Exception):
            raise entry
        return entry

    return MockTransport(responder)
