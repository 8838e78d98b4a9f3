"""Correctness gates: a benchmark run fails when an output leaves its reference."""

from __future__ import annotations

from typing import Any, Sequence


class GateError(Exception):
    """An output differs from its reference; the run reports correct=false."""


def check_equal(what: str, got: Any, want: Any) -> None:
    if got != want:
        raise GateError(f"{what}: got {_short(got)}, reference {_short(want)}")


def check_at_least(what: str, value: float, floor: float) -> None:
    if not value >= floor:
        raise GateError(f"{what}: {value} is below the floor {floor}")


def check_at_most(what: str, value: float, ceiling: float) -> None:
    if not value <= ceiling:
        raise GateError(f"{what}: {value} is above the ceiling {ceiling}")


def check_train_trace(got: Sequence[dict], want: Sequence[dict], tol: float = 1e-9) -> None:
    """Per iteration: iter, task, mean_reward and accuracy exact; objective within ``tol``."""
    check_equal("train trace length", len(got), len(want))
    for g, w in zip(got, want):
        for key in ("iter", "task", "mean_reward", "accuracy"):
            if g[key] != w[key]:
                raise GateError(
                    f"train iteration {w['iter']}: {key} {g[key]!r} != reference {w[key]!r}"
                )
        if not abs(g["objective"] - w["objective"]) <= tol:
            raise GateError(
                f"train iteration {w['iter']}: objective {g['objective']!r} is more than "
                f"{tol} from reference {w['objective']!r}"
            )


def check_ranks(model: str, users: Sequence[str], got: Sequence[int | None], want: Sequence[int | None]) -> None:
    check_equal(f"{model}: ranked users", len(got), len(want))
    for user, g, w in zip(users, got, want):
        if g != w:
            raise GateError(f"{model}: user {user!r} ranked at {g}, direct top_k rank {w}")


def check_report(what: str, got: dict, want: dict, ndcg_tol: float = 1e-12) -> None:
    """HR@k, slice and user count exact; NDCG@k within ``ndcg_tol`` (relative).

    NDCG is a sum of irrational gains, so its last bit depends on summation
    order; any order is correct, a wrong gain or cut-off is not.
    """
    check_equal(f"{what}: keys", sorted(got), sorted(want))
    for key in ("slice", "n_users", "hr"):
        check_equal(f"{what}: {key}", got[key], want[key])
    check_equal(f"{what}: ndcg cut-offs", sorted(got["ndcg"]), sorted(want["ndcg"]))
    for k, w in want["ndcg"].items():
        g = got["ndcg"][k]
        if not abs(g - w) <= ndcg_tol * max(1.0, abs(w)):
            raise GateError(f"{what}: ndcg@{k} {g!r} != reference {w!r}")


def check_replay(recorded: Sequence[object], replayed: Sequence[object]) -> None:
    """Replay must return the recorded reply text for every request, in order."""
    check_equal("replayed reply count", len(replayed), len(recorded))
    for i, (rec, rep) in enumerate(zip(recorded, replayed)):
        if not isinstance(rec, str):
            raise GateError(f"request {i}: record pass failed ({rec})")
        if rep != rec:
            raise GateError(f"request {i}: replay reply {_short(rep)} != recorded {_short(rec)}")


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."
