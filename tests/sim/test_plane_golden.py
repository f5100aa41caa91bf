"""Golden pin of the simulator's observable behaviour.

Every adversary in the registry, plus crash wrappers around the two
index-reading attacks (``coin_aware`` and ``bubble``), drives three tasks
— PoisonPill leader election, one heterogeneous sifting phase, and
renaming — at ``n`` in {8, 17} under seeds 0–2.  Each case pins two
SHA-256 digests, committed in ``plane_golden.json``:

* ``trace`` — the canonical JSONL of the full event stream: the file
  :func:`~repro.obs.replay.record_trace` writes for registry names, and
  the :func:`~repro.obs.jsonl.event_line` rendering of a ``ListSink``
  capture for the wrapped adversaries;
* ``metrics`` — ``metrics.summary()``, ``messages_by_kind``,
  ``messages_sent_by``, ``comm_calls_by`` and the decisions.

The metrics digest is checked twice: on the traced run and on the same
run with no sink attached, so watching a run can never change it.

Regenerate the digests (only after a deliberate behaviour change) with::

    PYTHONPATH=src python tests/sim/test_plane_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.adversary import (
    ADVERSARY_FACTORIES,
    CrashingAdversary,
    RandomCrashAdversary,
)
from repro.harness.runners import (
    run_leader_election,
    run_renaming,
    run_sifting_phase,
)
from repro.obs.events import ListSink
from repro.obs.jsonl import event_line
from repro.obs.replay import record_trace

GOLDEN = Path(__file__).with_name("plane_golden.json")

TASKS = ("elect", "sift", "rename")
SIZES = (8, 17)
SEEDS = (0, 1, 2)
#: Crash wrappers around the adversaries that read the endpoint indexes.
WRAPPED = (
    "random_crash+coin_aware",
    "random_crash+bubble",
    "crashing+coin_aware",
    "crashing+bubble",
)
ADVERSARIES = tuple(sorted(ADVERSARY_FACTORIES)) + WRAPPED
#: The fixed crash schedule: ``(at_event, pid)`` pairs within both budgets.
CRASH_SCHEDULE = ((30, 1), (90, 4), (200, 6))

CASES = [
    f"{task}-{adversary}-{n}-{seed}"
    for task in TASKS
    for adversary in ADVERSARIES
    for n in SIZES
    for seed in SEEDS
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _wrapped(name: str, seed: int):
    wrapper, inner_name = name.split("+")
    inner = ADVERSARY_FACTORIES[inner_name](seed=seed)
    if wrapper == "random_crash":
        return RandomCrashAdversary(inner, rate=0.05, seed=seed)
    return CrashingAdversary(inner, CRASH_SCHEDULE)


def _run(task: str, adversary, n: int, seed: int, sink=None):
    if task == "elect":
        return run_leader_election(
            n, algorithm="poison_pill", adversary=adversary, seed=seed, sink=sink
        )
    if task == "sift":
        return run_sifting_phase(
            n, kind="heterogeneous", adversary=adversary, seed=seed, sink=sink
        )
    return run_renaming(
        n, algorithm="paper", adversary=adversary, seed=seed, sink=sink
    )


def _metrics_digest(result) -> str:
    metrics = result.metrics
    payload = {
        "summary": metrics.summary(),
        "messages_by_kind": {
            kind.value: count for kind, count in metrics.messages_by_kind.items()
        },
        "messages_sent_by": list(metrics.messages_sent_by),
        "comm_calls_by": list(metrics.comm_calls_by),
        "decisions": [
            [pid, repr(d.result), d.start_time, d.decide_time]
            for pid, d in sorted(result.decisions.items())
        ],
    }
    return _sha(json.dumps(payload, sort_keys=True))


def _digests(case: str, directory: Path) -> dict[str, str]:
    """The traced run's two digests plus the sink-free run's metrics digest."""
    task, adversary, n, seed = case.split("-")
    n, seed = int(n), int(seed)
    if adversary in WRAPPED:
        sink = ListSink()
        run = _run(task, _wrapped(adversary, seed), n, seed, sink=sink)
        trace = "".join(event_line(event) + "\n" for event in sink.events)
        bare = _run(task, _wrapped(adversary, seed), n, seed)
    else:
        path = directory / f"{case}.jsonl"
        run = record_trace(
            str(path), task=task, n=n, adversary=adversary, seed=seed
        ).run
        trace = path.read_text(encoding="utf-8")
        path.unlink()
        bare = _run(task, adversary, n, seed)
    return {
        "trace": _sha(trace),
        "metrics": _metrics_digest(run.result),
        "bare_metrics": _metrics_digest(bare.result),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_plane_golden(case, golden, tmp_path):
    digests = _digests(case, tmp_path)
    expected = golden[case]
    assert digests["trace"] == expected["trace"], "event stream changed"
    assert digests["metrics"] == expected["metrics"], "traced metrics changed"
    assert digests["bare_metrics"] == expected["metrics"], (
        "a run without a sink counted differently from the traced run"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = {}
        for case in CASES:
            digests = _digests(case, Path(scratch))
            if digests["bare_metrics"] != digests["metrics"]:
                sys.exit(f"{case}: traced and sink-free metrics differ")
            table[case] = {
                "trace": digests["trace"],
                "metrics": digests["metrics"],
            }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN}")
