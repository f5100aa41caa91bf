"""Golden pin of the positional scan adversaries, bare and crash-wrapped.

The six adversaries that scan the pool by position — ``eager``,
``oblivious``, ``quorum_split``, ``random``, ``round_robin`` and
``sequential`` — each drive PoisonPill leader election and one
heterogeneous sifting phase at ``n`` in {8, 17} under seeds 0–2, three
ways: bare, inside a fixed-schedule :class:`CrashingAdversary`, and
inside a :class:`RandomCrashAdversary`.  The crash wrappers matter here:
a wrapper's ``Crash`` lands between two of the inner scheduler's actions,
so any state the inner scheduler carries from one action to the next
(the sequential focus, the rotation cursor, the RNG stream) must see it.

Each case pins two SHA-256 digests, committed in ``scan_golden.json``:

* ``events`` — the full event stream, captured by a ``ListSink``, as one
  canonical JSON array of ``[time, type, pid, fields]`` rows (sorted
  keys, no whitespace, values converted by
  :func:`~repro.obs.events.json_safe` as in a recorded trace).  One
  ``json.dumps`` call per case keeps the 216 cases cheap;
* ``outcome`` — the decisions and ``metrics.summary()``.

Regenerate the digests (only after a deliberate behaviour change) with::

    PYTHONPATH=src python tests/adversary/test_scan_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.adversary import (
    ADVERSARY_FACTORIES,
    CrashingAdversary,
    RandomCrashAdversary,
)
from repro.harness.runners import run_leader_election, run_sifting_phase
from repro.obs.events import ListSink, json_safe

GOLDEN = Path(__file__).with_name("scan_golden.json")

SCANNERS = ("eager", "oblivious", "quorum_split", "random", "round_robin", "sequential")
WRAPPERS = ("bare", "crashing", "random_crash")
TASKS = ("elect", "sift")
SIZES = (8, 17)
SEEDS = (0, 1, 2)

CASES = [
    f"{task}-{wrapper}-{adversary}-{n}-{seed}"
    for task in TASKS
    for wrapper in WRAPPERS
    for adversary in SCANNERS
    for n in SIZES
    for seed in SEEDS
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _adversary(wrapper: str, name: str, n: int, seed: int):
    inner = ADVERSARY_FACTORIES[name](seed=seed)
    if wrapper == "bare":
        return inner
    if wrapper == "random_crash":
        return RandomCrashAdversary(inner, rate=0.05, seed=seed)
    # Crashes during start-up, during the first participants' runs, and later.
    return CrashingAdversary(inner, [(n // 2, 0), (3 * n, n - 1), (9 * n, n // 2)])


def _digests(case: str) -> dict[str, str]:
    task, wrapper, name, n, seed = case.split("-")
    n, seed = int(n), int(seed)
    adversary = _adversary(wrapper, name, n, seed)
    sink = ListSink()
    if task == "elect":
        run = run_leader_election(
            n, algorithm="poison_pill", adversary=adversary, seed=seed, sink=sink
        )
    else:
        run = run_sifting_phase(
            n, kind="heterogeneous", adversary=adversary, seed=seed, sink=sink
        )
    result = run.result
    outcome = {
        "summary": result.metrics.summary(),
        "decisions": [
            [pid, repr(d.result), d.start_time, d.decide_time]
            for pid, d in sorted(result.decisions.items())
        ],
    }
    return {
        "events": _sha(json.dumps(
            [[e.time, e.etype, e.pid, e.fields] for e in sink.events],
            sort_keys=True, separators=(",", ":"), default=json_safe,
        )),
        "outcome": _sha(json.dumps(outcome, sort_keys=True)),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_scan_golden(case, golden):
    digests = _digests(case)
    assert digests["events"] == golden[case]["events"], "event stream changed"
    assert digests["outcome"] == golden[case]["outcome"], "outcome changed"


if __name__ == "__main__":
    table = {case: _digests(case) for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN}")
