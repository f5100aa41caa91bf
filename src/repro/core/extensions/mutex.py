"""Mutual exclusion from leader-election epochs — future work of §6.

Section 6 names mutual exclusion as a target for the paper's tools.
This extension builds a lock from a chain of leader-election instances,
one per *epoch*:

* a shared sticky array ``Released[e]`` marks epochs whose holder has
  released;
* to acquire, a client computes the first epoch not released in its
  view and competes in that epoch's leader election (instances are
  disjoint namespaces, exactly like renaming's per-name elections);
* the epoch winner holds the lock; losers wait for ``Released[e]`` to
  turn true in their view and retry at a later epoch.

Safety is inherited from leader election: each epoch has at most one
winner (Lemma A.2), and a client only targets epoch ``e`` after seeing
every earlier epoch released, so two concurrently-unreleased winners
would need two winners of one epoch.  Stale clients that target an
already-decided epoch simply lose at its doorway and retry.

Liveness holds under fair schedules with probability 1 as long as
holders release; a crashed holder orphans the lock (the usual limitation
of a test-and-set lock without failure detection, which the paper's
model cannot provide).

Clients log ``enter``/``exit`` markers through local register writes,
so a run's ``reg.put`` events yield global-time critical-section
intervals that :func:`critical_section_intervals` extracts and
:func:`assert_mutual_exclusion` checks for pairwise disjointness.  The
extractor reads only event fields, so it runs equally on the live stream
of a :class:`~repro.obs.events.ListSink` and on a recorded ``.jsonl``
file (:func:`repro.obs.jsonl.iter_events`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ...obs.events import Event, EventType
from ...sim.communicate import Collect, Propagate, Request
from ...sim.process import AlgorithmFactory, ProcessAPI
from ...sim.registers import POLICY_OR
from ..leader_elect import leader_elect
from ..protocol import Outcome


def _released_var(namespace: str) -> str:
    return f"{namespace}.Released"


def lock_once(
    api: ProcessAPI,
    namespace: str = "mx",
    critical_steps: int = 1,
) -> Iterator[Request]:
    """Acquire the lock, spend ``critical_steps`` communicate calls in the
    critical section, release, and return the epoch that was held."""
    var = _released_var(namespace)
    while True:
        views = yield Collect(var)
        for view in views:
            for epoch, released in view.items():
                if released:
                    api.put(var, epoch, True, policy=POLICY_OR)
        epoch = 0
        while api.get(var, epoch, False):
            epoch += 1
        outcome = yield from leader_elect(api, namespace=f"{namespace}.le{epoch}")
        if outcome is Outcome.WIN:
            # ---- critical section ----
            api.put(f"{namespace}.cs", api.pid, ("enter", epoch))
            for _ in range(critical_steps):
                # Placeholder critical-section work: a quorum round-trip,
                # so the section has nonzero extent in global time.
                yield Propagate(f"{namespace}.cs_work", ())
            api.put(f"{namespace}.cs", api.pid, ("exit", epoch))
            # ---- release ----
            api.put(var, epoch, True, policy=POLICY_OR)
            yield Propagate(var, (epoch,))
            return epoch
        # Lost this epoch: wait until it is released in our view, then
        # retry (the next Collect refreshes the view).


def make_lock_once(
    namespace: str = "mx", critical_steps: int = 1
) -> AlgorithmFactory:
    """Factory adapter for :class:`~repro.sim.runtime.Simulation`."""

    def factory(api: ProcessAPI):
        return lock_once(api, namespace=namespace, critical_steps=critical_steps)

    return factory


def critical_section_intervals(
    events: Iterable[Event], namespace: str = "mx"
) -> list[tuple[int, int, int, int]]:
    """Extract ``(pid, epoch, enter_clock, exit_clock)`` from a run's events.

    ``events`` is the run's event stream in emission order, live or read
    back from a ``.jsonl`` file; an empty stream raises ``ValueError``.
    Holders that crashed inside the section appear with ``exit_clock``
    equal to ``2**63`` (still holding at the end).
    """
    var = f"{namespace}.cs"
    open_sections: dict[int, tuple[int, int]] = {}
    intervals: list[tuple[int, int, int, int]] = []
    empty = True
    for event in events:
        empty = False
        if event.etype != EventType.REG_PUT:
            continue
        fields = event.fields
        if fields["var"] != var:
            continue
        marker, epoch = fields["value"]
        if marker == "enter":
            open_sections[event.pid] = (epoch, event.time)
        else:
            epoch_opened, entered = open_sections.pop(event.pid)
            intervals.append((event.pid, epoch_opened, entered, event.time))
    if empty:
        raise ValueError(
            "critical-section extraction needs the run's event stream; "
            "attach a ListSink as the simulation's sink="
        )
    for pid, (epoch, entered) in open_sections.items():
        intervals.append((pid, epoch, entered, 2**63))
    return intervals


def assert_mutual_exclusion(
    events: Iterable[Event], namespace: str = "mx"
) -> list[tuple[int, int, int, int]]:
    """Raise if any two critical sections overlap in global time."""
    intervals = sorted(critical_section_intervals(events, namespace), key=lambda i: i[2])
    for (pid_a, epoch_a, enter_a, exit_a), (pid_b, epoch_b, enter_b, exit_b) in zip(
        intervals, intervals[1:]
    ):
        if enter_b < exit_a:
            raise AssertionError(
                f"mutual exclusion violated: processor {pid_a} held epoch "
                f"{epoch_a} over [{enter_a}, {exit_a}] while processor "
                f"{pid_b} entered epoch {epoch_b} at {enter_b}"
            )
    return intervals
