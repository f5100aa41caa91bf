"""A minimal witness that Figure 2's list augmentation changes outcomes.

Collect replies ship whole register views, so under most schedules every
committed processor is *directly* visible to every collector (line 27 of
Figure 2) and the list union adds nothing.  The lists matter exactly when
knowledge of a commit travels only inside a status payload:

* q commits and its commit PROPAGATE reaches only the witness j before
  q stalls (one ack is below the quorum, so q blocks);
* j completes its phase talking only to responders 3 and 4 — its own
  view contains q's commit, so j's announced list is {q, j};
* the victim p completes its phase also talking only to 3 and 4: its
  collected views contain j's low-priority status (forwarded by the
  responders) but nothing of q, because q's commit never reached them
  and j's own *status cell* is all that travels.

Now p, low-priority, sees j's status with list {q, j}.  With the
closure rule p learns q, finds no view showing q low, and must DIE
(Figure 2 line 28).  With the ablated rule p only checks directly
observed processors and SURVIVES.  Same seeds, same coins, same
messages — only the death rule differs.
"""

from __future__ import annotations

import pytest

from repro.adversary import EagerAdversary
from repro.core import Outcome, make_heterogeneous_poison_pill
from repro.sim import Simulation, Step
from repro.sim.messages import MessageKind

N = 5          # quorum is 3: a communicate call needs 2 remote acks
Q, J, P = 0, 1, 2   # staller, witness, victim
RESPONDERS = (3, 4)


def _deliver(sim, sender, recipient, kind=None):
    pool = sim.in_flight
    for index in range(len(pool)):
        if pool.endpoints_at(index) == (sender, recipient):
            action = pool.action_at(index)
            if kind is None or pool.kind_of(action.desc) is kind:
                sim.execute(action)
                return
    raise AssertionError(f"no in-flight message {sender}->{recipient} ({kind})")


def _serve_via_responders(sim, pid):
    """Resolve pid's current communicate call using only responders 3, 4."""
    for responder in RESPONDERS:
        _deliver(sim, pid, responder)
    for responder in RESPONDERS:
        _deliver(sim, responder, pid)
    sim.execute(Step(pid))


def _run_witness_schedule(seed, use_lists):
    factory = make_heterogeneous_poison_pill(use_lists=use_lists)
    sim = Simulation(
        N,
        {Q: factory, J: factory, P: factory},
        EagerAdversary(),
        seed=seed,
    )
    # q commits; its commit reaches only j; q stalls (1 ack < quorum).
    sim.execute(Step(Q))
    _deliver(sim, Q, J, MessageKind.PROPAGATE)
    # j runs its whole phase against the responders only.
    sim.execute(Step(J))                   # commit + propagate
    _serve_via_responders(sim, J)          # resolves propagate, issues collect
    _serve_via_responders(sim, J)          # resolves collect, flips, propagates
    _serve_via_responders(sim, J)          # resolves propagate, issues collect
    _serve_via_responders(sim, J)          # resolves collect, j decides
    # p runs its whole phase against the responders only.
    sim.execute(Step(P))
    for _ in range(4):
        _serve_via_responders(sim, P)
    # Preconditions for the witness: both j and p flipped low.
    j_coin = sim.processes[J].coins.last_value("hpp.coin")
    p_coin = sim.processes[P].coins.last_value("hpp.coin")
    if j_coin != 0 or p_coin != 0:
        return None
    assert sim.processes[P].decided
    # Let the stalled q finish so the execution is complete and checkable.
    result = sim.run()
    return result.outcomes


def _find_witness_seeds():
    seeds = []
    for seed in range(200):
        outcomes = _run_witness_schedule(seed, use_lists=True)
        if outcomes is not None:
            seeds.append(seed)
        if len(seeds) >= 3:
            break
    return seeds


WITNESS_SEEDS = _find_witness_seeds()


def test_witness_schedule_realizable():
    """Both coins land low for a decent fraction of seeds (~1/4)."""
    assert len(WITNESS_SEEDS) >= 3


@pytest.mark.parametrize("seed", WITNESS_SEEDS)
def test_lists_kill_the_victim(seed):
    with_lists = _run_witness_schedule(seed, use_lists=True)
    without_lists = _run_witness_schedule(seed, use_lists=False)
    assert with_lists is not None and without_lists is not None
    # The closure rule learns about the hidden staller q and kills p...
    assert with_lists[P] is Outcome.DIE
    # ...the ablated rule never hears of q and spares p.
    assert without_lists[P] is Outcome.SURVIVE
    # Everything else is identical between the two executions.
    assert with_lists[J] == without_lists[J]
    assert with_lists[Q] == without_lists[Q]


@pytest.mark.parametrize("seed", WITNESS_SEEDS)
def test_witness_keeps_at_least_one_survivor(seed):
    """Even while the closure rule kills p, Claim 3.1 still holds."""
    outcomes = _run_witness_schedule(seed, use_lists=True)
    assert any(outcome is Outcome.SURVIVE for outcome in outcomes.values())
