"""E13 — extension (Section 6 future work): mutual exclusion throughput.

The epoch-chained lock serves k one-shot clients in k critical sections.
Series: total messages and the slowest client's communicate calls as k
grows at fixed n.  Each handoff costs one leader election (O(log* k')
among the k' remaining waiters) *plus* every waiter's polling of the
released array, so the per-epoch message cost grows linearly in the
number of waiters and the total is ~k^2 * n — the known cost profile of
a polling test-and-set lock, and exactly why the mutual-exclusion
literature the paper cites ([HW09, HW10]) measures RMRs instead.
"""

from __future__ import annotations

from _common import grid, mean_of, once, run_sweep

from repro.core.extensions import assert_mutual_exclusion, make_lock_once
from repro.harness import Table, make_adversary
from repro.obs.events import ListSink
from repro.sim import Simulation

N = 24
KS = grid([1, 2, 4, 8, 16], [1, 2, 4, 8, 16, 24])


def _run(k, seed):
    sink = ListSink()
    sim = Simulation(
        N,
        {pid: make_lock_once() for pid in range(k)},
        make_adversary("random", seed),
        seed=seed,
        sink=sink,
    )
    result = sim.run()
    intervals = assert_mutual_exclusion(sink.events)
    assert len(intervals) == k
    return result


def build_e13():
    return run_sweep(KS, _run, seed_base=130)


def report_e13(cells):
    calls = mean_of(cells, lambda r: r.metrics.max_comm_calls)
    messages = mean_of(cells, lambda r: r.metrics.messages_total)
    table = Table(
        f"E13: epoch-chained mutex at n = {N} (k one-shot clients)",
        ["k", "max comm calls", "messages", "messages/epoch"],
    )
    for k in KS:
        table.add_row(k, calls[k], messages[k], messages[k] / k)
    table.add_note(
        "every run passed the global-time mutual-exclusion check; per-epoch "
        "cost grows with the waiter count (polling lock: total ~ k^2 * n)"
    )
    table.show()
    return calls, messages


def test_e13_mutex(benchmark):
    cells = once(benchmark, build_e13)
    calls, messages = report_e13(cells)
    # Polling-lock cost profile: total messages ~ k^2 (at fixed n).
    from repro.analysis.fitting import fit_power

    ks = [k for k in KS if k >= 2]
    fit = fit_power(ks, [messages[k] for k in ks])
    assert 1.3 <= fit.slope <= 2.8
    # The slowest client's calls grow with k (it waits out every epoch).
    assert calls[KS[-1]] > calls[KS[0]]
