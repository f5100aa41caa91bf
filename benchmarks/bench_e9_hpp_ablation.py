"""E9 — design ablation: what the list augmentation of Figure 2 buys.

Heterogeneous PoisonPill's second idea is propagating each processor's
observed-participants list alongside its priority and closing the death
rule over the union of lists (Claim 3.3's closure).  The ablated variant
biases by view size but drops the lists from the death rule.  Under
view-fragmenting schedules the ablated rule learns about fewer
participants and so spares more of them; with full lists the death rule
is strictly more aggressive (its L set is a superset), at equal safety
(at least one survivor — tested in the unit suite).

Series: survivors with/without lists under fragmented and sequential
schedules.
"""

from __future__ import annotations

from _common import grid, mean_of, once, run_sweep

from repro.core import make_heterogeneous_poison_pill
from repro.harness import Table, make_adversary, run_sifting_phase
from repro.sim.runtime import Simulation

NS = grid([16, 32, 64], [16, 32, 64, 128, 256])
REPEATS_E9 = 6


def build_e9():
    def cell(use_lists, adversary, base):
        factory = make_heterogeneous_poison_pill(use_lists=use_lists)

        def run(n, seed):
            # The catalogue row keeps the lists; the ablated factory runs
            # in a simulation built here and handed to the runner.
            sim = Simulation(
                n, dict.fromkeys(range(n), factory), make_adversary(adversary, seed),
                seed=seed,
            )
            return run_sifting_phase(
                n=n, kind="heterogeneous", adversary=adversary, seed=seed,
                simulation=sim,
            )

        return run_sweep(NS, run, repeats=REPEATS_E9, seed_base=base)

    # Both variants run under identical seeds: the ablation changes only
    # the death rule (the propagated messages and coin flips are the
    # same), so executions are pairwise identical up to the final
    # SURVIVE/DIE decisions and the comparison is exactly paired.
    return {
        (True, "quorum_split"): cell(True, "quorum_split", 90),
        (False, "quorum_split"): cell(False, "quorum_split", 90),
        (True, "sequential"): cell(True, "sequential", 92),
        (False, "sequential"): cell(False, "sequential", 92),
    }


def report_e9(cells):
    survivors = {
        key: mean_of(cell, lambda run: run.survivors) for key, cell in cells.items()
    }
    table = Table(
        "E9: Heterogeneous PoisonPill list-augmentation ablation (survivors)",
        [
            "n",
            "lists, fragmented",
            "no lists, fragmented",
            "lists, sequential",
            "no lists, sequential",
        ],
    )
    for n in NS:
        table.add_row(
            n,
            survivors[(True, "quorum_split")][n],
            survivors[(False, "quorum_split")][n],
            survivors[(True, "sequential")][n],
            survivors[(False, "sequential")][n],
        )
    table.add_note(
        "collect replies ship whole views, so generic schedules rarely "
        "separate the rules; tests/core/test_hpp_lists_matter.py constructs "
        "the minimal schedule where the closure rule (Claim 3.3) changes "
        "the outcome"
    )
    table.show()
    return survivors


def test_e9_hpp_ablation(benchmark):
    cells = once(benchmark, build_e9)
    survivors = report_e9(cells)
    # Paired executions: the full death rule's L set is a superset of the
    # ablated one's, so it kills pointwise at least as many processors.
    for adversary in ("quorum_split", "sequential"):
        for n in NS:
            assert (
                survivors[(True, adversary)][n]
                <= survivors[(False, adversary)][n] + 1e-9
            )
