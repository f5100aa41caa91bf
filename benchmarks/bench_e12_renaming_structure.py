"""E12 — Section 4's iteration accounting: clean/dirty/cross totals.

The renaming message bound (Theorem 4.2) decomposes every loop iteration
into clean(j), dirty(j) or cross(j) and proves each family totals O(n)
in expectation (Lemmas A.10, A.12).  Using the execution analyzer we
classify every iteration of real runs and report the totals — they
should all stay within small multiples of n, with dirty and cross
iterations rare (each processor is limited to one of each per phase,
Claim A.11, which the analyzer asserts as it classifies).
"""

from __future__ import annotations

from _common import grid, once, run_sweep

from repro.analysis.renaming_analysis import RenamingAnalysis
from repro.analysis.stats import summarize
from repro.core import make_get_name
from repro.harness import Table, make_adversary
from repro.obs.events import ListSink
from repro.sim import Simulation

NS = grid([8, 16, 24], [8, 16, 32, 48])
ADVERSARY = "random"


def _structure(n, seed):
    sink = ListSink()
    sim = Simulation(
        n,
        {pid: make_get_name() for pid in range(n)},
        make_adversary(ADVERSARY, seed),
        seed=seed,
        sink=sink,
    )
    sim.run()
    analysis = RenamingAnalysis.from_events(n, sink.events)
    analysis.check_all()  # Lemma A.7 / A.9 / Claim A.11 on this execution
    clean = dirty = cross = 0
    for record in analysis.iterations:
        if not record.completed_pick:
            continue
        kind, _ = analysis.classify(record)
        if kind == "clean":
            clean += 1
        else:
            dirty += 1
        if analysis.is_cross(record) is not None:
            cross += 1
    return {"clean": clean, "dirty": dirty, "cross": cross, "total": clean + dirty}


def build_e12():
    return run_sweep(NS, _structure, seed_base=120)


def report_e12(cells):
    table = Table(
        "E12: renaming iteration structure (clean/dirty/cross totals)",
        ["n", "iterations", "clean", "dirty", "cross", "total/n"],
    )
    means = {}
    for cell in cells:
        n = cell.param
        means[n] = {
            key: summarize(run[key] for run in cell.runs).mean
            for key in ("clean", "dirty", "cross", "total")
        }
        table.add_row(
            n,
            means[n]["total"],
            means[n]["clean"],
            means[n]["dirty"],
            means[n]["cross"],
            means[n]["total"] / n,
        )
    table.add_note(
        "paper: E[sum clean], E[sum dirty], E[sum cross] are all O(n) "
        "(Lemmas A.10, A.12); every run also passed the Lemma A.7/A.9/"
        "Claim A.11 structural checks"
    )
    table.show()
    return means


def test_e12_renaming_structure(benchmark):
    cells = once(benchmark, build_e12)
    means = report_e12(cells)
    for n in NS:
        # Total iterations linear in n with a small constant.
        assert means[n]["total"] <= 4 * n
        # Clean iterations dominate; dirty/cross are rare.
        assert means[n]["dirty"] <= n
        assert means[n]["cross"] <= n
        assert means[n]["clean"] >= n  # everyone's winning pick at least
