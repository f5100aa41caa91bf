"""Experiment harness: workloads, runners, sweeps, benchmarking, and tables.

The names below are re-exported lazily: ``import repro.harness.runners``
loads the runners, not the bench, the soak harness or the parallel pool.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bench": (
        "EXPERIMENTS",
        "BenchCell",
        "BenchComparison",
        "BenchResult",
        "compare_results",
        "load_result",
        "run_experiment",
        "verify_parallel_matches_serial",
    ),
    ".parallel": ("parallel_repeat", "parallel_sweep"),
    ".runners": (
        "LeaderElectionRun",
        "RenamingRun",
        "SiftingRun",
        "SpecificationViolation",
        "build_task_simulation",
        "make_adversary",
        "run_leader_election",
        "run_renaming",
        "run_sifting_phase",
    ),
    ".soak": (
        "IncidentReplay",
        "SoakError",
        "SoakReport",
        "SoakViolation",
        "replay_incident",
        "run_soak",
    ),
    ".sweep": ("SweepCell", "cell_table", "merged_metrics", "repeat", "sweep"),
    ".tables": ("Table", "profile_table", "render_series"),
    ".workloads": (
        "PARTICIPATION_PATTERNS",
        "choose_participants",
        "crash_schedule_eager",
        "crash_schedule_random",
    ),
})
