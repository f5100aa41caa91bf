"""repro — a reproduction of "How to Elect a Leader Faster than a Tournament".

Alistarh, Gelashvili, Vladu (PODC 2015, arXiv:1411.1001): randomized
leader election in expected ``O(log* n)`` time and ``O(n^2)`` messages in
the asynchronous message-passing model against a strong adaptive
adversary, plus message-optimal strong renaming in ``O(log^2 n)`` time.

The package is organized in four layers:

* :mod:`repro.sim` — the asynchronous message-passing model itself: a
  deterministic discrete-event simulator where the adversary schedules
  every message delivery and computation step;
* :mod:`repro.adversary` — scheduling strategies, from fair random to the
  paper's sequential, coin-examining, and lower-bound "bubble" attacks;
* :mod:`repro.core` — the algorithms: PoisonPill, Heterogeneous
  PoisonPill, the full leader election, renaming, and baselines
  (tournament tree, naive sifting, linear renaming);
* :mod:`repro.analysis` / :mod:`repro.harness` — theory oracle,
  statistics, and the experiment harness behind the benchmark suite;
* :mod:`repro.check` — the invariant registry every checked run is
  judged by, plus schedule exploration and shrinking.

Quickstart::

    from repro import run_leader_election

    run = run_leader_election(n=32, adversary="random", seed=1)
    print(run.winner, run.max_comm_calls, run.messages_total)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adversary": (
        "ADVERSARY_FACTORIES",
        "Adversary",
        "BubbleAdversary",
        "CoinAwareAdversary",
        "CrashingAdversary",
        "EagerAdversary",
        "ObliviousAdversary",
        "QuorumSplitAdversary",
        "RandomAdversary",
        "RandomCrashAdversary",
        "RoundRobinAdversary",
        "SequentialAdversary",
    ),
    ".analysis": ("log_star",),
    ".core": (
        "HetStatus",
        "Outcome",
        "PillState",
        "get_name",
        "heterogeneous_poison_pill",
        "leader_elect",
        "make_get_name",
        "make_heterogeneous_poison_pill",
        "make_leader_elect",
        "make_poison_pill",
        "poison_pill",
    ),
    ".core.baselines": (
        "linear_renaming",
        "make_linear_renaming",
        "make_naive_sifter",
        "make_tournament",
        "naive_sifter",
        "tournament",
    ),
    ".core.extensions": ("do_all", "make_do_all", "make_replicated_do_all"),
    ".errors": ("ReproError",),
    ".harness.runners": (
        "LeaderElectionRun",
        "RenamingRun",
        "SiftingRun",
        "SpecificationViolation",
        "run_leader_election",
        "run_renaming",
        "run_sifting_phase",
    ),
    ".harness.workloads": ("choose_participants",),
    ".memory": ("AtomicRegister", "make_register_tournament", "register_tournament"),
    ".sim": ("Collect", "Propagate", "ProcessAPI", "Simulation", "SimulationResult"),
})

__all__.append("__version__")
