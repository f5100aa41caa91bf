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

from .adversary import (
    ADVERSARY_FACTORIES,
    Adversary,
    BubbleAdversary,
    CoinAwareAdversary,
    CrashingAdversary,
    EagerAdversary,
    ObliviousAdversary,
    QuorumSplitAdversary,
    RandomAdversary,
    RandomCrashAdversary,
    RoundRobinAdversary,
    SequentialAdversary,
)
from .analysis import log_star
from .core import (
    HetStatus,
    Outcome,
    PillState,
    get_name,
    heterogeneous_poison_pill,
    leader_elect,
    make_get_name,
    make_heterogeneous_poison_pill,
    make_leader_elect,
    make_poison_pill,
    poison_pill,
)
from .core.baselines import (
    linear_renaming,
    make_linear_renaming,
    make_naive_sifter,
    make_tournament,
    naive_sifter,
    tournament,
)
from .core.extensions import do_all, make_do_all, make_replicated_do_all
from .harness import (
    LeaderElectionRun,
    RenamingRun,
    SiftingRun,
    SpecificationViolation,
    choose_participants,
    run_leader_election,
    run_renaming,
    run_sifting_phase,
)
from .memory import AtomicRegister, make_register_tournament, register_tournament
from .sim import Collect, Propagate, ProcessAPI, Simulation, SimulationResult

__version__ = "1.0.0"

__all__ = [
    "ADVERSARY_FACTORIES",
    "Adversary",
    "AtomicRegister",
    "BubbleAdversary",
    "CoinAwareAdversary",
    "Collect",
    "do_all",
    "make_do_all",
    "make_register_tournament",
    "make_replicated_do_all",
    "register_tournament",
    "CrashingAdversary",
    "EagerAdversary",
    "HetStatus",
    "LeaderElectionRun",
    "ObliviousAdversary",
    "Outcome",
    "PillState",
    "Propagate",
    "ProcessAPI",
    "QuorumSplitAdversary",
    "RandomAdversary",
    "RandomCrashAdversary",
    "RenamingRun",
    "RoundRobinAdversary",
    "SequentialAdversary",
    "SiftingRun",
    "Simulation",
    "SimulationResult",
    "SpecificationViolation",
    "choose_participants",
    "get_name",
    "heterogeneous_poison_pill",
    "leader_elect",
    "linear_renaming",
    "log_star",
    "make_get_name",
    "make_heterogeneous_poison_pill",
    "make_leader_elect",
    "make_linear_renaming",
    "make_naive_sifter",
    "make_poison_pill",
    "make_tournament",
    "naive_sifter",
    "poison_pill",
    "run_leader_election",
    "run_renaming",
    "run_sifting_phase",
    "tournament",
    "__version__",
]
