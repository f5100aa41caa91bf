"""Schedule exploration and invariant checking for the paper's claims.

``repro.check`` turns the paper's adversarial guarantees into
machine-checked properties:

* :mod:`repro.check.invariants` — the registry of named invariants
  (unique winner, at-least-one-survivor, linearizability, name
  uniqueness, ...) mapped to the claims and lemmas they reproduce, plus
  the protocol registry ``repro check`` can target.  Each invariant is
  defined once, as a fold; :func:`~repro.check.invariants.evaluate_run`
  runs the folds over a finished run.
* :mod:`repro.check.streaming` — the streaming driver of the same
  folds: a :class:`~repro.check.streaming.StreamingChecker` event sink
  that runs every fold with an ``observe`` part *during* a run and fails
  fast with the offending event id.
* :mod:`repro.check.explore` — the explorer: randomized, crash-storm,
  and bounded-systematic schedule search over a trial budget, fanned
  out across worker processes.
* :mod:`repro.check.shrink` — schedule minimization for violations and
  the replayable artifact / repro-script machinery.

Entry point: :func:`repro.check.explore.explore`, surfaced on the CLI
as ``repro check``.  The package does not re-export it: an export named
like its own submodule is bound at package import (see
:mod:`repro._lazy`), which would load the explorer and every adversary
for anyone importing :mod:`repro.check.invariants`, the service process
included.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".explore": (
        "CheckReport",
        "DEFAULT_ADVERSARIES",
        "MODES",
        "TrialOutcome",
        "TrialSpec",
        "ViolationRecord",
        "plan_trials",
        "run_trial",
    ),
    ".invariants": (
        "CORE_PROTOCOLS",
        "INVARIANTS",
        "PROTOCOLS",
        "CheckContext",
        "Invariant",
        "ProtocolSpec",
        "TrialStats",
        "invariants_for",
    ),
    ".streaming": ("StreamingChecker", "StreamingViolation"),
    ".shrink": (
        "ArtifactReplay",
        "ShrinkResult",
        "replay_artifact",
        "shrink_schedule",
        "shrink_violation",
    ),
})
