"""Analysis layer: theory oracle, statistics, linearizability, model fitting.

The correctness invariants live in :mod:`repro.check.invariants`.
"""

from .linearizability import (
    READ,
    WRITE,
    RegisterOp,
    assert_register_linearizable,
    check_register_linearizable,
)
from .fitting import (
    Fit,
    best_fit,
    fit_linear,
    fit_log,
    fit_log_squared,
    fit_logstar,
    fit_model,
    fit_power,
)
from .stats import Summary, geometric_mean, quantile, summarize
from .theory import (
    chernoff_upper_tail,
    expected_rounds,
    hpp_high_survivors,
    hpp_low_survivors,
    hpp_survivors,
    log_star,
    message_lower_bound,
    poison_pill_survivors,
    renaming_time_bound,
    round_recursion,
    tournament_levels,
)

__all__ = [
    "Fit",
    "READ",
    "RegisterOp",
    "Summary",
    "WRITE",
    "assert_register_linearizable",
    "check_register_linearizable",
    "best_fit",
    "chernoff_upper_tail",
    "expected_rounds",
    "fit_linear",
    "fit_log",
    "fit_log_squared",
    "fit_logstar",
    "fit_model",
    "fit_power",
    "geometric_mean",
    "hpp_high_survivors",
    "hpp_low_survivors",
    "hpp_survivors",
    "log_star",
    "message_lower_bound",
    "poison_pill_survivors",
    "quantile",
    "renaming_time_bound",
    "round_recursion",
    "summarize",
    "tournament_levels",
]
