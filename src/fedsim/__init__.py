"""Deterministic federated-learning simulator.

Implements federated averaging with non-uniform Bernoulli client
participation and inverse-probability-weighted aggregation. Active agents
run either an anchored variance-reduced local solver or plain local SGD;
a Monte Carlo harness reproduces convergence, variance and CEP comparisons
and numerically evaluates the convergence bound from recorded traces.
"""

from .config import (
    DataConfig,
    ExperimentConfig,
    load_builtin_config,
    load_config,
    parse_config,
)
from .experiment import ExperimentResult, build_dataset, run_experiment
from .federation import (
    Algorithm,
    ParticipationSchedule,
    RoundRecord,
    RunConfig,
    RunTrace,
    SgdParams,
    TrainingError,
    aggregate,
    run_training,
    sample_participation,
)
from .frozen import ConfigError
from .local_update import DivergenceError, SvrgParams
from .losses import (
    Dataset,
    LossKind,
    SingularSystemError,
    generate_regression_dataset,
    global_cost,
    global_grad,
    least_squares_oracle,
    smoothness_constant,
)
from .metrics import BoundCheck, McSummary, summarize_runs, theorem_bound_check

__version__ = "0.1.0"
