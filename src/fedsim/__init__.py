"""Deterministic federated-learning simulator.

Implements federated averaging with non-uniform Bernoulli client
participation and inverse-probability-weighted aggregation. Active agents
run either an anchored variance-reduced local solver or plain local SGD;
a Monte Carlo harness reproduces convergence, variance and CEP comparisons
and numerically evaluates the convergence bound from recorded traces.
"""

from .config import (
    ConfigError,
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
from .local_update import (
    DivergenceError,
    LocalTrace,
    SvrgParams,
    sgd_local_update,
    svrg_local_update,
    variance_reduced_grad,
)
from .losses import (
    Dataset,
    LossKind,
    SingularSystemError,
    agent_full_grad,
    component_grad,
    component_loss,
    generate_regression_dataset,
    global_cost,
    global_grad,
    least_squares_oracle,
    smoothness_constant,
)
from .metrics import (
    BoundCheck,
    McSummary,
    bound_initial_term,
    cep_radius,
    cep_radius_2d,
    cost_error_trace,
    mc_variance_trace,
    mean_sq_grad_norm,
    summarize_runs,
    theorem_bound_check,
)

__version__ = "0.1.0"
