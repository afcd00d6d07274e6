"""Conditional noise-contrastive estimation of unnormalised models, with
NCE, score-matching and MLE baselines and a deterministic experiment
harness."""

from .errors import (
    CnceError,
    DomainError,
    ParameterError,
    SingularityError,
    UnsupportedModelError,
)
from .experiments import (
    ErrorRecord,
    ExperimentConfig,
    QuantileSummary,
    estimation_error,
    limit_check,
    load_records,
    persist,
    run_grid,
    run_single,
    summarize,
)
from .kernels import (
    BernoulliFlipKernel,
    GaussianPerturbKernel,
    MarginalKernel,
    fit_marginal,
    log_density_marginal,
    sample_conditional,
    sample_marginal,
)
from .losses import TWO_LOG2, cnce_loss, mle_fit
from .models import (
    BernoulliModel,
    GaussianPrecisionModel,
    IcaLaplaceModel,
    LogNormalExtModel,
    RingModel,
)
from .optimize import EpsilonSchedule, EstimationRun, OptimizerConfig, adapt_epsilon, minimize
from .seeding import stable_hash

__version__ = "0.1.0"
