"""Conditional noise-contrastive estimation of unnormalised models, with
NCE, score-matching and MLE baselines and a deterministic experiment
harness."""

import os

# One BLAS thread unless the user chose a count: the package's products
# have at most a few dozen columns, where a second OpenBLAS thread buys no
# wall time and costs CPU.  numpy reads the count when it is first
# imported, so this default holds only when cnce is imported before numpy;
# worker processes inherit it through the environment.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
