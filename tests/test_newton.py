"""The Newton route of ``minimize``: exact Hessians of the affine-feature
objectives against finite differences of their gradients, route selection
through wrappers, the stopping rules, and overflow-safe line search."""

import warnings

import numpy as np
import pytest

from cnce import (
    ExperimentConfig,
    OptimizerConfig,
    default_spec,
    fit_marginal,
    kernel_for_data,
    minimize,
    run_single,
    sample_conditional,
    sample_marginal,
)
from cnce.errors import OptimizationError
from cnce.losses import cnce_objective, nce_objective, score_matching_objective
from cnce.models import BERNOULLI, GAUSSIAN, LOGNORMAL, RING
from cnce.seeding import rng_from

from test_models import make

# every method with an affine-feature objective, per model that supports it
AFFINE_CASES = [(kind, method) for kind in (GAUSSIAN, RING, LOGNORMAL)
                for method in ("cnce", "nce", "score_matching")] + [(BERNOULLI, "cnce")]


def build_objective(kind, method, seed=0, n=80):
    """(objective, raw start) at a perturbed truth, so that the gradient and
    the log-space chain-rule term are both non-zero."""
    model = make(kind)
    rng = rng_from(seed, kind, method)
    theta = model.random_params(rng)
    x = model.sample(theta, n, rng_from(seed + 1, kind))
    raw = model.to_raw(theta) + 0.2 * rng.standard_normal(len(theta))
    if method == "cnce":
        kernel = kernel_for_data(model.kernel_kind, 0.3, x)
        return cnce_objective(model, x, sample_conditional(kernel, x, 4, seed + 2)), raw
    if method == "nce":
        marginal = fit_marginal(x)
        noise = sample_marginal(marginal, 2 * n, seed + 3)
        return nce_objective(model, x, noise, marginal), np.append(raw, 0.2)
    return score_matching_objective(model, x), raw


@pytest.mark.parametrize("kind,method", AFFINE_CASES)
def test_hessian_matches_gradient_finite_differences(kind, method):
    objective, raw = build_objective(kind, method)
    value, grad, hess = objective(raw)
    assert hess.shape == (len(raw), len(raw))
    h = 1e-5
    fd = np.empty_like(hess)
    for i in range(len(raw)):
        e = np.zeros(len(raw))
        e[i] = h
        fd[:, i] = (objective(raw + e)[1] - objective(raw - e)[1]) / (2 * h)
    assert np.allclose(hess, fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("kind,method", AFFINE_CASES)
def test_newton_route_survives_wrapping(kind, method):
    # the Hessian travels in the return value, so a wrapper that only
    # passes the result through leaves the route and the run unchanged
    objective, raw = build_objective(kind, method, seed=5, n=200)
    cfg = OptimizerConfig()
    direct = minimize(objective, raw, cfg, 9)
    wrapped = minimize(lambda r: objective(r), raw, cfg, 9)
    assert direct.converged and direct.iters < 50
    assert np.array_equal(direct.theta, wrapped.theta)
    assert direct.loss_trace == wrapped.loss_trace
    assert direct.grad_norm_trace == wrapped.grad_norm_trace
    assert (direct.iters, direct.converged, direct.warning) == (
        wrapped.iters, wrapped.converged, wrapped.warning)


def test_newton_honours_max_iters_grad_tol_and_restarts():
    objective, raw = build_objective(GAUSSIAN, "cnce", seed=7, n=200)
    capped = minimize(objective, raw, OptimizerConfig(max_iters=2), 0)
    assert capped.iters == len(capped.loss_trace) == len(capped.grad_norm_trace) == 2
    assert not capped.converged

    full = minimize(objective, raw, OptimizerConfig(), 0)
    assert full.converged
    assert full.iters == len(full.loss_trace)
    assert full.grad_norm_trace[-1] <= 1e-7 < full.grad_norm_trace[-2]
    assert np.all(np.diff(full.loss_trace) <= 0)

    cfg = OptimizerConfig(restarts=3)
    best = minimize(objective, raw, cfg, 4)
    again = minimize(objective, raw, cfg, 4)
    assert best.loss_trace[-1] <= full.loss_trace[-1] + 1e-12
    assert np.array_equal(best.theta, again.theta)


def test_newton_line_search_collapse_is_reported_without_warnings():
    # f(z) = exp(z) - 2z from z = -40: the curvature exp(-40) makes the
    # Newton step ~5e17, and every trial the line search can reach
    # overflows exp
    def objective(z):
        ez = np.exp(z)
        return float(ez[0] - 2.0 * z[0]), ez - 2.0, np.diag(ez)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = minimize(objective, np.array([-40.0]), OptimizerConfig(), 0)
    assert not run.converged
    assert run.warning == "newton line search collapsed"
    assert run.iters == len(run.loss_trace) == 1
    assert np.array_equal(run.theta, [-40.0])


def test_newton_nonfinite_start_raises():
    def objective(z):
        return 0.5 * float(z @ z), z, np.full((1, 1), np.nan)

    with pytest.raises(OptimizationError) as err:
        minimize(objective, np.zeros(1), OptimizerConfig(), 0)
    assert err.value.run is not None and err.value.run.iters == 0


def test_lognormal_nce_overflowing_trials_leak_no_warnings():
    # at this seed the first Newton trial overflows exp in from_raw
    cfg = ExperimentConfig(model=default_spec(LOGNORMAL), methods=("nce",),
                           n_grid=(4000,), kappa_grid=(10,), repeats=1,
                           master_seed=124981826)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record, _ = run_single(cfg, "nce", 4000, 10, 0)
    assert record.converged
    assert np.isfinite(record.error)
