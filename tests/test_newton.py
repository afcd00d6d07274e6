"""The Newton route of ``minimize``: exact Hessians of the affine-feature
objectives against finite differences of their gradients, route selection
through wrappers, the stopping rules, overflow-safe line search, and when
the Hessian callable runs."""

import warnings

import numpy as np
import pytest

from cnce import (
    ExperimentConfig,
    OptimizerConfig,
    fit_marginal,
    log_density_marginal,
    minimize,
    run_single,
    sample_conditional,
    sample_marginal,
)
from cnce.losses import (cnce_objective, nce_log_normaliser, nce_objective,
                         score_matching_objective)
from cnce.models import BERNOULLI, GAUSSIAN, LOGNORMAL, RING
from cnce.seeding import rng_from, stable_hash

from test_models import make

# every method with an affine-feature objective, per model that supports it
AFFINE_CASES = [(kind, method) for kind in (GAUSSIAN, RING, LOGNORMAL)
                for method in ("cnce", "nce", "score_matching")] + [(BERNOULLI, "cnce")]


def build_objective(kind, method, seed=0, n=80):
    """(objective, start) at a perturbed truth, so that the gradient is
    non-zero."""
    model = make(kind)
    rng = rng_from(seed, kind, method)
    theta = model.random_params(rng)
    x = model.sample(theta, n, rng_from(seed + 1, kind))
    start = theta + 0.2 * rng.standard_normal(len(theta))
    if method == "cnce":
        kernel = model.kernel.for_data(0.3, x)
        return cnce_objective(model, x, sample_conditional(kernel, x, 4, seed + 2)), start
    if method == "nce":
        marginal = fit_marginal(x)
        noise = sample_marginal(marginal, 2 * n, seed + 3)
        log_q = log_density_marginal(marginal, np.concatenate([x, noise]))
        return nce_objective(model, x, noise, log_q), np.append(start, 0.2)
    return score_matching_objective(model, x), start


@pytest.mark.parametrize("kind,method", AFFINE_CASES)
def test_hessian_matches_gradient_finite_differences(kind, method):
    objective, raw = build_objective(kind, method)
    value, grad, hess = objective(raw)
    hess = hess()
    assert hess.shape == (len(raw), len(raw))
    h = 1e-5
    fd = np.empty_like(hess)
    for i in range(len(raw)):
        e = np.zeros(len(raw))
        e[i] = h
        fd[:, i] = (objective(raw + e)[1] - objective(raw - e)[1]) / (2 * h)
    assert np.allclose(hess, fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("kind,method", AFFINE_CASES)
def test_hessian_is_positive_semidefinite_around_the_start(kind, method):
    # log phi is affine in theta, so the contrastive losses
    # and score matching are convex there: no Newton step needs more than
    # the damping floor, however far the start is from the optimum
    objective, raw = build_objective(kind, method)
    rng = rng_from(11, kind, method)
    for _ in range(20):
        hess = objective(raw + rng.uniform(-2.0, 2.0, len(raw)))[2]()
        eig = np.linalg.eigvalsh(hess)
        assert eig[0] >= -1e-10 * eig[-1]


@pytest.mark.parametrize("kind", (GAUSSIAN, RING, LOGNORMAL))
def test_score_matching_newton_lands_on_the_quadratic_minimiser(kind):
    # the objective is the exact quadratic raw'A raw / 2 + b'raw + c, with
    # A positive definite, so the first Newton step solves it
    model = make(kind)
    rng = rng_from(17, kind)
    x = model.sample(model.random_params(rng), 300, rng_from(18, kind))
    a, b, _ = model.score_quadratic(x)
    raw0 = model.init_theta(rng)
    run = minimize(score_matching_objective(model, x), raw0, OptimizerConfig())
    assert (run.stop, run.converged) == ("grad_tol", True)
    assert run.iters <= 2
    assert np.allclose(run.theta, np.linalg.solve(a, -b), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind,method", AFFINE_CASES)
def test_newton_route_survives_wrapping(kind, method):
    # the Hessian travels in the return value, so a wrapper that only
    # passes the result through leaves the route and the run unchanged
    objective, raw = build_objective(kind, method, seed=5, n=200)
    cfg = OptimizerConfig()
    direct = minimize(objective, raw, cfg)
    wrapped = minimize(lambda r: objective(r), raw, cfg)
    assert direct.converged and direct.iters < 50
    assert np.array_equal(direct.theta, wrapped.theta)
    assert direct.loss_trace == wrapped.loss_trace
    assert direct.grad_norm_trace == wrapped.grad_norm_trace
    assert (direct.iters, direct.converged, direct.stop) == (
        wrapped.iters, wrapped.converged, wrapped.stop)


def test_newton_honours_max_iters_and_grad_tol():
    objective, raw = build_objective(GAUSSIAN, "cnce", seed=7, n=200)
    capped = minimize(objective, raw, OptimizerConfig(max_iters=2))
    assert capped.iters == len(capped.loss_trace) == len(capped.grad_norm_trace) == 2
    assert not capped.converged

    full = minimize(objective, raw, OptimizerConfig())
    assert full.converged
    assert full.iters == len(full.loss_trace)
    assert full.grad_norm_trace[-1] <= 1e-7 < full.grad_norm_trace[-2]
    assert np.all(np.diff(full.loss_trace) <= 0)


def test_newton_line_search_collapse_is_reported_without_warnings():
    # f(z) = exp(z) - 2z from z = -40: the curvature exp(-40) makes the
    # Newton step ~5e17, and every trial the line search can reach
    # overflows exp
    def objective(z):
        ez = np.exp(z)
        return float(ez[0] - 2.0 * z[0]), ez - 2.0, lambda: np.diag(ez)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = minimize(objective, np.array([-40.0]), OptimizerConfig())
    assert not run.converged
    assert run.stop == "step_collapse"
    assert run.iters == len(run.loss_trace) == 1
    assert np.array_equal(run.theta, [-40.0])


def test_newton_nonfinite_start_stops_there():
    def objective(z):
        return 0.5 * float(z @ z), z, lambda: np.full((1, 1), np.nan)

    run = minimize(objective, np.full(1, 2.0), OptimizerConfig())
    assert (run.stop, run.converged, run.iters) == ("nonfinite", False, 0)
    assert np.array_equal(run.theta, [2.0])


def test_newton_nonfinite_hessian_after_the_start_stops_at_that_point():
    # |z|^2 / 2 with twice its Hessian at the start, so the first step goes
    # half way, and a NaN Hessian everywhere else: that step is accepted and
    # recorded, and the run ends at its point when the next step needs H
    start = np.full(2, 2.0)
    visited = []

    def objective(z):
        visited.append(z)
        hess = 2.0 * np.eye(2) if np.array_equal(z, start) else np.full((2, 2), np.nan)
        return 0.5 * float(z @ z), z, lambda: hess

    run = minimize(objective, start, OptimizerConfig())
    assert (run.stop, run.converged, run.iters) == ("nonfinite", False, 2)
    assert len(visited) == 2 and np.array_equal(run.theta, visited[1])
    assert run.loss_trace == [4.0, 0.5 * float(visited[1] @ visited[1])]
    assert run.grad_norm_trace[1] == pytest.approx(1.0)


def test_newton_last_step_taken_where_the_loss_cannot_resolve_it():
    # mean_i (c_i + |x_i - z|^2 / 2): a quadratic with a constant offset of
    # ~1500, started 1.5e-7 from its minimiser.  The Newton step's decrease
    # (~3e-14) is below the rounding of the mean, so the Armijo test alone
    # decides on last-bit noise; the approximate Wolfe test takes the full
    # step (halving it stops just under grad_tol on this data)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4000, 3))
    c = 1000.0 * (1.0 + rng.random(4000))

    def objective(z):
        r = x - z
        return (float(np.mean(c + 0.5 * np.sum(r * r, axis=1))),
                -np.mean(r, axis=0), lambda: np.eye(3))

    z0 = x.mean(axis=0) + 1.5e-7
    f0, g0, _ = objective(z0)
    assert abs(objective(z0 - g0)[0] - f0) <= 16 * np.spacing(f0)
    run = minimize(objective, z0, OptimizerConfig())
    assert (run.stop, run.iters) == ("grad_tol", 2)
    assert run.grad_norm_trace[-1] < 1e-12


def test_lognormal_nce_overflowing_trials_leak_no_warnings():
    # this cell's NCE noise has points <= 0, whose rows are +inf; it must
    # converge without a RuntimeWarning
    cfg = ExperimentConfig(model=make(LOGNORMAL), methods=("nce",),
                           n_grid=(4000,), kappa_grid=(10,), repeats=1,
                           master_seed=124981826)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record, _ = run_single(cfg, "nce", 4000, 10, 0)
    assert record.converged
    assert np.isfinite(record.error)


def test_newton_builds_a_hessian_only_for_the_step_it_takes():
    # the NCE objective of a Gaussian cell (the benchmark's affine grid at
    # seed 1), fitted from the cell's random start theta0, where the line
    # search rejects trials.  Each objective call's Hessian callable is
    # counted: it runs once per Newton direction, at the start and at every
    # accepted point but the last, and never at a rejected trial or at the
    # point the run ends on
    model = make(GAUSSIAN)
    seed = stable_hash(395090079, GAUSSIAN, "nce", 4000, 10, 0)
    x = model.sample(model.random_params(rng_from(stable_hash(seed, "params"))),
                     4000, rng_from(stable_hash(seed, "data")))
    theta0 = model.init_theta(rng_from(stable_hash(seed, "init")))
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 40_000, stable_hash(seed, "nce_noise"))
    log_q_noise = log_density_marginal(marginal, noise)
    objective = nce_objective(model, x, noise, np.concatenate(
        [log_density_marginal(marginal, x), log_q_noise]))
    start = np.append(theta0, nce_log_normaliser(model, theta0, noise, log_q_noise))
    calls = []  # [value, Hessian runs] per objective call

    def counted(raw):
        value, grad, hess = objective(raw)
        entry = [value, 0]
        calls.append(entry)

        def counted_hess():
            entry[1] += 1
            return hess()

        return value, grad, counted_hess

    run = minimize(counted, start, OptimizerConfig())
    assert run.stop == "grad_tol"
    assert len(calls) > run.iters  # some trials were rejected
    built = [entry for entry in calls if entry[1]]
    assert [count for _, count in built] == [1] * (run.iters - 1)
    assert [value for value, _ in built] == run.loss_trace[:-1]
    assert calls[-1] == [run.loss_trace[-1], 0]


@pytest.mark.parametrize("method", ("cnce", "nce"))
def test_a_hessian_callable_refuses_to_run_after_a_later_call(method):
    # it reads the scratch arrays of its call, which the next call overwrites
    objective, raw = build_objective(GAUSSIAN, method)
    hess = objective(raw)[2]
    objective(raw + 0.1)
    with pytest.raises(RuntimeError, match="valid only until the next call"):
        hess()
