"""Optimiser: convex recovery, monotone backtracking traces, determinism,
agreement with dense grid search, and the noise-scale heuristic."""

import numpy as np
import pytest

from cnce import (
    EpsilonSchedule,
    OptimizerConfig,
    ParameterError,
    TWO_LOG2,
    adapt_epsilon,
    build_model,
    cnce_loss,
    default_spec,
    minimize,
    sample_conditional,
    kernel_for_data,
)
from cnce.errors import OptimizationError
from cnce.losses import bernoulli_population_objective, cnce_objective
from cnce.models import BERNOULLI, GAUSSIAN, LOGNORMAL, RING, ModelSpec
from cnce.seeding import rng_from


def quadratic_bowl(a):
    def fn(z):
        d = z - a
        return 0.5 * float(d @ d), d

    return fn


def test_minimize_quadratic_bowl():
    for seed in range(3):
        a = rng_from(seed, "bowl").standard_normal(6) * 3
        run = minimize(quadratic_bowl(a), np.zeros(6), OptimizerConfig(), seed)
        assert np.allclose(run.theta, a, atol=1e-6)
        assert run.converged


def test_minimize_backtracking_rule_monotone():
    a = np.array([2.0, -1.0, 0.5])
    cfg = OptimizerConfig(step_rule="backtracking_gd", max_iters=300)
    run = minimize(quadratic_bowl(a), np.zeros(3), cfg, 0)
    assert np.allclose(run.theta, a, atol=1e-6)
    trace = np.array(run.loss_trace)
    assert np.all(np.diff(trace) <= 0)


def test_minimize_deterministic():
    a = np.array([1.0, 2.0])
    cfg = OptimizerConfig(restarts=3)
    r1 = minimize(quadratic_bowl(a), np.zeros(2), cfg, 99)
    r2 = minimize(quadratic_bowl(a), np.zeros(2), cfg, 99)
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.loss_trace == r2.loss_trace


def test_minimize_nonfinite_raises_with_trace():
    def bad(z):
        if z[0] < -0.5:
            return np.nan, np.array([np.nan])
        return float(z[0]), np.array([1.0])

    with pytest.raises(OptimizationError) as err:
        minimize(bad, np.array([0.0]), OptimizerConfig(max_iters=100), 0)
    assert err.value.run is not None
    assert len(err.value.run.loss_trace) >= 1


def test_minimize_records_traces_and_iters():
    run = minimize(quadratic_bowl(np.ones(2)), np.zeros(2), OptimizerConfig(), 0)
    assert run.iters == len(run.loss_trace) == len(run.grad_norm_trace)
    assert run.wall_ms >= 0.0


def test_gaussian_1d_cnce_matches_grid_search():
    model = build_model(ModelSpec(GAUSSIAN, 1))
    x = model.sample(np.array([1.0]), 10_000, rng_from(1))
    kernel = kernel_for_data("gaussian_perturb", 0.4, x)
    pairing = sample_conditional(kernel, x, 10, 2)
    objective = cnce_objective(model, x, pairing)
    run = minimize(objective, np.array([0.0]), OptimizerConfig(), 3)
    lam_hat = run.theta[0]
    grid = np.linspace(0.2, 3.0, 700)
    vals = [objective(np.array([g]))[0] for g in grid]
    lam_grid = grid[int(np.argmin(vals))]
    assert abs(lam_hat - lam_grid) < 0.1
    assert abs(lam_hat - 1.0) < 0.15


def test_bernoulli_population_minimize_from_random_starts():
    truth = np.array([0.3, 0.7])
    objective = bernoulli_population_objective(truth, 0.2)
    rng = rng_from(5)
    for _ in range(5):
        z0 = 0.5 * rng.standard_normal(2)
        run = minimize(objective, z0, OptimizerConfig(), 6)
        theta = np.exp(run.theta)
        theta /= theta.sum()
        assert np.linalg.norm(theta - truth) < 1e-6


def test_optimizer_config_validation():
    with pytest.raises(ParameterError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ParameterError):
        OptimizerConfig(grad_tol=0.0)
    with pytest.raises(ParameterError):
        OptimizerConfig(step_rule="newton")
    with pytest.raises(ParameterError):
        EpsilonSchedule(delta=2.0)


# ---------------------------------------------------------------------------
# noise-scale heuristic
# ---------------------------------------------------------------------------

class _FlatModel:
    """Constant log phi: the loss equals 2 log 2 at every scale."""

    def __init__(self):
        self.spec = ModelSpec(GAUSSIAN, 2)

    def from_raw(self, raw):
        return raw

    def log_phi(self, theta, U):
        return np.zeros(len(np.atleast_2d(U)))

    def grad_theta_weighted(self, theta, U, w):
        return np.zeros(self.spec.param_count)


def test_adapt_epsilon_flat_model_hits_cap():
    x = rng_from(7).standard_normal((200, 2))
    eps, capped = adapt_epsilon(_FlatModel(), np.zeros(3), x, "gaussian_perturb",
                                EpsilonSchedule(), 2, 8)
    assert capped
    assert eps == 4.0


def test_adapt_epsilon_gaussian_returns_gap():
    model = build_model(default_spec(GAUSSIAN))
    x = model.sample(model.pack(np.eye(5)), 4_000, rng_from(9))
    theta0 = model.to_raw(model.pack(np.eye(5)))
    sched = EpsilonSchedule()
    eps, capped = adapt_epsilon(model, theta0, x, "gaussian_perturb", sched, 5, 10)
    assert not capped
    assert eps in sched.ladder()
    kernel = kernel_for_data("gaussian_perturb", eps, x)
    pairing = sample_conditional(kernel, x, 5, 10)
    from cnce import cnce_loss

    value = cnce_loss(model, model.pack(np.eye(5)), x, pairing).value
    assert abs(value - TWO_LOG2) >= sched.delta


def test_adapt_epsilon_tiny_delta_returns_floor():
    model = build_model(default_spec(GAUSSIAN))
    x = model.sample(model.pack(np.eye(5)), 2_000, rng_from(11))
    sched = EpsilonSchedule(delta=1e-9)
    eps, capped = adapt_epsilon(model, model.to_raw(model.pack(np.eye(5))), x,
                                "gaussian_perturb", sched, 3, 12)
    assert eps == sched.epsilon_0 and not capped


def test_adapt_epsilon_deterministic_and_on_ladder():
    model = build_model(default_spec(BERNOULLI))
    x = model.sample(np.array([0.4, 0.6]), 3_000, rng_from(13))
    sched = EpsilonSchedule()
    out1 = adapt_epsilon(model, np.zeros(2), x, "bernoulli_flip", sched, 4, 14)
    out2 = adapt_epsilon(model, np.zeros(2), x, "bernoulli_flip", sched, 4, 14)
    assert out1 == out2
    assert out1[0] in sched.ladder(cap=1.0)
    assert out1[0] <= 1.0  # flip probability stays a probability


LADDER_CASES = [
    (GAUSSIAN, "gaussian_perturb", True), (GAUSSIAN, "gaussian_perturb", False),
    (RING, "gaussian_perturb", True), (RING, "gaussian_perturb", False),
    (LOGNORMAL, "gaussian_perturb", True), (LOGNORMAL, "gaussian_perturb", False),
    (BERNOULLI, "bernoulli_flip", True),
]


@pytest.mark.parametrize("kind,kernel_kind,per_dim", LADDER_CASES)
def test_adapt_epsilon_matches_fresh_draw_per_rung(kind, kernel_kind, per_dim,
                                                   monkeypatch):
    """Oracle: a fresh kernel, sample_conditional and cnce_loss per rung.
    The shared-draw ladder must return the same (eps, capped) and evaluate
    the same noise, bit for bit, at every rung it visits."""
    import cnce.optimize

    model = build_model(default_spec(kind))
    rng = rng_from(15, kind)
    theta = model.random_params(rng)
    x = model.sample(theta, 300, rng_from(16, kind))
    raw0 = model.init_raw(rng)
    kappa, seed = 3, 17
    cap = 1.0 if kernel_kind == "bernoulli_flip" else None

    def oracle(sched):
        rungs = []
        for eps in sched.ladder(cap):
            kernel = kernel_for_data(kernel_kind, eps, x, per_dim=per_dim)
            pairing = sample_conditional(kernel, x, kappa, seed)
            rungs.append(pairing.noise)
            value = cnce_loss(model, model.from_raw(raw0), x, pairing).value
            if abs(value - TWO_LOG2) >= sched.delta:
                return (eps, False), rungs
        return (sched.ladder(cap)[-1], True), rungs

    seen = []

    def recorded(model_, theta_, x_, pairing):
        seen.append(pairing.noise)
        return cnce_loss(model_, theta_, x_, pairing)

    monkeypatch.setattr(cnce.optimize, "cnce_loss", recorded)
    outcomes = set()
    for delta in (1e-6, 0.02, 0.1, 0.3, 1.3):
        sched = EpsilonSchedule(delta=delta)
        seen.clear()
        expected, rungs = oracle(sched)
        got = adapt_epsilon(model, raw0, x, kernel_kind, sched, kappa, seed,
                            per_dim=per_dim)
        assert got == expected
        assert len(seen) == len(rungs)
        assert all(np.array_equal(a, b) for a, b in zip(seen, rungs))
        outcomes.add(got)
    assert len(outcomes) >= 2  # the deltas reach more than one rung

    kernel = kernel_for_data(kernel_kind, 0.3, x, per_dim=per_dim)
    sampled = kernel.sample(x, kappa, rng_from(seed))
    assert np.array_equal(kernel.perturb(x, kernel.draw(x, kappa, rng_from(seed))),
                          sampled)


def test_epsilon_ladder_shape():
    sched = EpsilonSchedule()
    ladder = sched.ladder()
    assert ladder[0] == 0.05
    assert ladder[-1] == 4.0
    assert all(b > a for a, b in zip(ladder, ladder[1:]))
