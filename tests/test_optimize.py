"""Optimiser: convex recovery, stop reasons, determinism,
agreement with dense grid search, and the noise-scale heuristic."""

import importlib.util
import os

import numpy as np
import pytest

from cnce import (
    BernoulliFlipKernel,
    EpsilonSchedule,
    GaussianPerturbKernel,
    OptimizerConfig,
    ParameterError,
    TWO_LOG2,
    adapt_epsilon,
    cnce_loss,
    minimize,
    sample_conditional,
)
from cnce.experiments import config_from_json
from cnce import optimize
from cnce.losses import cnce_objective
from cnce.optimize import _newton_direction
from cnce.models import BERNOULLI, GAUSSIAN, LOGNORMAL, RING
from cnce.seeding import rng_from, stable_hash

import oracles
from test_models import make


def quadratic_bowl(a):
    def fn(z):
        d = z - a
        return 0.5 * float(d @ d), d, np.nan

    return fn


def test_minimize_quadratic_bowl():
    for seed in range(3):
        a = rng_from(seed, "bowl").standard_normal(6) * 3
        run = minimize(quadratic_bowl(a), np.zeros(6), OptimizerConfig())
        assert np.allclose(run.theta, a, atol=1e-6)
        assert run.converged


def rosenbrock(z):
    """Rosenbrock's valley, minimum 0 at (1, 1), with an unknown se."""
    u, v = z
    r = v - u * u
    return (100 * r * r + (1 - u) ** 2,
            np.array([-400 * u * r - 2 * (1 - u), 200 * r]), np.nan)


def test_minimize_deterministic():
    a = np.array([1.0, 2.0])
    cfg = OptimizerConfig()
    for fn, z0 in ((quadratic_bowl(a), np.zeros(2)), (rosenbrock, np.array([-1.2, 1.0])),
                   (l1_location()[0], np.zeros(2))):
        r1 = minimize(fn, z0, cfg)
        r2 = minimize(fn, z0, cfg)
        assert r1.theta.tobytes() == r2.theta.tobytes()
        assert r1.loss_trace == r2.loss_trace
        assert r1.grad_norm_trace == r2.grad_norm_trace
        assert r1.stop == r2.stop


def test_minimize_nonfinite_hands_on_the_best_finite_point():
    # BFGS down Rosenbrock's valley, whose loss turns NaN after 30 calls:
    # every later trial is rejected, the line search runs out of trials,
    # and the run hands on the last accepted point, the lowest it visited
    visited = []

    def poisoned(z):
        visited.append(z)
        value, grad, se = rosenbrock(z)
        return (np.nan if len(visited) > 30 else value), grad, se

    run = minimize(poisoned, np.array([-1.2, 1.0]), OptimizerConfig())
    assert (run.stop, run.converged) == ("step_collapse", False)
    assert 2 < run.iters < 30 and len(visited) == 30 + optimize._WOLFE_TRIALS
    last = [rosenbrock(z)[0] for z in visited].index(run.loss_trace[-1])
    assert np.array_equal(run.theta, visited[last])
    assert run.loss_trace[-1] == min(run.loss_trace) < run.loss_trace[0]
    # with a known se too: a line search that fails on NaN trials is no
    # statistical stop
    visited.clear()
    run = minimize(lambda z: poisoned(z)[:2] + (1.0,), np.array([-1.2, 1.0]),
                   OptimizerConfig())
    assert (run.stop, run.converged) == ("step_collapse", False)
    # non-finite at the start: the start comes back, with an empty trace
    run = minimize(lambda z: (np.nan, z, np.nan), np.ones(2), OptimizerConfig())
    assert (run.stop, run.iters) == ("nonfinite", 0)
    assert np.array_equal(run.theta, np.ones(2))


def test_minimize_stop_reasons_grad_tol_and_max_iters():
    a = np.array([1.0, -2.0])
    done = minimize(quadratic_bowl(a), np.zeros(2), OptimizerConfig())
    assert (done.stop, done.converged) == ("grad_tol", True)
    assert done.grad_norm_trace[-1] <= 1e-7
    assert done.iters > 2
    capped = minimize(quadratic_bowl(a), np.zeros(2), OptimizerConfig(max_iters=2))
    assert (capped.stop, capped.converged, capped.iters) == ("max_iters", False, 2)


def l1_location(n=401, seed=0, with_se=True, dim=2, right=True):
    """mean_i |z - x_i| over a dim-d sample: kinked at every data point, so
    the gradient norm stalls near the minimiser (the coordinate-wise
    median) and never meets grad_tol: the gradient is the right derivative,
    whose coordinates are odd multiples of 1/n (n is odd), at a kink too.
    With right=False it is np.sign's subgradient, which is 0 at the exact
    median.  The third slot is the sampling standard error
    std_i(sum_j |z_j - x_ij|) / sqrt(n) with with_se, NaN (unknown)
    without."""
    x = rng_from(seed, "l1").standard_normal((n, dim)) + np.resize([3.0, -1.0], dim)

    def fn(z):
        r = z - x
        terms = np.abs(r).sum(axis=1)
        se = float(np.std(terms)) / np.sqrt(n) if with_se else np.nan
        sign = np.where(r < 0, -1.0, 1.0) if right else np.sign(r)
        return float(np.mean(terms)), np.mean(sign, axis=0), se

    return fn, np.median(x, axis=0)


def test_minimize_stat_stop_on_noisy_first_order_objective():
    # in 2 dimensions BFGS lands on the median within the window, where no
    # step lowers the loss; in 8 it is still improving the loss, by less
    # than 0.01 se over the window, when the window closes
    w = optimize.STAT_WINDOW
    for dim in (2, 8):
        fn, median = l1_location(dim=dim)
        run = minimize(fn, np.zeros(dim), OptimizerConfig())
        assert (run.stop, run.converged) == ("stat_tol", True)
        assert min(run.grad_norm_trace) > 1e-7  # grad_tol alone never stops it
        assert run.iters < 2000
        # stopped within a small fraction of the standard error of the loss
        se = fn(np.zeros(dim))[2]
        assert fn(run.theta)[0] - fn(median)[0] < 0.05 * se
        assert fn(run.theta)[0] == min(run.loss_trace)  # the best point visited
        best = np.minimum.accumulate(run.loss_trace)
        if dim == 2:  # too short for the window: the median's loss, to rounding
            assert run.iters <= w
            assert fn(run.theta)[0] - fn(median)[0] <= 4 * np.spacing(fn(median)[0])
        else:  # the loss improved by at most 0.01 se over the window, by more before
            assert best[-w - 1] - best[-1] <= 0.01 * se < best[-w - 2] - best[-2]


def test_bfgs_meets_grad_tol_on_the_exact_median_with_a_zero_subgradient():
    # the 2-d run above with np.sign's subgradient: it lands on the median
    # bit for bit, where that subgradient is 0, with or without an se
    for with_se in (True, False):
        fn, median = l1_location(with_se=with_se, right=False)
        run = minimize(fn, np.zeros(2), OptimizerConfig())
        assert (run.stop, run.converged) == ("grad_tol", True)
        assert np.array_equal(run.theta, median)


def test_minimize_without_standard_error_never_stops_on_stat_tol():
    # the run that stops on stat_tol at the 2-d median with its se: with no
    # se, grad_tol is out of reach and the line search finds no lower point
    fn, _ = l1_location(with_se=False)
    run = minimize(fn, np.zeros(2), OptimizerConfig())
    assert (run.stop, run.converged) == ("step_collapse", False)


def test_minimize_records_traces_and_iters():
    run = minimize(quadratic_bowl(np.ones(2)), np.zeros(2), OptimizerConfig())
    assert run.iters == len(run.loss_trace) == len(run.grad_norm_trace)


# ---------------------------------------------------------------------------
# the BFGS route, for objectives whose third slot is an se
# ---------------------------------------------------------------------------

@pytest.fixture
def wolfe_steps(monkeypatch):
    """(z, value, grad, found) of every line search the BFGS route runs,
    found its accepted (point, objective output) or (None, flat)."""
    steps = []
    search = optimize._wolfe_search

    def recorded_search(loss_fn, z, value, grad, direction):
        steps.append((z, value, grad, search(loss_fn, z, value, grad, direction)))
        return steps[-1][3]

    monkeypatch.setattr(optimize, "_wolfe_search", recorded_search)
    return steps


def test_bfgs_reaches_the_rosenbrock_minimum():
    # Nocedal and Wright's standard start
    run = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig())
    assert (run.stop, run.converged) == ("grad_tol", True)
    np.testing.assert_allclose(run.theta, [1.0, 1.0], atol=1e-6)


BFGS_CASES = [(rosenbrock, np.array([-1.2, 1.0])), (l1_location()[0], np.zeros(2)),
              (l1_location(dim=8)[0], np.zeros(8))]


@pytest.mark.parametrize("fn,z0", BFGS_CASES, ids=["rosenbrock", "l1_2d", "l1_8d"])
def test_bfgs_steps_meet_the_weak_wolfe_conditions(fn, z0, wolfe_steps):
    # each step s taken has f_new <= f + c1 g's and g_new's >= c2 g's,
    # c1 = 1e-4 and c2 = 0.9, with the values the objective returned
    run = minimize(fn, z0, OptimizerConfig())
    taken = [(z, f, g, found) for z, f, g, found in wolfe_steps if found[0] is not None]
    assert len(taken) == run.iters - 1 > 10
    for z, f, g, (z_new, (f_new, g_new, _)) in taken:
        s = z_new - z
        assert np.any(s != 0) and g @ s < 0
        assert f_new <= f + 1e-4 * (g @ s)
        assert g_new @ s >= 0.9 * (g @ s)


@pytest.mark.parametrize("fn,z0", BFGS_CASES, ids=["rosenbrock", "l1_2d", "l1_8d"])
def test_bfgs_trace_decreases_and_ends_at_the_point_handed_on(fn, z0, wolfe_steps):
    run = minimize(fn, z0, OptimizerConfig())
    assert all(b <= a for a, b in zip(run.loss_trace, run.loss_trace[1:]))
    taken = [found for *_, found in wolfe_steps if found[0] is not None]
    assert run.loss_trace[1:] == [out[0] for _, out in taken]
    assert np.array_equal(taken[-1][0], run.theta)


def test_bfgs_converges_inside_the_ball_where_the_loss_is_finite():
    # NaN beyond 0.15 outside the minimiser's radius, where the doubling of
    # the line search lands: those trials are rejected like a failed decrease
    fn, median = l1_location(dim=8)
    radius = np.linalg.norm(median) + 0.15
    rejected = []

    def fenced(z):
        value, grad, se = fn(z)
        if z @ z > radius**2:
            rejected.append(z)
            value = np.nan
        return value, grad, se

    run = minimize(fenced, np.zeros(8), OptimizerConfig())
    assert (run.stop, run.converged) == ("stat_tol", True)
    assert rejected and run.theta @ run.theta <= radius**2
    assert fn(run.theta)[0] - fn(median)[0] < 0.05 * fn(np.zeros(8))[2]


def test_gaussian_1d_cnce_matches_grid_search():
    model = make(GAUSSIAN, dim=1)
    x = model.sample(np.array([1.0]), 10_000, rng_from(1))
    noise = sample_conditional(model.kernel.for_data(0.4, x), x, 10, 2)
    objective = cnce_objective(model, x, noise)
    run = minimize(objective, np.array([0.0]), OptimizerConfig())
    lam_hat = run.theta[0]
    grid = np.linspace(0.2, 3.0, 700)
    vals = [cnce_loss(model, np.array([g]), x, noise) for g in grid]
    lam_grid = grid[int(np.argmin(vals))]
    assert abs(lam_hat - lam_grid) < 0.1
    assert abs(lam_hat - 1.0) < 0.15


def test_bernoulli_population_minimize_from_random_starts():
    truth = np.log([0.3, 0.7])

    def objective(theta):
        return (*oracles.bernoulli_population_loss(theta, truth, 0.2), np.nan)

    rng = rng_from(5)
    for _ in range(5):
        z0 = 0.5 * rng.standard_normal(2)
        run = minimize(objective, z0, OptimizerConfig())
        w = np.exp(run.theta)
        assert np.linalg.norm(w / w.sum() - [0.3, 0.7]) < 1e-6


def test_newton_direction_doubles_the_damping_of_an_indefinite_hessian():
    # H has eigenvalues 3 and -1: no Cholesky factor at the 1e-12 floor, so
    # the damping doubles until H + lam I is positive definite, lam in (1, 2]
    hess = np.array([[1.0, 2.0], [2.0, 1.0]])
    grad = np.array([1.0, 0.5])
    d = _newton_direction(hess, grad)
    assert np.all(np.isfinite(d))
    lam = float((-grad - hess @ d) @ d / (d @ d))
    assert 1.0 < lam <= 2.0
    np.testing.assert_allclose((hess + lam * np.eye(2)) @ d, -grad, atol=1e-12)


def test_optimizer_config_validation():
    with pytest.raises(ParameterError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ParameterError):
        OptimizerConfig(grad_tol=0.0)
    for bad in ({"grad_tol": float("nan")}, {"grad_tol": float("inf")}):
        with pytest.raises(ParameterError):
            OptimizerConfig(**bad)
    with pytest.raises(ParameterError):
        EpsilonSchedule(delta=2.0)
    for eps_max in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            EpsilonSchedule(epsilon_max=eps_max)


# ---------------------------------------------------------------------------
# noise-scale heuristic
# ---------------------------------------------------------------------------

class _FlatModel:
    """Constant log phi: the loss equals 2 log 2 at every scale."""

    kernel = GaussianPerturbKernel

    def log_phi(self, theta, U):
        return np.zeros(len(np.atleast_2d(U)))


def test_adapt_epsilon_flat_model_hits_cap():
    x = rng_from(7).standard_normal((200, 2))
    eps, capped, _ = adapt_epsilon(_FlatModel(), np.zeros(3), x, EpsilonSchedule(), 2, 8)
    assert capped
    assert eps == 4.0


def test_adapt_epsilon_gaussian_returns_gap():
    model = make(GAUSSIAN)
    x = model.sample(model.pack(np.eye(5)), 4_000, rng_from(9))
    theta0 = model.pack(np.eye(5))
    sched = EpsilonSchedule()
    eps, capped, _ = adapt_epsilon(model, theta0, x, sched, 5, 10)
    assert not capped
    assert eps in sched.ladder()
    noise = sample_conditional(model.kernel.for_data(eps, x), x, 5, 10)
    value = cnce_loss(model, model.pack(np.eye(5)), x, noise)
    assert abs(value - TWO_LOG2) >= sched.delta


def test_adapt_epsilon_tiny_delta_returns_floor():
    model = make(GAUSSIAN)
    x = model.sample(model.pack(np.eye(5)), 2_000, rng_from(11))
    sched = EpsilonSchedule(delta=1e-9)
    eps, capped, _ = adapt_epsilon(model, model.pack(np.eye(5)), x,
                                   sched, 3, 12)
    assert eps == sched.epsilon_0 and not capped


def test_adapt_epsilon_deterministic_and_on_ladder():
    model = make(BERNOULLI)
    x = model.sample(np.log([0.4, 0.6]), 3_000, rng_from(13))
    sched = EpsilonSchedule()
    out1 = adapt_epsilon(model, np.zeros(2), x, sched, 4, 14)
    out2 = adapt_epsilon(model, np.zeros(2), x, sched, 4, 14)
    assert out1[:2] == out2[:2]
    assert np.array_equal(out1[2], out2[2])
    for kappa in (0, -1):
        with pytest.raises(ParameterError, match="kappa must be >= 1"):
            adapt_epsilon(model, np.zeros(2), x, sched, kappa, 14)
    assert out1[0] in sched.ladder(cap=1.0)
    assert out1[0] <= 1.0  # flip probability stays a probability


@pytest.mark.parametrize("kind,sched,outcome", [
    (GAUSSIAN, EpsilonSchedule(), "meets delta"),
    (GAUSSIAN, EpsilonSchedule(delta=1.3, epsilon_max=0.5), "capped"),
    (BERNOULLI, EpsilonSchedule(delta=1.3), "kernel cap")])
def test_adapt_epsilon_returns_the_noise_of_its_pick(kind, sched, outcome):
    # the noise the fit takes: the picked rung's, or the top rung's where
    # none meets delta, bit for bit the one sample_conditional draws there
    model = make(kind)
    x = model.sample(model.random_params(rng_from(18, kind)), 500, rng_from(19, kind))
    kappa, seed = 4, 20
    eps, capped, noise = adapt_epsilon(model, model.init_theta(rng_from(21, kind)),
                                       x, sched, kappa, seed)
    top = sched.ladder(model.kernel.epsilon_cap)[-1]
    assert {"meets delta": eps < top and not capped,
            "capped": eps == sched.epsilon_max and capped,
            "kernel cap": eps == 1.0 and not capped}[outcome]
    expected = sample_conditional(model.kernel.for_data(eps, x), x, kappa, seed)
    assert noise.shape == expected.shape and noise.tobytes() == expected.tobytes()


LADDER_CASES = [
    (GAUSSIAN, "gaussian_perturb"), (RING, "gaussian_perturb"),
    (LOGNORMAL, "gaussian_perturb"), (BERNOULLI, "bernoulli_flip"),
]
_KERNELS = {"gaussian_perturb": GaussianPerturbKernel,
            "bernoulli_flip": BernoulliFlipKernel}


@pytest.mark.parametrize("kind,kernel_name", LADDER_CASES)
def test_adapt_epsilon_matches_fresh_draw_per_rung(kind, kernel_name, monkeypatch):
    """Oracle: a fresh kernel, sample_conditional and cnce_loss per rung.
    The shared-draw ladder must return the same (eps, capped) and evaluate
    the same noise, bit for bit, at every rung it visits.  ``capped`` means
    the ladder ended at the schedule's epsilon_max without meeting delta;
    ending at the flip kernel's own cap, eps = 1, is not capped."""
    import cnce.optimize

    model = make(kind)
    assert model.kernel is _KERNELS[kernel_name]
    rng = rng_from(15, kind)
    theta = model.random_params(rng)
    x = model.sample(theta, 300, rng_from(16, kind))
    theta0 = model.init_theta(rng)
    kappa, seed = 3, 17
    cap = 1.0 if kernel_name == "bernoulli_flip" else None

    def oracle(sched):
        rungs = []
        for eps in sched.ladder(cap):
            noise = sample_conditional(model.kernel.for_data(eps, x), x, kappa, seed)
            rungs.append(noise)
            value = cnce_loss(model, theta0, x, noise)
            if abs(value - TWO_LOG2) >= sched.delta:
                return (eps, False), rungs
        top = sched.ladder(cap)[-1]
        return (top, top == sched.epsilon_max and top != cap), rungs

    seen = []

    def recorded(model_, theta_, x_, noise):
        seen.append(noise)
        return cnce_loss(model_, theta_, x_, noise)

    monkeypatch.setattr(cnce.optimize, "cnce_loss", recorded)
    outcomes = set()
    for delta, eps_max in ((1e-6, 4.0), (0.02, 4.0), (0.1, 4.0), (0.3, 4.0),
                           (1.3, 4.0), (1.3, 0.5)):
        sched = EpsilonSchedule(delta=delta, epsilon_max=eps_max)
        seen.clear()
        expected, rungs = oracle(sched)
        eps, capped, noise = adapt_epsilon(model, theta0, x, sched, kappa, seed)
        got = (eps, capped)
        assert got == expected
        assert np.array_equal(noise, rungs[-1])  # the noise of the last rung seen
        assert len(seen) == len(rungs)
        assert all(np.array_equal(a, b) for a, b in zip(seen, rungs))
        outcomes.add(got)
    assert len(outcomes) >= 3  # the deltas reach more than one rung, and the cap

    kernel = model.kernel.for_data(0.3, x)
    assert np.array_equal(kernel.perturb(x, kernel.draw(x, kappa, rng_from(seed))),
                          sample_conditional(kernel, x, kappa, seed))


def _load_benchmark_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_value_only_rungs_keep_the_affine_grid_epsilons(seed, monkeypatch):
    """The ladder reads each rung's value from ``cnce_loss``; on every CNCE
    cell of the benchmark's affine_grid workload it must choose the same
    scale as a ladder that reads the value of the logaddexp oracle.  The
    cell inputs are derived as run_single derives them."""
    import cnce.optimize

    workloads = _load_benchmark_workloads()
    oracle_calls = []

    def oracle_value(model, theta, x, noise):
        oracle_calls.append(len(x))
        return oracles.cnce_loss(model, theta, x, noise)[0]

    cells = 0
    for obj in workloads.build("affine_grid", seed)["configs"]:
        cfg = config_from_json(obj)
        if "cnce" not in cfg.methods:
            continue
        model = cfg.model
        for n in cfg.n_grid:
            for kappa in cfg.kappa_grid:
                cell = stable_hash(cfg.master_seed, cfg.model.kind, "cnce", n, kappa, 0)
                theta = model.random_params(rng_from(stable_hash(cell, "params")))
                x = model.sample(theta, n, rng_from(stable_hash(cell, "data")))
                theta0 = model.init_theta(rng_from(stable_hash(cell, "init")))
                args = (model, theta0, x, cfg.epsilon_schedule, kappa,
                        stable_hash(cell, "noise"))
                monkeypatch.setattr(cnce.optimize, "cnce_loss", cnce_loss)
                picked = adapt_epsilon(*args)
                monkeypatch.setattr(cnce.optimize, "cnce_loss", oracle_value)
                got = adapt_epsilon(*args)
                assert got[:2] == picked[:2]
                assert np.array_equal(got[2], picked[2])
                cells += 1
    assert cells == 8
    assert oracle_calls


def test_epsilon_ladder_shape():
    sched = EpsilonSchedule()
    ladder = sched.ladder()
    assert ladder[0] == 0.05
    assert ladder[-1] == 4.0
    assert all(b > a for a, b in zip(ladder, ladder[1:]))
    # the rungs double up to epsilon_max or the kernel's cap
    assert ladder == [0.05 * 2**k for k in range(7)] + [4.0]
    assert EpsilonSchedule(epsilon_0=0.3, epsilon_max=1.2).ladder() == [0.3, 0.6, 1.2]
    assert sched.ladder(cap=1.0) == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]
    # a first rung equal to the last is the whole ladder; one above it is
    # refused (test_config_validation), where it was once dropped unread
    assert EpsilonSchedule(epsilon_0=4.0, epsilon_max=4.0).ladder() == [4.0]
