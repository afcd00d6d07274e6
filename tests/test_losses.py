"""Loss functions: frozen scalar oracles, finite-difference gradients, the
eps = 0 identity, scale invariance, baselines, and the exact Bernoulli
population loss against a brute-force grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnce import (
    GaussianPerturbKernel,
    ParameterError,
    RingModel,
    TWO_LOG2,
    UnsupportedModelError,
    bernoulli_population_loss,
    build_model,
    cnce_G,
    cnce_loss,
    default_spec,
    fit_marginal,
    kernel_for_data,
    log_density_marginal,
    mle_fit,
    nce_loss,
    sample_conditional,
    sample_marginal,
    score_matching_loss,
)
from cnce.kernels import pairing_at_data
from cnce.losses import cnce_objective, nce_objective
from cnce.models import (
    BERNOULLI,
    GAUSSIAN,
    ICA,
    KINDS,
    LOGNORMAL,
    RING,
    ModelSpec,
)
from cnce.seeding import rng_from

from test_models import make, random_points, random_theta


def make_pairing(model, theta, x, kappa, seed):
    if model.spec.kind == BERNOULLI:
        kernel = kernel_for_data("bernoulli_flip", 0.25, x)
    else:
        kernel = kernel_for_data("gaussian_perturb", 0.4, x)
    return sample_conditional(kernel, x, kappa, seed)


# ---------------------------------------------------------------------------
# the log-odds statistic G
# ---------------------------------------------------------------------------

def test_G_zero_for_identical_arguments():
    model = make(GAUSSIAN)
    theta = model.random_params(rng_from(0))
    u = np.full(5, 0.3)
    kern = GaussianPerturbKernel(np.full(5, 0.5))
    assert cnce_G(model, theta, kern, u, u) == 0.0


def test_G_frozen_gaussian_1d():
    model = build_model(ModelSpec(GAUSSIAN, 1))
    kern = GaussianPerturbKernel([0.5])
    g = cnce_G(model, np.array([1.0]), kern, np.array([1.0]), np.array([1.5]))
    assert g == pytest.approx(0.625, rel=1e-15)  # -(1 - 2.25)/2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_G_antisymmetry(seed):
    rng = rng_from(seed, "G")
    model = make(GAUSSIAN)
    theta = model.random_params(rng)
    kern = GaussianPerturbKernel(np.full(5, 0.7))
    u1, u2 = rng.standard_normal((2, 5))
    assert cnce_G(model, theta, kern, u1, u2) == -cnce_G(model, theta, kern, u2, u1)


# ---------------------------------------------------------------------------
# empirical loss values
# ---------------------------------------------------------------------------

def test_cnce_loss_frozen_single_pair():
    model = build_model(ModelSpec(GAUSSIAN, 1))
    x = np.array([[1.0]])
    pairing = pairing_at_data(x)
    pairing.noise[0, 0, 0] = 1.5
    rep = cnce_loss(model, np.array([1.0]), x, pairing)
    # 2 log(1 + exp(-0.625)), high-precision scalar oracle
    assert rep.value == pytest.approx(0.85740135655303727, rel=1e-14)
    assert rep.n_terms == 1


@pytest.mark.parametrize("kind", KINDS)
def test_cnce_loss_eps0_identity(kind):
    model = make(kind)
    rng = rng_from(17, kind)
    for _ in range(10):
        theta = random_theta(model, rng)
        x = random_points(model, theta, rng, m=64)
        rep = cnce_loss(model, theta, x, pairing_at_data(x, kappa=3))
        assert abs(rep.value - TWO_LOG2) < 1e-12
        assert np.allclose(rep.gradient, 0.0, atol=1e-12)


def test_cnce_loss_large_G_limit():
    model = build_model(ModelSpec(GAUSSIAN, 1))
    x = np.array([[0.0]])
    pairing = pairing_at_data(x)
    pairing.noise[0, 0, 0] = 60.0  # G = 1800 at lambda = 1: softplus underflows to 0
    rep = cnce_loss(model, np.array([1.0]), x, pairing)
    assert 0.0 <= rep.value < 1e-300


def test_cnce_loss_value_positive():
    model = make(GAUSSIAN)
    rng = rng_from(19)
    theta = model.random_params(rng)
    x = model.sample(theta, 200, rng_from(20))
    rep = cnce_loss(model, theta, x, make_pairing(model, theta, x, 5, 21))
    assert rep.value > 0


def test_cnce_scale_invariance_bernoulli():
    model = make(BERNOULLI)
    theta = np.array([0.3, 0.7])
    x = model.sample(theta, 5_000, rng_from(23))
    pairing = make_pairing(model, theta, x, 3, 24)
    base = cnce_loss(model, theta, x, pairing).value
    for c in (0.1, 10.0):
        scaled = cnce_loss(model, c * theta, x, pairing).value
        assert abs(scaled - base) < 1e-13


def test_cnce_loss_shape_mismatch():
    model = make(GAUSSIAN)
    x = rng_from(25).standard_normal((10, 5))
    pairing = pairing_at_data(x[:5])
    with pytest.raises(ParameterError):
        cnce_loss(model, model.pack(np.eye(5)), x, pairing)


# ---------------------------------------------------------------------------
# gradients against central finite differences
# ---------------------------------------------------------------------------

def fd_loss_grad(fn, theta, h=1e-6):
    g = np.zeros(len(theta))
    for k in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        g[k] = (fn(tp) - fn(tm)) / (2 * h)
    return g


def assert_grad_matches(fn_value, analytic, theta, tol=1e-6):
    numeric = fd_loss_grad(fn_value, theta)
    denom = max(1.0, float(np.linalg.norm(analytic)))
    assert np.linalg.norm(analytic - numeric) / denom < tol


@pytest.mark.parametrize("kind", KINDS)
def test_cnce_gradient_finite_differences(kind):
    model = make(kind)
    rng = rng_from(29, kind)
    for rep_i in range(8):
        theta = random_theta(model, rng)
        x = random_points(model, theta, rng, m=40)
        pairing = make_pairing(model, theta, x, 3, 1000 + rep_i)
        if kind == ICA:
            b = model.unpack(theta)
            pts = np.vstack([x, pairing.noise.reshape(-1, model.spec.dim)])
            if np.min(np.abs(pts @ b.T)) < 1e-3:
                continue
        rep = cnce_loss(model, theta, x, pairing)
        assert_grad_matches(lambda t: cnce_loss(model, t, x, pairing).value,
                            rep.gradient, theta)


@pytest.mark.parametrize("kind", (GAUSSIAN, RING, LOGNORMAL))
def test_score_matching_gradient_finite_differences(kind):
    model = make(kind)
    rng = rng_from(31, kind)
    for _ in range(8):
        theta = random_theta(model, rng)
        x = model.sample(theta, 60, rng_from(int(rng.integers(2**31))))
        rep = score_matching_loss(model, theta, x)
        assert_grad_matches(lambda t: score_matching_loss(model, t, x).value,
                            rep.gradient, theta)


def test_nce_gradient_finite_differences():
    for kind in (GAUSSIAN, ICA, RING, LOGNORMAL):
        model = make(kind)
        rng = rng_from(37, kind)
        for _ in range(5):
            theta = random_theta(model, rng)
            x = model.sample(theta, 50, rng_from(int(rng.integers(2**31))))
            marginal = fit_marginal(x)
            noise = sample_marginal(marginal, 100, int(rng.integers(2**31)))
            full = np.concatenate([theta, [0.2]])
            rep = nce_loss(model, full, x, noise, marginal)
            assert_grad_matches(
                lambda t: nce_loss(model, t, x, noise, marginal).value,
                rep.gradient, full)


# ---------------------------------------------------------------------------
# objective builders agree with the reference implementations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_cnce_objective_matches_reference(kind):
    model = make(kind)
    rng = rng_from(41, kind)
    theta = random_theta(model, rng)
    x = random_points(model, theta, rng, m=50)
    pairing = make_pairing(model, theta, x, 4, 51)
    objective = cnce_objective(model, x, pairing)
    raw = model.to_raw(theta)
    value, grad_raw = objective(raw)[:2]
    ref = cnce_loss(model, theta, x, pairing)
    assert value == pytest.approx(ref.value, rel=1e-12)
    assert np.allclose(grad_raw, model.chain_raw(ref.gradient, theta),
                       rtol=1e-10, atol=1e-12)


NCE_KINDS = (GAUSSIAN, ICA, RING, LOGNORMAL)


def nce_problem(kind):
    model = make(kind)
    rng = rng_from(43)
    theta = model.random_params(rng)
    if kind == ICA:
        theta = np.round(8.0 * theta) / 8.0  # dyadic: the kink below is exact
    x = model.sample(theta, 80, rng_from(44))
    if kind == ICA:
        b = model.unpack(theta)
        x[0] = [b[0, 1], -b[0, 0], 0.0, 0.0]  # b_0 . x_0 == 0, sign(0) = 0
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 160, 45)
    return model, theta, x, noise, marginal


@pytest.mark.parametrize("kind", NCE_KINDS)
def test_nce_objective_matches_reference(kind):
    model, theta, x, noise, marginal = nce_problem(kind)
    if kind == ICA:
        assert np.min(np.abs(x @ model.unpack(theta).T)) == 0.0
    objective = nce_objective(model, x, noise, marginal)
    raw = np.concatenate([model.to_raw(theta), [0.3]])
    value, grad_raw = objective(raw)[:2]
    ref = nce_loss(model, np.concatenate([theta, [0.3]]), x, noise, marginal)
    assert value == pytest.approx(ref.value, rel=1e-12)
    expected = np.concatenate(
        [model.chain_raw(ref.gradient[:-1], theta), ref.gradient[-1:]])
    assert np.allclose(grad_raw, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", NCE_KINDS)
def test_nce_objective_evaluates_noise_density_only_at_build(kind, monkeypatch):
    import cnce.losses

    calls = []

    def counted(marginal, u):
        calls.append(len(u))
        return log_density_marginal(marginal, u)

    monkeypatch.setattr(cnce.losses, "log_density_marginal", counted)
    model, theta, x, noise, marginal = nce_problem(kind)
    objective = nce_objective(model, x, noise, marginal)
    built = len(calls)
    assert built > 0
    raw = np.concatenate([model.to_raw(theta), [0.3]])
    for step in range(5):
        objective(raw + 0.01 * step)
    assert len(calls) == built


def test_objectives_reject_models_without_a_route():
    class Opaque(RingModel):
        def theta_features(self, U):
            return None

    x = make(RING).sample(np.array([2.0]), 20, rng_from(46))
    with pytest.raises(UnsupportedModelError):
        cnce_objective(Opaque(), x, make_pairing(make(RING), None, x, 2, 47))
    model = make(BERNOULLI)
    x = model.sample(np.array([0.4, 0.6]), 20, rng_from(48))
    marginal = fit_marginal(x)
    with pytest.raises(UnsupportedModelError):
        nce_objective(model, x, sample_marginal(marginal, 40, 49), marginal)


# ---------------------------------------------------------------------------
# NCE value identities
# ---------------------------------------------------------------------------

class _MarginalAsModel:
    """Test double whose unnormalised density equals the marginal pdf, so the
    classifier is exactly indifferent at c = 0."""

    def __init__(self, marginal, dim):
        self.marginal = marginal
        self.spec = ModelSpec(GAUSSIAN, dim)

    def log_phi(self, theta, U):
        return log_density_marginal(self.marginal, U)

    def grad_theta_weighted(self, theta, U, w):
        return np.zeros(self.spec.param_count)


def test_nce_indifferent_classifier_value():
    x = rng_from(47).standard_normal((500, 3))
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 500, 48)  # nu = 1
    model = _MarginalAsModel(marginal, 3)
    rep = nce_loss(model, np.zeros(7), x, noise, marginal)
    assert rep.value == pytest.approx(TWO_LOG2, rel=1e-14)


def test_nce_prefers_truth_at_scale():
    model = make(GAUSSIAN)
    theta = model.pack(np.eye(5) * 2.0)
    x = model.sample(theta, 20_000, rng_from(49))
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 20_000, 50)
    # true log-normaliser of exp(-u'Lu/2): log[(2 pi)^{d/2} det(L)^{-1/2}]
    c_true = -(0.5 * 5 * np.log(2 * np.pi) - 0.5 * np.linalg.slogdet(2 * np.eye(5))[1])
    at_truth = nce_loss(model, np.concatenate([theta, [c_true]]), x, noise, marginal)
    perturbed = theta + 0.3
    at_perturbed = nce_loss(model, np.concatenate([perturbed, [c_true]]), x, noise,
                            marginal)
    assert at_truth.value < at_perturbed.value


def test_nce_noise_count_multiple():
    model = make(GAUSSIAN)
    x = rng_from(51).standard_normal((10, 5))
    marginal = fit_marginal(x)
    with pytest.raises(ParameterError):
        nce_loss(model, np.zeros(16), x, np.zeros((15, 5)), marginal)


# ---------------------------------------------------------------------------
# score matching values
# ---------------------------------------------------------------------------

def test_score_matching_gaussian_1d_formula():
    model = build_model(ModelSpec(GAUSSIAN, 1))
    x = rng_from(53).standard_normal((100_000, 1))
    rep = score_matching_loss(model, np.array([1.0]), x)
    assert rep.value == pytest.approx(-1.0 + 0.5 * np.mean(x**2), rel=1e-12)
    assert rep.value == pytest.approx(-0.5, abs=0.01)


def test_score_matching_single_point_identity():
    model = make(GAUSSIAN)
    rep = score_matching_loss(model, model.pack(np.eye(5)), np.zeros((1, 5)))
    assert rep.value == -5.0


def test_score_matching_1d_minimiser():
    x = rng_from(54).standard_normal((50_000, 1)) * 1.7
    model = build_model(ModelSpec(GAUSSIAN, 1))
    m2 = float(np.mean(x**2))
    lam_star = 1.0 / m2  # solves d/dlambda [-lambda + lambda^2 m2 / 2] = 0
    grid = np.linspace(0.1, 3.0, 2_000)
    vals = [score_matching_loss(model, np.array([g]), x).value for g in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(lam_star, abs=2e-3)


def test_score_matching_unsupported():
    with pytest.raises(UnsupportedModelError):
        score_matching_loss(make(ICA), make(ICA).random_params(rng_from(0)),
                            np.ones((3, 4)))


# ---------------------------------------------------------------------------
# MLE baselines
# ---------------------------------------------------------------------------

def test_mle_gaussian_closed_form():
    model = make(GAUSSIAN)
    x = model.sample(model.random_params(rng_from(57)), 500, rng_from(58))
    res = mle_fit(model, x)
    s = x.T @ x / len(x)
    assert np.allclose(model.unpack(res.theta_hat), np.linalg.inv(s))
    assert res.method == "closed_form" and res.converged and res.iters == 0
    assert np.all(np.linalg.eigvalsh(model.unpack(res.theta_hat)) > 0)


def test_mle_bernoulli_frequencies():
    model = make(BERNOULLI)
    x = np.array([1.0] * 70 + [0.0] * 30)[:, None]
    res = mle_fit(model, x)
    assert np.allclose(res.theta_hat, [0.3, 0.7])


def test_mle_lognormal_closed_form():
    model = make(LOGNORMAL)
    theta = np.array([1.6, -5.0])
    x = model.sample(theta, 100_000, rng_from(59))
    res = mle_fit(model, x)
    assert res.theta_hat[0] == pytest.approx(1.0 / np.mean(np.log(x[:, 0]) ** 2),
                                             rel=1e-12)
    assert res.theta_hat[0] == pytest.approx(1.6, rel=0.05)


def test_mle_ica_recovers_demixing():
    model = make(ICA)
    theta = model.random_params(rng_from(61))
    x = model.sample(theta, 20_000, rng_from(62))
    res = mle_fit(model, x, rng_seed=63)
    from cnce import estimation_error

    assert estimation_error(model, res.theta_hat, theta) < 0.15
    assert res.method == "gradient_ascent" and res.iters > 0


def test_mle_ring_unsupported():
    with pytest.raises(UnsupportedModelError):
        mle_fit(make(RING), np.ones((10, 5)))


# ---------------------------------------------------------------------------
# exact Bernoulli population loss
# ---------------------------------------------------------------------------

def test_population_loss_scale_invariant():
    t = np.array([0.4, 1.1])
    base = bernoulli_population_loss(t, np.array([0.3, 0.7]), 0.2)
    assert bernoulli_population_loss(2 * t, np.array([0.3, 0.7]), 0.2) == base


def test_population_loss_symmetric_truth():
    # theta_true = (1/2, 1/2): grid minimum sits at the symmetric point
    grid = np.linspace(0.01, 0.99, 981)
    vals = [bernoulli_population_loss(np.array([t, 1 - t]), np.array([0.5, 0.5]), 0.3)
            for t in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(0.5, abs=1e-6)


def test_population_loss_grid_oracle():
    # brute-force grid over normalised theta1, step 1e-4
    truth = np.array([0.3, 0.7])
    grid = np.arange(0.01, 0.99 + 1e-12, 1e-4)
    vals = np.array([
        bernoulli_population_loss(np.array([t, 1 - t]), truth, 0.2) for t in grid
    ])
    assert grid[int(np.argmin(vals))] == pytest.approx(0.3, abs=1e-4)


def test_population_loss_epsilon_domain():
    with pytest.raises(ParameterError):
        bernoulli_population_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0)
    with pytest.raises(ParameterError):
        bernoulli_population_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1.0)


def test_population_loss_at_truth_value():
    # at G = log(t1/t2), the four-term sum reduces to the stated closed form
    truth = np.array([0.3, 0.7])
    eps = 0.2
    val = bernoulli_population_loss(truth, truth, eps)
    g = np.log(0.3 / 0.7)
    expect = 2 * (1 - eps) * np.log(2) + 2 * eps * (
        0.3 * np.log1p(np.exp(-g)) + 0.7 * np.log1p(np.exp(g)))
    assert val == pytest.approx(expect, rel=1e-15)
