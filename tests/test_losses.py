"""Loss functions: frozen scalar oracles, finite-difference gradients, the
eps = 0 identity, scale invariance, baselines, the objectives against the
restated losses of ``oracles``, and the exact Bernoulli population loss
against a brute-force grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import multivariate_normal

from cnce import (
    ExperimentConfig,
    OptimizerConfig,
    ParameterError,
    RingModel,
    SingularityError,
    TWO_LOG2,
    UnsupportedModelError,
    cnce_loss,
    estimation_error,
    fit_marginal,
    log_density_marginal,
    minimize,
    mle_fit,
    run_single,
    sample_conditional,
    sample_marginal,
)
from cnce.losses import (
    _softplus_sigmoid_neg,
    cnce_objective,
    ica_mle_objective,
    nce_log_normaliser,
    nce_objective,
    score_matching_objective,
)
from cnce.models import (
    _Model,
    BERNOULLI,
    GAUSSIAN,
    ICA,
    KINDS,
    LOGNORMAL,
    RING,
    GaussianPrecisionModel,
)
from cnce.seeding import rng_from

import oracles
from oracles import bernoulli_population_loss, cnce_G, nce_loss, score_matching_loss
from test_kernels import pairing_at_data
from test_models import make, random_points, random_theta


def make_noise(model, theta, x, kappa, seed):
    eps = 0.25 if model.kind == BERNOULLI else 0.4
    return sample_conditional(model.kernel.for_data(eps, x), x, kappa, seed)


def nce_log_q(marginal, x, noise):
    """log q at [x; noise], the noise log-densities ``nce_objective`` takes."""
    return log_density_marginal(marginal, np.concatenate([x, noise]))


# ---------------------------------------------------------------------------
# the log-odds statistic G
# ---------------------------------------------------------------------------

def test_G_zero_for_identical_arguments():
    model = make(GAUSSIAN)
    theta = model.random_params(rng_from(0))
    u = np.full(5, 0.3)
    assert cnce_G(model, theta, u, u) == 0.0


def test_G_frozen_gaussian_1d():
    model = make(GAUSSIAN, dim=1)
    g = cnce_G(model, np.array([1.0]), np.array([1.0]), np.array([1.5]))
    assert g == pytest.approx(0.625, rel=1e-15)  # -(1 - 2.25)/2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_G_antisymmetry(seed):
    rng = rng_from(seed, "G")
    model = make(GAUSSIAN)
    theta = model.random_params(rng)
    u1, u2 = rng.standard_normal((2, 5))
    assert cnce_G(model, theta, u1, u2) == -cnce_G(model, theta, u2, u1)


# ---------------------------------------------------------------------------
# empirical loss values
# ---------------------------------------------------------------------------

def test_cnce_loss_frozen_single_pair():
    model = make(GAUSSIAN, dim=1)
    x = np.array([[1.0]])
    noise = pairing_at_data(x)
    noise[0, 0, 0] = 1.5
    value = cnce_loss(model, np.array([1.0]), x, noise)
    # 2 log(1 + exp(-0.625)), high-precision scalar oracle
    assert value == pytest.approx(0.85740135655303727, rel=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_cnce_loss_eps0_identity(kind):
    model = make(kind)
    rng = rng_from(17, kind)
    for _ in range(10):
        theta = random_theta(model, rng)
        x = random_points(model, theta, rng, m=64)
        noise = pairing_at_data(x, kappa=3)
        assert abs(cnce_loss(model, theta, x, noise) - TWO_LOG2) < 1e-12
        value, grad = cnce_objective(model, x, noise)(theta)[:2]
        assert abs(value - TWO_LOG2) < 1e-12
        assert np.allclose(grad, 0.0, atol=1e-12)


def test_cnce_loss_large_G_limit():
    model = make(GAUSSIAN, dim=1)
    x = np.array([[0.0]])
    noise = pairing_at_data(x)
    noise[0, 0, 0] = 60.0  # G = 1800 at lambda = 1: softplus underflows to 0
    assert 0.0 <= cnce_loss(model, np.array([1.0]), x, noise) < 1e-300


def test_cnce_loss_value_positive():
    model = make(GAUSSIAN)
    rng = rng_from(19)
    theta = model.random_params(rng)
    x = model.sample(theta, 200, rng_from(20))
    assert cnce_loss(model, theta, x, make_noise(model, theta, x, 5, 21)) > 0


def test_cnce_scale_invariance_bernoulli():
    # the weights' redundant scale is an offset added to the log-weights
    model = make(BERNOULLI)
    theta = np.log([0.3, 0.7])
    x = model.sample(theta, 5_000, rng_from(23))
    noise = make_noise(model, theta, x, 3, 24)
    base = cnce_loss(model, theta, x, noise)
    for c in (np.log(0.1), np.log(10.0)):
        shifted = cnce_loss(model, theta + c, x, noise)
        assert abs(shifted - base) < 1e-13


def test_cnce_loss_shape_mismatch():
    model = make(GAUSSIAN)
    x = rng_from(25).standard_normal((10, 5))
    noise = pairing_at_data(x[:5])
    with pytest.raises(ParameterError):
        cnce_loss(model, model.pack(np.eye(5)), x, noise)


def test_softplus_sigmoid_neg_matches_logaddexp_and_expit():
    mags = (0.0, 1e-300, 1.0, 30.0, 700.0, 750.0, 1e308)
    g = np.array([sign * v for v in mags for sign in (1.0, -1.0)])
    assert np.signbit(g[1]) and g[1] == 0.0  # -0.0 is among the inputs
    sp, sig = _softplus_sigmoid_neg(g.copy())
    assert not np.any(np.isnan(sp)) and not np.any(np.isnan(sig))
    assert np.all((sig >= 0.0) & (sig <= 1.0))
    np.testing.assert_allclose(sp, np.logaddexp(0.0, -g), rtol=1e-15, atol=0)
    np.testing.assert_allclose(sig, expit(-g), rtol=1e-15, atol=0)
    assert np.all(sp[:2] == np.log(2.0)) and np.all(sig[:2] == 0.5)


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


def assert_oracle_and_objective_grads_match(oracle, objective, theta):
    """The gradients of an oracle loss and of an objective each against
    central finite differences of their own values."""
    assert_grad_matches(lambda t: oracle(t)[0], oracle(theta)[1], theta)
    assert_grad_matches(lambda t: objective(t)[0], objective(theta)[1], theta)


@pytest.mark.parametrize("kind", KINDS)
def test_cnce_gradient_finite_differences(kind):
    model = make(kind)
    rng = rng_from(29, kind)
    for rep_i in range(8):
        theta = random_theta(model, rng)
        x = random_points(model, theta, rng, m=40)
        noise = make_noise(model, theta, x, 3, 1000 + rep_i)
        if kind == ICA:
            b = model.unpack(theta)
            pts = np.vstack([x, noise.reshape(-1, model.dim)])
            if np.min(np.abs(pts @ b.T)) < 1e-3:
                continue
        assert_oracle_and_objective_grads_match(
            lambda t: oracles.cnce_loss(model, t, x, noise),
            cnce_objective(model, x, noise), theta)


@pytest.mark.parametrize("kind", (GAUSSIAN, RING, LOGNORMAL))
def test_score_matching_gradient_finite_differences(kind):
    model = make(kind)
    rng = rng_from(31, kind)
    for _ in range(8):
        theta = random_theta(model, rng)
        x = model.sample(theta, 60, rng_from(int(rng.integers(2**31))))
        assert_oracle_and_objective_grads_match(
            lambda t: score_matching_loss(model, t, x),
            score_matching_objective(model, x), theta)


@pytest.mark.parametrize("kind", (GAUSSIAN, RING, LOGNORMAL))
def test_score_matching_objective_matches_reference(kind):
    model = make(kind)
    rng = rng_from(33, kind)
    x = model.sample(random_theta(model, rng), 80, rng_from(34, kind))
    objective = score_matching_objective(model, x)
    for _ in range(4):
        theta = random_theta(model, rng)
        value, grad, _ = objective(theta)
        ref_value, ref_grad = score_matching_loss(model, theta, x)
        assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)


def test_nce_gradient_finite_differences():
    for kind in (GAUSSIAN, ICA, RING, LOGNORMAL):
        model = make(kind)
        rng = rng_from(37, kind)
        for _ in range(5):
            theta = random_theta(model, rng)
            x = model.sample(theta, 50, rng_from(int(rng.integers(2**31))))
            marginal = fit_marginal(x)
            noise = sample_marginal(marginal, 100, int(rng.integers(2**31)))
            assert_oracle_and_objective_grads_match(
                lambda t: nce_loss(model, t, x, noise, marginal),
                nce_objective(model, x, noise, nce_log_q(marginal, x, noise)),
                np.concatenate([theta, [0.2]]))


# ---------------------------------------------------------------------------
# objective builders agree with the oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_cnce_objective_matches_reference(kind):
    model = make(kind)
    rng = rng_from(41, kind)
    theta = random_theta(model, rng)
    x = random_points(model, theta, rng, m=50)
    noise = make_noise(model, theta, x, 4, 51)
    objective = cnce_objective(model, x, noise)
    value, grad = objective(theta)[:2]
    ref_value, ref_grad = oracles.cnce_loss(model, theta, x, noise)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_cnce_loss_matches_oracle_value(kind):
    # the value the noise-scale ladder reads on each rung
    model = make(kind)
    rng = rng_from(42, kind)
    theta = random_theta(model, rng)
    x = random_points(model, theta, rng, m=60)
    noise = make_noise(model, theta, x, 3, 52)
    value = cnce_loss(model, theta, x, noise)
    assert type(value) is float
    assert value == pytest.approx(oracles.cnce_loss(model, theta, x, noise)[0], rel=1e-13)


def test_ica_cnce_objective_standard_error():
    # 2 std(sp) / sqrt(m) over the m softplus rows, at the first point the
    # objective is called at, and unchanged by later calls
    model = make(ICA)
    rng = rng_from(47)
    theta = model.random_params(rng)
    x = model.sample(theta, 60, rng_from(48))
    noise = make_noise(model, theta, x, 3, 49)
    objective = cnce_objective(model, x, noise)
    y = noise.reshape(-1, 4)
    g = np.repeat(model.log_phi(theta, x), 3) - model.log_phi(theta, y)
    sp = np.logaddexp(0.0, -g)
    value, _, se = objective(theta)
    assert value == pytest.approx(2.0 * np.mean(sp), rel=1e-12)
    assert se == pytest.approx(2.0 * np.std(sp) / np.sqrt(len(sp)), rel=1e-12)
    assert objective(theta + 0.1)[2] == se


def test_ica_nce_objective_standard_error():
    # (m / n) std(sp) / sqrt(m) over the m = n + noise softplus rows
    model, theta, x, noise, marginal = nce_problem(ICA)
    n, c = len(x), 0.3
    log_nu = np.log(len(noise) // n)
    hx = model.log_phi(theta, x) + c - log_density_marginal(marginal, x) - log_nu
    hy = (model.log_phi(theta, noise) + c - log_density_marginal(marginal, noise)
          - log_nu)
    sp = np.concatenate([np.logaddexp(0.0, -hx), np.logaddexp(0.0, hy)])
    objective = nce_objective(model, x, noise, nce_log_q(marginal, x, noise))
    theta_c = np.concatenate([theta, [c]])
    value, _, se = objective(theta_c)
    assert value == pytest.approx(np.sum(sp) / n, rel=1e-12)
    assert se == pytest.approx(len(sp) / n * np.std(sp) / np.sqrt(len(sp)), rel=1e-12)
    assert objective(theta_c + 0.1)[2] == se


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
    objective = nce_objective(model, x, noise, nce_log_q(marginal, x, noise))
    theta_c = np.concatenate([theta, [0.3]])
    value, grad = objective(theta_c)[:2]
    ref_value, ref_grad = nce_loss(model, theta_c, x, noise, marginal)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert np.allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)


def assert_objectives_agree(full, kept, points, scale):
    """full(theta) and scale * kept(theta) agree in value, gradient and
    Gram matrix at each point."""
    for z in points:
        (v, g, h), (vk, gk, hk) = full(z), kept(z)
        assert v == pytest.approx(scale * vk, rel=1e-13)
        np.testing.assert_allclose(g, scale * gk, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h(), scale * hk(), rtol=1e-12, atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lognormal_noise_where_phi_is_zero_adds_nothing():
    # log phi = -inf at u <= 0: a CNCE pair or an NCE noise row there is
    # +inf and its softplus, weight and curvature are exactly 0, so each
    # objective equals the one built without those points
    model = make(LOGNORMAL)
    x = model.sample(np.array([1.3]), 40, rng_from(71))
    thetas = [np.array([t]) for t in (0.4, 1.3, 3.0)]

    # CNCE: the kept pairs, one per row of a kappa = 1 objective, whose
    # 2 / rows scale the factor kept / all restores
    noise = make_noise(model, None, x, 3, 72)
    noise[:3, 0, 0] = (-0.8, 0.0, -1e-3)
    y = noise.reshape(-1, 1)
    kept = y[:, 0] > 0
    assert 3 <= np.sum(~kept) < len(y)
    full = cnce_objective(model, x, noise)
    assert_objectives_agree(
        full, cnce_objective(model, np.repeat(x, 3, axis=0)[kept], y[kept][:, None]),
        thetas, np.sum(kept) / len(y))
    for theta in thetas:
        value = cnce_loss(model, theta, x, noise)  # the ladder's, from log phi
        assert np.isfinite(value)
        assert value == pytest.approx(full(theta)[0], rel=1e-13)

    # NCE: 80 positive noise points, and 40 more at u <= 0 among them; the
    # kept objective's nu is 2, not 3, which a shift of c by log(2 / 3)
    # makes up
    marginal = fit_marginal(x)
    draws = sample_marginal(marginal, 400, 73)
    positive = draws[draws[:, 0] > 0][:80]
    off = -np.abs(draws[:40])
    off[:2, 0] = (0.0, -1e-300)
    noise = rng_from(74).permutation(np.concatenate([positive, off]))
    kept_noise = noise[noise[:, 0] > 0]
    assert len(kept_noise) == 80
    full = nce_objective(model, x, noise, nce_log_q(marginal, x, noise))
    kept = nce_objective(model, x, kept_noise, nce_log_q(marginal, x, kept_noise))
    shift = np.log(2.0) - np.log(3.0)
    assert_objectives_agree(full, lambda z: kept(z + [0.0, shift]),
                            [np.append(theta, 0.3) for theta in thetas], 1.0)
    for theta in thetas:
        # NCE's start value of c: -log mean phi / q, where phi = 0 adds 0
        c = nce_log_normaliser(model, theta, noise, log_density_marginal(marginal, noise))
        assert np.isfinite(c)
        c_kept = nce_log_normaliser(model, theta, kept_noise,
                                    log_density_marginal(marginal, kept_noise))
        assert c == pytest.approx(c_kept - shift, rel=1e-13)


@pytest.mark.parametrize("kind", NCE_KINDS)
def test_nce_objective_evaluates_noise_density_only_at_build(kind, monkeypatch):
    # the builder takes log q as values: an NCE cell evaluates it once per
    # point of [x; noise], before the objective is built, and shares it
    # between the objective's offsets and c's start
    import cnce.experiments

    calls, built = [], []

    def counted(marginal, u):
        calls.append(len(u))
        return log_density_marginal(marginal, u)

    build = cnce.experiments.nce_objective

    def recorded_build(*args):
        built.append(len(calls))
        return build(*args)

    monkeypatch.setattr(cnce.experiments, "log_density_marginal", counted)
    monkeypatch.setattr(cnce.experiments, "nce_objective", recorded_build)
    cfg = ExperimentConfig(model=make(kind), methods=("nce",), n_grid=(200,),
                           kappa_grid=(2,), repeats=1,
                           optimizer=OptimizerConfig(max_iters=5))
    run_single(cfg, "nce", 200, 2, 0)
    assert built == [len(calls)]
    assert sum(calls) == 200 * (1 + 2)


def test_objectives_reject_models_without_a_route():
    class Opaque(RingModel):
        features = _Model.features  # the base's: log phi is not affine

    x = make(RING).sample(np.array([2.0]), 20, rng_from(46))
    with pytest.raises(UnsupportedModelError):
        cnce_objective(Opaque(), x, make_noise(make(RING), None, x, 2, 47))
    model = make(BERNOULLI)
    x = model.sample(np.log([0.4, 0.6]), 20, rng_from(48))
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 40, 49)
    with pytest.raises(UnsupportedModelError):
        nce_objective(model, x, noise, nce_log_q(marginal, x, noise))


class _LocationRows:
    """Rows -|a - theta| + |b - theta|, b absent over a single stack."""

    def __init__(self, a, b=None):
        self.a, self.b = a, b
        self.offset = np.zeros(len(a))

    def value(self, raw, out):
        self.theta = raw[0]
        out[:] = -np.abs(self.a - raw[0])
        if self.b is not None:
            out += np.abs(self.b - raw[0])
        out += self.offset

    def vjp(self, w):
        g = w @ np.sign(self.a - self.theta)
        if self.b is not None:
            g -= w @ np.sign(self.b - self.theta)
        return np.array([g])


class _LaplaceLocation(_Model):
    """1-d Laplace location model, log phi = -|u - theta|: not affine, and
    stated only through the model protocol, with its own d log phi / d theta
    for the oracles."""

    methods = ("cnce", "nce")
    affine = False

    def log_phi(self, theta, U):
        return -np.abs(np.asarray(U, dtype=float).reshape(-1) - theta[0])

    @staticmethod
    def grad_theta(model, theta, U):
        return np.sign(np.asarray(U, dtype=float).reshape(-1) - theta[0])[:, None]

    def rows(self, U):
        return _LocationRows(U.reshape(-1))

    def pair_rows(self, x, y, kappa):
        return _LocationRows(np.repeat(x.reshape(-1), kappa), y.reshape(-1))


def test_objectives_take_any_model_that_states_its_rows():
    model = _LaplaceLocation()
    x = 0.4 + rng_from(71).laplace(size=(200, 1))
    pairs = sample_conditional(model.kernel.for_data(0.5, x), x, 3, 72)
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 400, 73)
    for theta in (np.array([0.1]), np.array([0.7])):
        value, grad, se = cnce_objective(model, x, pairs)(theta)
        ref_value, ref_grad = oracles.cnce_loss(model, theta, x, pairs, model.grad_theta)
        assert np.ndim(se) == 0 and se > 0
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
        full = np.append(theta, 0.3)
        objective = nce_objective(model, x, noise, nce_log_q(marginal, x, noise))
        value, grad, se = objective(full)
        ref_value, ref_grad = nce_loss(model, full, x, noise, marginal, model.grad_theta)
        assert np.ndim(se) == 0 and se > 0
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# NCE value identities
# ---------------------------------------------------------------------------

class _MarginalAsModel:
    """Test double whose unnormalised density equals the marginal pdf, so the
    classifier is exactly indifferent at c = 0."""

    def __init__(self, marginal, dim):
        self.marginal = marginal
        self.param_count = dim * (dim + 1) // 2  # a Gaussian's

    def log_phi(self, theta, U):
        return log_density_marginal(self.marginal, U)

    @staticmethod
    def grad_theta(model, theta, U):
        return np.zeros((len(U), model.param_count))


def test_nce_indifferent_classifier_value():
    x = rng_from(47).standard_normal((500, 3))
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 500, 48)  # nu = 1
    model = _MarginalAsModel(marginal, 3)
    value, _ = nce_loss(model, np.zeros(7), x, noise, marginal, model.grad_theta)
    assert value == pytest.approx(TWO_LOG2, rel=1e-14)


def test_nce_prefers_truth_at_scale():
    model = make(GAUSSIAN)
    theta = model.pack(np.eye(5) * 2.0)
    x = model.sample(theta, 20_000, rng_from(49))
    marginal = fit_marginal(x)
    noise = sample_marginal(marginal, 20_000, 50)
    # true log-normaliser of exp(-u'Lu/2): log[(2 pi)^{d/2} det(L)^{-1/2}]
    c_true = -(0.5 * 5 * np.log(2 * np.pi) - 0.5 * np.linalg.slogdet(2 * np.eye(5))[1])
    objective = nce_objective(model, x, noise, nce_log_q(marginal, x, noise))
    at_truth = objective(np.concatenate([theta, [c_true]]))[0]
    at_perturbed = objective(np.concatenate([theta + 0.3, [c_true]]))[0]
    assert at_truth < at_perturbed


def test_nce_noise_count_multiple():
    model = make(GAUSSIAN)
    x = rng_from(51).standard_normal((10, 5))
    marginal = fit_marginal(x)
    with pytest.raises(ParameterError):
        nce_objective(model, x, np.zeros((15, 5)),
                      nce_log_q(marginal, x, np.zeros((15, 5))))


@pytest.mark.parametrize("spread", [1.0, 1.5])
def test_nce_log_normaliser_matches_the_gaussian_log_partition(spread):
    # -log mean phi/q over exact draws from q estimates -log Z, and the
    # Gaussian's log Z = (d/2) log 2 pi - (1/2) log det Lam is closed-form;
    # the tolerance is the estimate's standard error, from weights that
    # scipy's density gives.  Spread 1 fits q to the model, 1.5 widens it
    model = make(GAUSSIAN)
    theta = model.random_params(rng_from(55))
    lam = model.unpack(theta)
    marginal = fit_marginal(spread * model.sample(theta, 5_000, rng_from(56)))
    noise = sample_marginal(marginal, 100_000, 57)
    log_z = 0.5 * (5 * np.log(2 * np.pi) - np.linalg.slogdet(lam)[1])
    log_w = (-0.5 * np.einsum("ij,jk,ik->i", noise, lam, noise)
             - multivariate_normal(marginal.mean, marginal.covariance).logpdf(noise))
    w = np.exp(log_w - log_w.max())
    se = float(np.std(w) / np.mean(w)) / np.sqrt(len(w))
    assert se < 0.01
    log_q = log_density_marginal(marginal, noise)
    assert abs(nce_log_normaliser(model, theta, noise, log_q) + log_z) < 4 * se


def test_nce_log_normaliser_shifts_before_exp():
    # phi times e^{-1000} or e^{1000}: a plain mean of exp(log phi - log q)
    # under- or overflows
    model = make(GAUSSIAN)
    theta = model.random_params(rng_from(58))
    marginal = fit_marginal(model.sample(theta, 500, rng_from(59)))
    noise = sample_marginal(marginal, 2_000, 60)
    log_q = log_density_marginal(marginal, noise)
    base = nce_log_normaliser(model, theta, noise, log_q)

    class Scaled(GaussianPrecisionModel):
        def log_phi(self, theta, U):
            return super().log_phi(theta, U) + shift

    for shift in (-1000.0, 1000.0):
        assert nce_log_normaliser(Scaled(5), theta, noise, log_q) == \
            pytest.approx(base - shift, abs=1e-9)


# ---------------------------------------------------------------------------
# score matching values
# ---------------------------------------------------------------------------

def test_score_matching_gaussian_1d_formula():
    model = make(GAUSSIAN, dim=1)
    x = rng_from(53).standard_normal((100_000, 1))
    value = score_matching_objective(model, x)(np.array([1.0]))[0]
    assert value == pytest.approx(-1.0 + 0.5 * np.mean(x**2), rel=1e-12)
    assert value == pytest.approx(-0.5, abs=0.01)


def test_score_matching_single_point_identity():
    model = make(GAUSSIAN)
    objective = score_matching_objective(model, np.zeros((1, 5)))
    assert objective(model.pack(np.eye(5)))[0] == -5.0


def test_score_matching_1d_minimiser():
    x = rng_from(54).standard_normal((50_000, 1)) * 1.7
    model = make(GAUSSIAN, dim=1)
    m2 = float(np.mean(x**2))
    lam_star = 1.0 / m2  # solves d/dlambda [-lambda + lambda^2 m2 / 2] = 0
    grid = np.linspace(0.1, 3.0, 2_000)
    objective = score_matching_objective(model, x)
    vals = [objective(np.array([g]))[0] for g in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(lam_star, abs=2e-3)


def test_score_matching_unsupported():
    with pytest.raises(UnsupportedModelError):
        score_matching_objective(make(ICA), np.ones((3, 4)))


# ---------------------------------------------------------------------------
# MLE baselines
# ---------------------------------------------------------------------------

def test_mle_gaussian_closed_form():
    model = make(GAUSSIAN)
    x = model.sample(model.random_params(rng_from(57)), 500, rng_from(58))
    res = mle_fit(model, x)
    s = x.T @ x / len(x)
    assert np.allclose(model.unpack(res.theta), np.linalg.inv(s))
    assert (res.stop, res.converged, res.iters) == ("closed_form", True, 0)
    assert np.all(np.linalg.eigvalsh(model.unpack(res.theta)) > 0)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_mle_gaussian_refuses_fewer_points_than_dims(n):
    # x'x / n has rank n < 5: at n = 4 its inverse read ~1e16, and at 2 and
    # 3 the inverse failed the symmetry check of pack instead
    model = make(GAUSSIAN)
    x = model.sample(model.random_params(rng_from(60)), n, rng_from(61))
    with pytest.raises(SingularityError, match="n >= dim"):
        model.mle(x)


def test_mle_gaussian_refuses_a_singular_second_moment():
    # as many points as dims or more, but all in a hyperplane
    model = make(GAUSSIAN)
    x = model.sample(model.random_params(rng_from(62)), 50, rng_from(63))
    x[:, 2] = 0.0
    with pytest.raises(SingularityError, match="singular"):
        model.mle(x)


def test_mle_gaussian_at_as_many_points_as_dims():
    model = make(GAUSSIAN)
    x = model.sample(model.random_params(rng_from(64)), model.dim, rng_from(65))
    lam = model.unpack(model.mle(x))
    assert np.array_equal(lam, model.unpack(model.pack(np.linalg.inv(x.T @ x / len(x)))))
    assert np.all(np.linalg.eigvalsh(lam) > 0)


def test_mle_bernoulli_frequencies():
    model = make(BERNOULLI)
    x = np.array([1.0] * 70 + [0.0] * 30)[:, None]
    res = mle_fit(model, x)
    assert np.allclose(res.theta, np.log([0.3, 0.7]))


@pytest.mark.parametrize("bit", (0.0, 1.0))
def test_mle_bernoulli_single_valued_data(bit):
    # the value the data never take gets log-weight -inf, without the
    # RuntimeWarning of log(0) (an error under this suite's filter), and the
    # error is the distance of the frequencies from the truth
    model = make(BERNOULLI)
    res = mle_fit(model, np.full((40, 1), bit))
    assert np.array_equal(res.theta, [0.0, -np.inf] if bit == 0.0 else [-np.inf, 0.0])
    err = estimation_error(model, res.theta, np.log([0.3, 0.7]))
    assert err == pytest.approx(np.hypot(1.0 - bit - 0.3, bit - 0.7), rel=1e-14)


def test_mle_lognormal_closed_form():
    model = make(LOGNORMAL)
    theta = np.array([1.6])
    x = model.sample(theta, 100_000, rng_from(59))
    res = mle_fit(model, x)
    assert res.theta[0] == pytest.approx(1.0 / np.mean(np.log(x[:, 0]) ** 2),
                                             rel=1e-12)
    assert res.theta[0] == pytest.approx(1.6, rel=0.05)


def test_mle_ica_recovers_demixing():
    model = make(ICA)
    theta = model.random_params(rng_from(61))
    x = model.sample(theta, 20_000, rng_from(62))
    res = mle_fit(model, x, rng_seed=63)
    from cnce import estimation_error

    assert estimation_error(model, res.theta, theta) < 0.15
    assert res.iters > 0
    assert (res.stop, res.converged) == ("stat_tol", True)


def test_ica_mle_objective_standard_error():
    model = make(ICA)
    theta = model.random_params(rng_from(64))
    x = model.sample(theta, 300, rng_from(65))
    l1 = np.abs(x @ model.unpack(theta).T).sum(axis=1)
    objective = ica_mle_objective(model, x)
    _, _, se = objective(theta)
    assert se == pytest.approx(np.sqrt(2.0) * np.std(l1) / np.sqrt(len(x)), rel=1e-12)
    assert objective(theta + 0.1)[2] == se


def test_ica_mle_objective_is_infinite_at_a_singular_demixing_matrix():
    # log|det B| is -inf at a singular B: the value is inf, and a fit that
    # starts there stops at once and hands its start back
    model = make(ICA)
    x = model.sample(model.random_params(rng_from(73)), 100, rng_from(74))
    objective = ica_mle_objective(model, x)
    singular = np.ones(model.param_count)  # every row of B the same
    assert objective(singular)[0] == np.inf
    run = minimize(objective, singular, OptimizerConfig())
    assert (run.stop, run.converged, run.iters) == ("nonfinite", False, 0)
    assert np.array_equal(run.theta, singular)


def test_ica_mle_objective_oracle_value_and_finite_differences():
    # value: -mean log_phi - log|det B| + (d/2) log 2, and the same as the
    # negative mean log-density of x = B^{-1} s with unit-variance Laplace
    # sources (scipy); gradient: central finite differences away from kinks
    from scipy.stats import laplace

    model = make(ICA)
    d = model.dim
    x = model.sample(model.random_params(rng_from(69)), 400, rng_from(70))
    objective = ica_mle_objective(model, x)
    for seed in (71, 72):
        theta = model.random_params(rng_from(seed))
        b = model.unpack(theta)
        logdet = np.linalg.slogdet(b)[1]
        value, grad, _ = objective(theta)
        expected = -np.mean(model.log_phi(theta, x)) - logdet + 0.5 * d * np.log(2.0)
        assert value == pytest.approx(expected, rel=1e-12)
        density = logdet + laplace.logpdf(x @ b.T, scale=1 / np.sqrt(2.0)).sum(axis=1)
        assert value == pytest.approx(-np.mean(density), rel=1e-12)
        h = 1e-6
        assert np.min(np.abs(x @ b.T)) > h * np.max(np.abs(x))  # no sign flips within h
        fd = np.array([(objective(theta + h * e)[0] - objective(theta - h * e)[0]) / (2 * h)
                       for e in np.eye(d * d)])
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_ica_mle_objective_whitening_invariance():
    # loss_x(B) = loss_{x C^{-1/2}}(B C^{1/2}) + (1/2) log det C, C = x'x/n,
    # and the gradients map as G = G~ C^{1/2}; both checked against central
    # finite differences of loss_x
    model = make(ICA)
    d = model.dim
    theta = model.random_params(rng_from(66))
    x = model.sample(theta, 500, rng_from(67))
    evals, evecs = np.linalg.eigh(x.T @ x / len(x))
    c_half = (evecs * np.sqrt(evals)) @ evecs.T
    c_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    plain = ica_mle_objective(model, x)
    white = ica_mle_objective(model, x @ c_inv_half)
    b = model.unpack(theta) + 0.3 * rng_from(68).standard_normal((d, d))
    value, grad, _ = plain(b.reshape(-1))
    w_value, w_grad, _ = white((b @ c_half).reshape(-1))
    assert value == pytest.approx(w_value + 0.5 * np.sum(np.log(evals)), rel=1e-12)
    mapped = (w_grad.reshape(d, d) @ c_half).reshape(-1)
    assert np.allclose(grad, mapped, rtol=1e-9, atol=1e-12)
    h = 1e-6
    assert np.min(np.abs(x @ b.T)) > h * np.max(np.abs(x))  # no sign flips within h
    fd = np.array([(plain(b.reshape(-1) + h * e)[0] - plain(b.reshape(-1) - h * e)[0])
                   / (2 * h) for e in np.eye(d * d)])
    assert np.allclose(fd, grad, rtol=1e-5, atol=1e-7)
    assert np.allclose(fd, mapped, rtol=1e-5, atol=1e-7)


def test_mle_ring_unsupported():
    with pytest.raises(UnsupportedModelError):
        mle_fit(make(RING), np.ones((10, 5)))


# ---------------------------------------------------------------------------
# exact Bernoulli population loss
# ---------------------------------------------------------------------------

def test_population_loss_scale_invariant():
    # an offset added to the log-weights, dyadic so that G is exact
    t, truth = np.array([-0.875, 0.125]), np.log([0.3, 0.7])
    base = bernoulli_population_loss(t, truth, 0.2)[0]
    assert bernoulli_population_loss(t + 0.5, truth, 0.2)[0] == base
    assert bernoulli_population_loss(t, truth + 3.0, 0.2)[0] == pytest.approx(base, rel=1e-15)


def test_population_loss_symmetric_truth():
    # equal true weights: grid minimum sits at the symmetric point
    grid = np.linspace(0.01, 0.99, 981)
    vals = [bernoulli_population_loss(np.log([t, 1 - t]), np.zeros(2), 0.3)[0]
            for t in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(0.5, abs=1e-6)


def test_population_loss_grid_oracle():
    # brute-force grids over normalised weight p, step 1e-2 and then 1e-4
    # around the coarse minimum: the minimiser is the truth at every flip
    # probability in (0, 1], the top of the flip kernel's ladder included
    def argmin(grid, truth, eps):
        vals = [bernoulli_population_loss(np.log([p, 1 - p]), truth, eps)[0] for p in grid]
        return grid[int(np.argmin(vals))]

    for p_true in (0.3, 0.85):
        truth = np.log([p_true, 1 - p_true])
        for eps in (0.2, 0.6, 1.0):
            coarse = argmin(np.arange(0.01, 0.99 + 1e-12, 1e-2), truth, eps)
            fine = argmin(np.arange(coarse - 0.02, coarse + 0.02 + 1e-12, 1e-4), truth, eps)
            assert fine == pytest.approx(p_true, abs=1e-4)


def test_population_loss_epsilon_domain():
    equal = np.zeros(2)
    for bad in (0.0, -0.1, 1.0 + 1e-12, float("nan")):
        with pytest.raises(ParameterError):
            bernoulli_population_loss(equal, equal, bad)
    # at eps = 1 every pair differs: the loss is 2 softplus(0) = 2 log 2 at G = 0
    assert bernoulli_population_loss(equal, equal, 1.0)[0] == pytest.approx(TWO_LOG2, rel=1e-15)


def test_bernoulli_cnce_objective_tends_to_the_population_loss():
    # 40 000 draws: the empirical loss and its gradient lie within a few
    # sampling standard errors (~0.003) of the exact population ones
    model = make(BERNOULLI)
    truth = np.log([0.3, 0.7])
    x = model.sample(truth, 40_000, rng_from(81))
    noise = sample_conditional(model.kernel.for_data(0.3, x), x, 5, 82)
    objective = cnce_objective(model, x, noise)
    for theta in (truth, np.array([0.2, -0.4])):
        value, grad = objective(theta)[:2]
        pop_value, pop_grad = bernoulli_population_loss(theta, truth, 0.3)
        assert value == pytest.approx(pop_value, abs=0.01)
        assert np.allclose(grad, pop_grad, rtol=0, atol=0.01)


def test_population_loss_at_truth_value():
    # at G = theta1 - theta2, the four-term sum reduces to the stated closed form
    truth = np.log([0.3, 0.7])
    eps = 0.2
    val = bernoulli_population_loss(truth, truth, eps)[0]
    g = np.log(0.3) - np.log(0.7)
    expect = 2 * (1 - eps) * np.log(2) + 2 * eps * (
        0.3 * np.log1p(np.exp(-g)) + 0.7 * np.log1p(np.exp(g)))
    assert val == pytest.approx(expect, rel=1e-15)
