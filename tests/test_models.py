"""Model zoo: frozen values, finite-difference gradients, sampler moments,
structural invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cnce import (
    BernoulliModel,
    DomainError,
    GaussianPrecisionModel,
    IcaLaplaceModel,
    LogNormalExtModel,
    ParameterError,
    RingModel,
    SingularityError,
    UnsupportedModelError,
)
from cnce.losses import _NceRows
from cnce.models import (
    _CLASSES,
    BERNOULLI,
    GAUSSIAN,
    ICA,
    KINDS,
    LOGNORMAL,
    RING,
)
from cnce.seeding import rng_from

from oracles import grad_theta, grad_u, laplacian_u

SMOOTH = (GAUSSIAN, RING, LOGNORMAL)


def make(kind, **fields):
    return _CLASSES[kind](**fields)


def random_theta(model, rng):
    return model.random_params(rng)


def random_points(model, theta, rng, m=6):
    kind = model.kind
    if kind == BERNOULLI:
        return (rng.random(m) < 0.5).astype(float)[:, None]
    if kind == LOGNORMAL:
        return np.exp(rng.standard_normal(m))[:, None]
    return rng.standard_normal((m, model.dim)) + 0.5


# ---------------------------------------------------------------------------
# config fields / packing
# ---------------------------------------------------------------------------

def test_param_counts():
    assert GaussianPrecisionModel(5).param_count == 15
    assert IcaLaplaceModel(4).param_count == 16
    assert RingModel(5).param_count == 1
    assert LogNormalExtModel(1).param_count == 1
    assert BernoulliModel(1).param_count == 2
    # each class states its kind, and the class defaults are the paper's
    assert [(kind, cls.kind, cls().dim) for kind, cls in _CLASSES.items()] == [
        (GAUSSIAN, GAUSSIAN, 5), (ICA, ICA, 4), (RING, RING, 5),
        (LOGNORMAL, LOGNORMAL, 1), (BERNOULLI, BERNOULLI, 1)]
    assert list(_CLASSES) == list(KINDS)


def test_spec_validation():
    # a model is its own spec: its fields are checked when it is built
    for cls, dim in ((GaussianPrecisionModel, 0), (IcaLaplaceModel, 0),
                     (RingModel, 1), (LogNormalExtModel, 2), (BernoulliModel, 2)):
        with pytest.raises(ParameterError, match="model needs dim"):
            cls(dim)
    with pytest.raises(ParameterError, match="dim must be an integer"):
        GaussianPrecisionModel(2.5)
    with pytest.raises(ParameterError, match="mu must be a finite real number"):
        RingModel(mu="4")
    assert RingModel(2, 3) == RingModel(dim=2.0, mu=3) != RingModel(2, 3.5)
    assert type(RingModel(2, 3).mu) is float and type(RingModel(2.0).dim) is int
    with pytest.raises(AttributeError):
        RingModel().mu = 1.0  # frozen


def test_large_gaussian_builds_in_quadratic_memory():
    # a config is validated by building its model: no (p, d, d) stack, p =
    # d(d + 1)/2, which at dim 200 would ask ~6.4 GB
    dim = 200
    model = GaussianPrecisionModel(dim)
    for value in vars(model).values():
        for array in (value if isinstance(value, tuple) else (value,)):
            assert np.size(array) <= dim * dim


def test_gaussian_pack_roundtrip():
    model = make(GAUSSIAN)
    rng = rng_from(1)
    lam = model.unpack(model.random_params(rng))
    assert np.allclose(lam, lam.T)
    assert np.array_equal(model.unpack(model.pack(lam)), lam)
    with pytest.raises(ParameterError, match="must equal its transpose"):
        model.pack(np.triu(lam))
    with pytest.raises(ParameterError, match="theta must have 15 entries"):
        model.unpack(np.ones(14))


# ---------------------------------------------------------------------------
# log_phi frozen examples
# ---------------------------------------------------------------------------

def test_log_phi_gaussian_identity_at_origin():
    model = make(GAUSSIAN)
    assert model.log_phi(model.pack(np.eye(5)), np.zeros(5))[0] == 0.0


def test_log_phi_ring_on_shell():
    model = make(RING, dim=5, mu=2.0)
    u = np.array([2.0, 0, 0, 0, 0])
    assert model.log_phi(np.array([3.0]), u)[0] == 0.0


def test_log_phi_ica_identity_mixing():
    model = make(ICA)
    val = model.log_phi(model.pack(np.eye(4)), np.ones(4))[0]
    # -4 sqrt(2), high-precision scalar oracle
    assert val == pytest.approx(-5.6568542494923802, rel=1e-14)


def test_log_phi_bernoulli_table():
    model = make(BERNOULLI)
    theta = np.log([0.3, 0.7])
    assert model.log_phi(theta, np.array([1.0]))[0] == np.log(0.7)
    assert model.log_phi(theta, np.array([0.0]))[0] == np.log(0.3)


def test_log_phi_lognormal_branches():
    model = make(LOGNORMAL)
    theta = np.array([1.3])
    # phi = 0 off the positive axis, zero included
    assert model.log_phi(theta, np.array([-0.5]))[0] == -np.inf
    assert model.log_phi(theta, np.array([0.0]))[0] == -np.inf
    u = 1.7
    expect = -0.65 * np.log(u) ** 2 - np.log(u)
    assert model.log_phi(theta, np.array([u]))[0] == pytest.approx(expect, rel=1e-15)


def test_domain_errors():
    model = make(BERNOULLI)
    with pytest.raises(DomainError):
        model.log_phi(np.array([0.3, 0.7]), np.array([0.5]))
    with pytest.raises(DomainError):
        make(GAUSSIAN).log_phi(make(GAUSSIAN).pack(np.eye(5)),
                               np.array([np.nan, 0, 0, 0, 0]))
    # a bare number is one point of a one-dimensional model, and of no other
    lognormal = make(LOGNORMAL)
    assert lognormal.log_phi([1.3], 1.7) == lognormal.log_phi([1.3], [[1.7]])
    for U in (1.7, np.ones(4), np.ones((2, 6))):
        with pytest.raises(DomainError, match="points must have dimension 5"):
            make(GAUSSIAN).log_phi(make(GAUSSIAN).pack(np.eye(5)), U)


# ---------------------------------------------------------------------------
# parameter gradients (``oracles.grad_theta``, the reference of every
# loss gradient in test_losses)
# ---------------------------------------------------------------------------

def test_grad_theta_gaussian_1d():
    model = make(GAUSSIAN, dim=1)
    g = grad_theta(model, np.array([1.0]), np.array([[2.0]]))
    assert g[0, 0] == -2.0  # d/dlambda of -u^2 lambda / 2


def test_grad_theta_ring_zero_on_shell():
    model = make(RING)
    u = np.array([4.0, 0, 0, 0, 0])
    assert grad_theta(model, np.array([2.0]), u)[0, 0] == 0.0


def fd_grad_theta(model, theta, u, h=1e-6):
    g = np.zeros(model.param_count)
    for k in range(len(g)):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        g[k] = (model.log_phi(tp, u)[0] - model.log_phi(tm, u)[0]) / (2 * h)
    return g


@pytest.mark.parametrize("kind", KINDS)
def test_grad_theta_matches_finite_differences(kind):
    model = make(kind)
    rng = rng_from(11, kind)
    checked = 0
    while checked < 100:
        theta = random_theta(model, rng)
        u = random_points(model, theta, rng, m=1)
        if kind == ICA:
            if np.min(np.abs(u @ model.unpack(theta).T)) < 1e-3:
                continue  # stay away from subgradient kinks
        analytic = grad_theta(model, theta, u)[0]
        numeric = fd_grad_theta(model, theta, u[0])
        denom = max(1.0, float(np.linalg.norm(analytic)))
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6
        checked += 1


def test_ica_grad_rows_are_signed_inputs():
    model = make(ICA)
    u = np.array([1.0, -1.0, 1.0, -1.0])
    g = grad_theta(model, model.pack(np.eye(4)), u)[0].reshape(4, 4)
    for j in range(4):
        assert np.allclose(g[j], -np.sqrt(2) * np.sign(u[j]) * u)


def with_lognormal_zeros(model, y):
    """y, with the log-normal's first points moved to where phi = 0: below
    zero and exactly at it (log phi = -inf, a +inf pair row)."""
    if model.kind == LOGNORMAL:
        y = y.copy()
        y[:3, 0] = (-1.5, -1e-3, 0.0)
    return y


@pytest.mark.parametrize("kind", KINDS)
def test_rows_match_log_phi_and_its_gradient(kind):
    # value is log phi (or its pair difference); vjp is the
    # gradient of sum_r w_r row_r
    model = make(kind)
    rng = rng_from(63, kind)
    theta = random_theta(model, rng)
    x = random_points(model, theta, rng, m=12)
    y = with_lognormal_zeros(model, random_points(model, theta, rng, m=36))
    cases = [(model.rows(y), model.log_phi(theta, y), [y], [1.0]),
             (model.pair_rows(x, y, 3),
              np.repeat(model.log_phi(theta, x), 3) - model.log_phi(theta, y),
              [np.repeat(x, 3, axis=0), y], [1.0, -1.0])]
    for rows, expected, stacks, signs in cases:
        out = np.empty(len(y))
        rows.value(theta, out)
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)
        w = rng.standard_normal(len(y))
        got = rows.vjp(w)
        grad = sum(sign * (w @ grad_theta(model, theta, u))
                   for u, sign in zip(stacks, signs))
        assert np.allclose(got, grad, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", [k for k in KINDS if "nce" in _CLASSES[k].methods])
def test_nce_rows_add_the_c_column_and_the_row_signs(kind):
    # over u = [x; noise] and (theta, c): value is s (log phi + c), with s
    # = +1 on the n data rows and -1 on the rest; the c column is s, so vjp
    # appends sum_r w_r s_r and gram is the Gram matrix of the bordered rows
    model = make(kind)
    rng = rng_from(65, kind)
    theta = random_theta(model, rng)
    n = 12
    u = np.concatenate([random_points(model, theta, rng, m=n),
                        with_lognormal_zeros(model, random_points(model, theta, rng, m=36))])
    c = 0.7
    rows = _NceRows(model.rows(u), n)
    s = np.where(np.arange(len(u)) < n, 1.0, -1.0)
    out = np.empty(len(u))
    rows.value(np.append(theta, c), out)
    assert np.allclose(out, s * (model.log_phi(theta, u) + c), rtol=1e-12, atol=1e-12)
    jac = s[:, None] * np.column_stack([grad_theta(model, theta, u), np.ones(len(u))])
    w = rng.standard_normal(len(u))
    assert np.allclose(rows.vjp(w), w @ jac, rtol=1e-10, atol=1e-12)
    if model.affine:
        curvature = rng.random(len(u))
        assert np.allclose(rows.gram(curvature), jac.T @ (curvature[:, None] * jac),
                           rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", [k for k in KINDS if _CLASSES[k].affine])
def test_affine_rows_are_column_major(kind):
    # the layout their products run fastest on (``models`` docstring)
    model = make(kind)
    rng = rng_from(64, kind)
    theta = random_theta(model, rng)
    x = random_points(model, theta, rng, m=12)
    y = random_points(model, theta, rng, m=36)
    for rows in (model.rows(y), model.pair_rows(x, y, 3)):
        assert rows.phi.shape == (36, model.param_count)
        assert rows.phi.flags.f_contiguous


# ---------------------------------------------------------------------------
# point gradients / laplacians
# ---------------------------------------------------------------------------

def test_grad_u_gaussian_identity():
    model = make(GAUSSIAN)
    theta = model.pack(np.eye(5))
    u = np.array([1.0, 0, 0, 0, 0])
    assert np.array_equal(model.grad_u(theta, u)[0], -u)
    assert np.array_equal(grad_u(model, theta, u)[0], -u)
    assert laplacian_u(model, theta, u)[0] == -5.0


def test_grad_u_ring_2d():
    model = make(RING, dim=2, mu=1.0)
    g = grad_u(model, np.array([1.0]), np.array([2.0, 0.0]))[0]
    assert g == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_grad_u_lognormal_at_one():
    model = make(LOGNORMAL)
    g = grad_u(model, np.array([1.0]), np.array([1.0]))[0, 0]
    assert g == -1.0


@pytest.mark.parametrize("kind", SMOOTH)
def test_grad_u_and_laplacian_match_finite_differences(kind):
    model = make(kind)
    rng = rng_from(13, kind)
    h = 1e-5
    for _ in range(25):
        theta = random_theta(model, rng)
        u = random_points(model, theta, rng, m=1)[0]
        if kind == LOGNORMAL:
            u = np.abs(u) + 0.3
        grad = grad_u(model, theta, u[None, :])[0]
        if kind == GAUSSIAN:  # the one model that keeps grad_u, for limit_check
            assert np.allclose(model.grad_u(theta, u[None, :])[0], grad,
                               rtol=1e-14, atol=1e-14)
        lap = laplacian_u(model, theta, u[None, :])[0]
        fd = np.zeros_like(u)
        fd2 = 0.0
        f0 = model.log_phi(theta, u[None, :])[0]
        for d in range(len(u)):
            up, dn = u.copy(), u.copy()
            up[d] += h
            dn[d] -= h
            fp = model.log_phi(theta, up[None, :])[0]
            fm = model.log_phi(theta, dn[None, :])[0]
            fd[d] = (fp - fm) / (2 * h)
            fd2 += (fp - 2 * f0 + fm) / h**2
        assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad)) < 1e-6
        assert abs(lap - fd2) / max(1.0, abs(lap)) < 1e-4


@pytest.mark.parametrize("kind", SMOOTH)
def test_score_quadratic_matches_grad_u_and_laplacian(kind):
    # the oracle's grad_u and laplacian_u are checked against log_phi above
    # and share no code with score_quadratic
    model = make(kind)
    rng = rng_from(17, kind)
    x = model.sample(random_theta(model, rng), 300, rng_from(18, kind))
    a, b, c = model.score_quadratic(x)
    p = model.param_count
    assert a.shape == (p, p) and b.shape == (p,)
    assert np.array_equal(a, a.T)
    # every parameter is identified: the minimiser -A^{-1} b is unique
    assert np.all(np.linalg.eigvalsh(a) > 0)
    for _ in range(6):
        theta = random_theta(model, rng) * rng.uniform(0.2, 3.0, p)
        score = grad_u(model, theta, x)
        loss = np.mean(laplacian_u(model, theta, x) + 0.5 * np.sum(score**2, axis=1))
        quad = 0.5 * theta @ a @ theta + b @ theta + c
        assert quad == pytest.approx(loss, rel=1e-10, abs=1e-12)


def test_grad_u_unsupported_and_singular():
    # only the Gaussian states grad_u, for limit_check, and it has no
    # singular point; the oracle states it for the smooth kinds alone
    for kind in (ICA, RING, LOGNORMAL, BERNOULLI):
        assert not hasattr(make(kind), "grad_u")
    model = make(GAUSSIAN)
    assert np.array_equal(model.grad_u(model.pack(np.eye(5)), np.zeros(5)),
                          np.zeros((1, 5)))
    for kind in (ICA, BERNOULLI):
        model = make(kind)
        with pytest.raises(KeyError, match="not smooth"):
            grad_u(model, model.random_params(rng_from(0)), np.ones(model.dim))


def test_score_quadratic_unsupported_and_singular():
    with pytest.raises(UnsupportedModelError):
        make(ICA).score_quadratic(np.ones((3, 4)))
    with pytest.raises(UnsupportedModelError):
        make(BERNOULLI).score_quadratic(np.ones((3, 1)))
    with pytest.raises(SingularityError):
        make(RING).score_quadratic(np.vstack([np.ones(5), np.zeros(5)]))
    with pytest.raises(DomainError):
        make(LOGNORMAL).score_quadratic(np.array([[1.0], [0.0]]))


# ---------------------------------------------------------------------------
# samplers (Monte Carlo moment oracles, fixed seeds)
# ---------------------------------------------------------------------------

def test_gaussian_sampler_identity_covariance():
    model = make(GAUSSIAN)
    x = model.sample(model.pack(np.eye(5)), 100_000, rng_from(101))
    s = x.T @ x / len(x)
    assert np.linalg.norm(s - np.eye(5)) < 0.05


def test_gaussian_sampler_recovers_random_precision():
    model = make(GAUSSIAN)
    theta = model.random_params(rng_from(3))
    x = model.sample(theta, 100_000, rng_from(103))
    lam_hat = np.linalg.inv(x.T @ x / len(x))
    assert np.linalg.norm(lam_hat - model.unpack(theta)) < 0.1


def test_gaussian_sampler_rejects_non_pd():
    model = make(GAUSSIAN)
    with pytest.raises(ParameterError):
        model.sample(model.pack(-np.eye(5)), 10, rng_from(0))


@pytest.mark.parametrize("kind,theta,message", [
    (RING, [0.0], "gamma must be positive"), (RING, [-2.0], "gamma must be positive"),
    (LOGNORMAL, [0.0], "theta must be positive"),
    (LOGNORMAL, [-1.0], "theta must be positive")])
def test_samplers_reject_parameters_outside_their_domain(kind, theta, message):
    with pytest.raises(ParameterError, match=message):
        make(kind).sample(np.array(theta), 10, rng_from(0))


def test_ring_sampler_radius_moments():
    """Radius moments against quadrature of the model's radial density
    r^(d-1) exp(-gamma/2 (r - mu)^2), which shares no code with the
    sampler: mean 4.0397 and sd 0.1990 at d = 5, mu = 4, gamma = 25."""
    model = make(RING)
    x = model.sample(np.array([25.0]), 100_000, rng_from(7))
    r = np.linalg.norm(x, axis=1)
    moments = [quad(lambda t, k=k: t**k * t**4 * np.exp(-12.5 * (t - 4.0) ** 2),
                    0.0, 12.0, points=[4.0])[0] for k in range(3)]
    mean = moments[1] / moments[0]
    sd = np.sqrt(moments[2] / moments[0] - mean**2)
    assert (round(mean, 4), round(sd, 4)) == (4.0397, 0.199)
    # 5 standard errors: sd / sqrt(n) for the mean, sd / sqrt(2 n) for the sd
    assert abs(r.mean() - mean) < 5 * sd / np.sqrt(len(r))
    assert abs(r.std() - sd) < 5 * sd / np.sqrt(2 * len(r))


SAMPLER_ORACLE_CASES = [(GAUSSIAN, None), (RING, 1.0), (RING, 3.0), (RING, 10.0),
                        (LOGNORMAL, 1.3)]


@pytest.mark.parametrize("kind,param", SAMPLER_ORACLE_CASES)
def test_sampler_recovers_theta_by_score_matching(kind, param):
    """Oracle for every smooth model's sampler: the score-matching
    minimiser -A^{-1} b of ``score_quadratic`` is a consistent estimator
    that shares no maths with the sampler.  Over 16 x 25 000 draws, the
    mean of the 16 estimates must lie within 5 of their standard errors of
    theta in every coordinate."""
    model = make(kind)
    theta = model.random_params(rng_from(3)) if kind == GAUSSIAN else np.array([param])
    estimates = []
    for k in range(16):
        x = model.sample(theta, 25_000, rng_from(200 + k, kind))
        a, b, _ = model.score_quadratic(x)
        estimates.append(np.linalg.solve(a, -b))
    estimates = np.array(estimates)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
    assert np.all(np.abs(estimates.mean(axis=0) - theta) < 5 * se)


def test_ring_sampler_positive_radius():
    model = make(RING, dim=3, mu=1.0)
    x = model.sample(np.array([1.0]), 20_000, rng_from(8))
    assert np.all(np.linalg.norm(x, axis=1) > 0)


def test_bernoulli_sampler_frequency():
    model = make(BERNOULLI)
    x = model.sample(np.log([0.3, 0.7]), 100_000, rng_from(9))
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert abs(x.mean() - 0.7) < 0.01


def test_lognormal_sampler_positive_and_log_moments():
    model = make(LOGNORMAL)
    theta = np.array([2.0])
    x = model.sample(theta, 100_000, rng_from(10))
    assert np.all(x > 0)
    assert abs(np.mean(np.log(x[:, 0]) ** 2) - 0.5) < 0.01


def test_ica_sampler_unit_source_variance():
    model = make(ICA)
    b = model.unpack(model.random_params(rng_from(12)))
    x = model.sample(model.pack(b), 100_000, rng_from(13))
    s = x @ b.T
    assert np.allclose(s.var(axis=0), 1.0, atol=0.05)
    with pytest.raises(ParameterError):
        model.sample(model.pack(np.zeros((4, 4))), 10, rng_from(0))


# ---------------------------------------------------------------------------
# true-parameter generators
# ---------------------------------------------------------------------------

def test_generate_true_params_invariants():
    rng = rng_from(21)
    gauss = make(GAUSSIAN)
    for _ in range(20):
        lam = gauss.unpack(gauss.random_params(rng))
        assert np.all(np.linalg.eigvalsh(lam) > 0)
    ica = make(ICA)
    for _ in range(20):
        b = ica.unpack(ica.random_params(rng))
        assert np.linalg.svd(b, compute_uv=False)[-1] > 0.1
    ring = make(RING)
    gammas = [ring.random_params(rng)[0] for _ in range(50)]
    assert all(1.0 <= g <= 10.0 for g in gammas)
    bern = make(BERNOULLI)
    for _ in range(20):
        w1, w2 = np.exp(bern.random_params(rng))
        assert 0.1 <= w1 <= 0.9 and w2 == pytest.approx(1.0 - w1)


# ---------------------------------------------------------------------------
# structural invariances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_log_phi_bits_do_not_depend_on_memory_layout(kind):
    # samplers hand out Fortran-ordered points (np.linalg.solve(...).T), and
    # the eps = 0 row of limit_check compares log phi across layouts exactly
    model = make(kind)
    theta = random_theta(model, rng_from(61))
    u = random_points(model, theta, rng_from(62), m=257)
    c, f = np.ascontiguousarray(u), np.asfortranarray(u)
    assert np.array_equal(model.log_phi(theta, c), model.log_phi(theta, f))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**31 - 1))
def test_ica_row_sign_flip_invariance(row, seed):
    model = make(ICA)
    rng = rng_from(seed, "flip")
    b = model.unpack(model.random_params(rng))
    u = rng.standard_normal((5, 4))
    flipped = b.copy()
    flipped[row] = -flipped[row]
    assert np.array_equal(model.log_phi(model.pack(b), u),
                          model.log_phi(model.pack(flipped), u))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ring_rotation_invariance(seed):
    model = make(RING)
    rng = rng_from(seed, "rot")
    theta = model.random_params(rng)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    u = rng.standard_normal((6, 5))
    # rotation preserves the norm up to rounding; values agree to float noise
    assert np.allclose(model.log_phi(theta, u), model.log_phi(theta, u @ q.T),
                       rtol=1e-10, atol=1e-10)

