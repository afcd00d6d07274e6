"""Model zoo: frozen values, finite-difference gradients, sampler moments,
structural invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cnce import (
    DomainError,
    ModelSpec,
    ParameterError,
    SingularityError,
    UnsupportedModelError,
    build_model,
    default_spec,
)
from cnce.models import (
    BERNOULLI,
    GAUSSIAN,
    ICA,
    KINDS,
    LOGNORMAL,
    RING,
)
from cnce.seeding import rng_from

SMOOTH = (GAUSSIAN, RING, LOGNORMAL)


def make(kind, **kw):
    return build_model(default_spec(kind), **kw)


def random_theta(model, rng):
    return model.random_params(rng)


def random_points(model, theta, rng, m=6):
    kind = model.spec.kind
    if kind == BERNOULLI:
        return (rng.random(m) < 0.5).astype(float)[:, None]
    if kind == LOGNORMAL:
        return np.exp(rng.standard_normal(m))[:, None]
    return rng.standard_normal((m, model.spec.dim)) + 0.5


# ---------------------------------------------------------------------------
# spec / packing
# ---------------------------------------------------------------------------

def test_param_counts():
    assert ModelSpec(GAUSSIAN, 5).param_count == 15
    assert ModelSpec(ICA, 4).param_count == 16
    assert ModelSpec(RING, 5).param_count == 1
    assert ModelSpec(LOGNORMAL, 1).param_count == 2
    assert ModelSpec(BERNOULLI, 1).param_count == 2


def test_spec_validation():
    with pytest.raises(ParameterError):
        ModelSpec("nope", 3)
    with pytest.raises(ParameterError):
        ModelSpec(GAUSSIAN, 0)
    with pytest.raises(ParameterError):
        ModelSpec(BERNOULLI, 2)


def test_gaussian_pack_roundtrip():
    model = make(GAUSSIAN)
    rng = rng_from(1)
    lam = model.unpack(model.random_params(rng))
    assert np.allclose(lam, lam.T)
    assert np.array_equal(model.unpack(model.pack(lam)), lam)


# ---------------------------------------------------------------------------
# log_phi frozen examples
# ---------------------------------------------------------------------------

def test_log_phi_gaussian_identity_at_origin():
    model = make(GAUSSIAN)
    assert model.log_phi(model.pack(np.eye(5)), np.zeros(5))[0] == 0.0


def test_log_phi_ring_on_shell():
    model = build_model(ModelSpec(RING, 5), mu=2.0)
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
    theta = np.array([1.3, -2.0])
    assert model.log_phi(theta, np.array([-0.5]))[0] == -2.0
    assert model.log_phi(theta, np.array([0.0]))[0] == -2.0
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


# ---------------------------------------------------------------------------
# parameter gradients
# ---------------------------------------------------------------------------

def test_grad_theta_gaussian_1d():
    model = build_model(ModelSpec(GAUSSIAN, 1))
    g = model.grad_theta(np.array([1.0]), np.array([[2.0]]))
    assert g[0, 0] == -2.0  # d/dlambda of -u^2 lambda / 2


def test_grad_theta_ring_zero_on_shell():
    model = make(RING)
    u = np.array([4.0, 0, 0, 0, 0])
    assert model.grad_theta(np.array([2.0]), u)[0, 0] == 0.0


def fd_grad_theta(model, theta, u, h=1e-6):
    g = np.zeros(model.spec.param_count)
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
        analytic = model.grad_theta(theta, u)[0]
        numeric = fd_grad_theta(model, theta, u[0])
        denom = max(1.0, float(np.linalg.norm(analytic)))
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6
        checked += 1


def test_ica_grad_rows_are_signed_inputs():
    model = make(ICA)
    u = np.array([1.0, -1.0, 1.0, -1.0])
    g = model.grad_theta(model.pack(np.eye(4)), u)[0].reshape(4, 4)
    for j in range(4):
        assert np.allclose(g[j], -np.sqrt(2) * np.sign(u[j]) * u)


@pytest.mark.parametrize("kind", KINDS)
def test_rows_match_log_phi_and_its_gradient(kind):
    # value + offset is log phi (or its pair difference); vjp is the
    # gradient of sum_r w_r row_r
    model = make(kind)
    rng = rng_from(63, kind)
    theta = random_theta(model, rng)
    x = random_points(model, theta, rng, m=12)
    y = random_points(model, theta, rng, m=36)
    cases = [(model.rows(y), model.log_phi(theta, y), [y], [1.0]),
             (model.pair_rows(x, y, 3),
              np.repeat(model.log_phi(theta, x), 3) - model.log_phi(theta, y),
              [np.repeat(x, 3, axis=0), y], [1.0, -1.0])]
    for rows, expected, stacks, signs in cases:
        out = np.empty(len(y))
        rows.value(theta, out)
        assert np.allclose(out + rows.offset, expected, rtol=1e-12, atol=1e-12)
        w = rng.standard_normal(len(y))
        got = rows.vjp(w)
        grad = sum(sign * (w @ model.grad_theta(theta, u))
                   for u, sign in zip(stacks, signs))
        assert np.allclose(got, grad, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# point gradients / laplacians
# ---------------------------------------------------------------------------

def test_grad_u_gaussian_identity():
    model = make(GAUSSIAN)
    theta = model.pack(np.eye(5))
    u = np.array([1.0, 0, 0, 0, 0])
    assert np.array_equal(model.grad_u(theta, u)[0], -u)
    assert model.laplacian_u(theta, u)[0] == -5.0


def test_grad_u_ring_2d():
    model = build_model(ModelSpec(RING, 2), mu=1.0)
    g = model.grad_u(np.array([1.0]), np.array([2.0, 0.0]))[0]
    assert g == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_grad_u_lognormal_at_one():
    model = make(LOGNORMAL)
    g = model.grad_u(np.array([1.0, -5.0]), np.array([1.0]))[0, 0]
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
        grad = model.grad_u(theta, u[None, :])[0]
        lap = model.laplacian_u(theta, u[None, :])[0]
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
    # grad_u / laplacian_u are checked against log_phi above and share no
    # code with score_quadratic
    model = make(kind)
    rng = rng_from(17, kind)
    x = model.sample(random_theta(model, rng), 300, rng_from(18, kind))
    a, b, c = model.score_quadratic(x)
    p = model.spec.param_count
    assert a.shape == (p, p) and b.shape == (p,)
    assert np.array_equal(a, a.T)
    for _ in range(6):
        theta = random_theta(model, rng) * rng.uniform(0.2, 3.0, p)
        grad_u = model.grad_u(theta, x)
        loss = np.mean(model.laplacian_u(theta, x) + 0.5 * np.sum(grad_u**2, axis=1))
        quad = 0.5 * theta @ a @ theta + b @ theta + c
        assert quad == pytest.approx(loss, rel=1e-10, abs=1e-12)


def test_score_quadratic_unsupported_and_singular():
    with pytest.raises(UnsupportedModelError):
        make(ICA).score_quadratic(np.ones((3, 4)))
    with pytest.raises(UnsupportedModelError):
        make(BERNOULLI).score_quadratic(np.ones((3, 1)))
    with pytest.raises(SingularityError):
        make(RING).score_quadratic(np.vstack([np.ones(5), np.zeros(5)]))
    with pytest.raises(DomainError):
        make(LOGNORMAL).score_quadratic(np.array([[1.0], [0.0]]))


def test_grad_u_unsupported_and_singular():
    with pytest.raises(UnsupportedModelError):
        make(ICA).grad_u(make(ICA).random_params(rng_from(0)), np.ones(4))
    with pytest.raises(UnsupportedModelError):
        make(BERNOULLI).laplacian_u(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(SingularityError):
        make(RING).grad_u(np.array([1.0]), np.zeros(5))
    with pytest.raises(DomainError):
        make(LOGNORMAL).grad_u(np.array([1.0, -5.0]), np.array([-1.0]))


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
    minimiser -A^+ b of ``score_quadratic`` is a consistent estimator that
    shares no maths with the sampler.  Over 16 x 25 000 draws, the mean of
    the 16 estimates must lie within 5 of their standard errors of theta in
    every identified coordinate (log-normal's C is not identified)."""
    model = make(kind)
    if kind == GAUSSIAN:
        theta = model.random_params(rng_from(3))
    else:
        theta = np.array([param] if kind == RING else [param, -5.0])
    estimates = []
    for k in range(16):
        x = model.sample(theta, 25_000, rng_from(200 + k, kind))
        a, b, _ = model.score_quadratic(x)
        estimates.append(-np.linalg.pinv(a) @ b)
    identified = np.diag(a) > 0
    estimates = np.array(estimates)[:, identified]
    se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
    assert np.all(np.abs(estimates.mean(axis=0) - theta[identified]) < 5 * se)


def test_ring_sampler_positive_radius():
    model = build_model(ModelSpec(RING, 3), mu=1.0)
    x = model.sample(np.array([1.0]), 20_000, rng_from(8))
    assert np.all(np.linalg.norm(x, axis=1) > 0)


def test_bernoulli_sampler_frequency():
    model = make(BERNOULLI)
    x = model.sample(np.log([0.3, 0.7]), 100_000, rng_from(9))
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert abs(x.mean() - 0.7) < 0.01


def test_lognormal_sampler_positive_and_log_moments():
    model = make(LOGNORMAL)
    theta = np.array([2.0, -5.0])
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

