"""Noise kernels: sampling moments, the draw/perturb split, marginal fits."""

import numpy as np
import pytest

from cnce import (
    BernoulliFlipKernel,
    DomainError,
    GaussianPerturbKernel,
    MarginalKernel,
    ParameterError,
    cnce_loss,
    fit_marginal,
    log_density_marginal,
    sample_conditional,
    sample_marginal,
)
from cnce.losses import cnce_objective
from cnce.models import GAUSSIAN, RING
from cnce.seeding import rng_from

from test_models import make


def pairing_at_data(x: np.ndarray, kappa: int = 1) -> np.ndarray:
    """Degenerate noise with y_ij = x_i (the eps = 0 identity check)."""
    x = np.asarray(x, dtype=float)
    return np.repeat(x[:, None, :], kappa, axis=1)


# ---------------------------------------------------------------------------
# conditional sampling
# ---------------------------------------------------------------------------

def test_gaussian_perturb_variance():
    x = rng_from(1).standard_normal((10_000, 5))
    noise = sample_conditional(GaussianPerturbKernel(np.full(5, 0.5)), x, 1, 42)
    assert noise.shape == (10_000, 1, 5)
    diff = noise[:, 0, :] - x
    assert np.allclose(diff.var(axis=0), 0.25, rtol=0.03)


def test_gaussian_perturb_image_scale_check():
    # mean ||y - x||^2 / D ~ eps^2 for the patch-like noise of the figures
    x = rng_from(2).standard_normal((5_000, 64))
    noise = sample_conditional(GaussianPerturbKernel(np.full(64, 0.75)), x, 1, 43)
    ms = np.mean(np.sum((noise[:, 0, :] - x) ** 2, axis=1)) / 64
    assert ms == pytest.approx(0.75**2, rel=0.03)


def test_bernoulli_flip_probability():
    x = np.ones((100_000, 1))
    noise = sample_conditional(BernoulliFlipKernel(0.2), x, 1, 44)
    assert np.mean(noise[:, 0, 0] == 0.0) == pytest.approx(0.2, abs=0.005)


def test_builtin_kernels_are_symmetric():
    """pc(y|x) = pc(x|y), which lets CNCE drop the kernel term of G: the
    Gaussian step y - x is centred and unskewed wherever x lies, and a bit
    flips as often from 0 as from 1."""
    x = np.repeat(np.array([[-3.0, 0.0], [5.0, 1.0]]), 50_000, axis=0)
    steps = sample_conditional(GaussianPerturbKernel([0.5, 2.0]), x, 2, 45) - x[:, None, :]
    for half in np.split(steps, 2):
        z = half.reshape(-1, 2) / np.array([0.5, 2.0])
        assert np.all(np.abs(z.mean(axis=0)) < 5 / np.sqrt(len(z)))
        assert np.all(np.abs((z**3).mean(axis=0)) < 5 * np.sqrt(15 / len(z)))
    bits = np.repeat(np.array([[0.0], [1.0]]), 50_000, axis=0)
    flipped = sample_conditional(BernoulliFlipKernel(0.3), bits, 2, 46) != bits[:, None, :]
    from_zero, from_one = (half.mean() for half in np.split(flipped, 2))
    assert abs(from_zero - from_one) < 5 * np.sqrt(2 * 0.3 * 0.7 / 100_000)


def test_sample_conditional_deterministic():
    x = rng_from(3).standard_normal((50, 5))
    k = GaussianPerturbKernel(np.full(5, 0.3))
    a = sample_conditional(k, x, 4, 123)
    b = sample_conditional(k, x, 4, 123)
    assert np.array_equal(a, b)
    c = sample_conditional(k, x, 4, 124)
    assert not np.array_equal(a, c)


def test_sample_conditional_rejects_degenerate():
    x = np.zeros((10, 2))
    with pytest.raises(ParameterError):
        sample_conditional(GaussianPerturbKernel(np.zeros(2)), x, 1, 0)
    with pytest.raises(ParameterError):
        sample_conditional(GaussianPerturbKernel(np.ones(2)), x, 0, 0)
    # a constant data column gives the per-dimension scale nothing to scale by
    with pytest.raises(ParameterError, match="zero std"):
        GaussianPerturbKernel.for_data(0.5, np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(DomainError, match="flip kernel needs"):
        sample_conditional(BernoulliFlipKernel(0.2), np.array([[0.0], [0.5]]), 1, 0)


def test_kernel_validation():
    with pytest.raises(ParameterError):
        BernoulliFlipKernel(1.5)
    # a zero scale is rejected once, when the kernel is built
    for eps in ([-0.1], [0.5, 0.0], [np.nan]):
        with pytest.raises(ParameterError):
            GaussianPerturbKernel(eps)


def test_kernel_class_states_its_epsilon_cap():
    assert BernoulliFlipKernel.epsilon_cap == 1.0  # a flip probability
    assert GaussianPerturbKernel.epsilon_cap is None
    assert make("bernoulli").kernel is BernoulliFlipKernel
    assert make(GAUSSIAN).kernel is GaussianPerturbKernel


def test_kernel_for_data_per_dim_scaling():
    rng = rng_from(5)
    x = rng.standard_normal((20_000, 3)) * np.array([1.0, 2.0, 4.0])
    k = GaussianPerturbKernel.for_data(0.5, x)
    assert np.allclose(k.epsilon, 0.5 * x.std(axis=0))


def test_pairing_at_data_is_identity():
    x = rng_from(6).standard_normal((30, 4))
    noise = pairing_at_data(x, kappa=3)
    assert np.array_equal(noise[:, 2, :], x)


def test_pairing_shape_validation():
    """Caller-supplied noise must be (n, kappa, dim) around the n data."""
    model = make(GAUSSIAN)
    x = rng_from(7).standard_normal((5, 5))
    theta = model.pack(np.eye(5))
    cnce_loss(model, theta, x, pairing_at_data(x, kappa=2))
    for bad in (np.zeros((5, 10)), np.zeros((4, 2, 5)), np.zeros((5, 2, 5, 1))):
        with pytest.raises(ParameterError):
            cnce_loss(model, theta, x, bad)
        with pytest.raises(ParameterError):
            cnce_objective(model, x, bad)


# ---------------------------------------------------------------------------
# moment-matched marginal
# ---------------------------------------------------------------------------

def test_fit_marginal_matches_moments():
    x = rng_from(8).standard_normal((100_000, 5))
    k = fit_marginal(x)
    assert np.all(np.abs(k.mean) < 0.02)
    assert np.allclose(k.covariance, np.cov(x.T, bias=True) + 1e-9 * np.eye(5))


def test_marginal_log_density_at_mean():
    x = rng_from(9).standard_normal((200_000, 5))
    k = fit_marginal(x)
    # unit covariance fit: log pdf at the mean is -(5/2) log(2 pi)
    assert log_density_marginal(k, k.mean)[0] == pytest.approx(-4.5946926660234, abs=2e-3)


def test_marginal_density_integrates_like_gaussian():
    x = rng_from(10).standard_normal((5_000, 2)) * np.array([0.5, 2.0])
    k = fit_marginal(x)
    samples = sample_marginal(k, 50_000, 77)
    assert np.allclose(samples.mean(axis=0), k.mean, atol=0.05)
    assert np.allclose(np.cov(samples.T, bias=True), k.covariance, atol=0.06)


def test_marginal_log_density_bits_do_not_depend_on_memory_layout():
    x = rng_from(12).standard_normal((400, 5)) @ rng_from(13).standard_normal((5, 5))
    k = fit_marginal(x)
    u = sample_marginal(k, 257, 14)
    assert np.array_equal(log_density_marginal(k, np.ascontiguousarray(u)),
                          log_density_marginal(k, np.asfortranarray(u)))


def test_marginal_kernel_built_from_its_moments_matches_the_fit():
    # the public constructor derives the factors that fit_marginal's kernel
    # uses: the same noise and densities, bit for bit
    x = rng_from(15).standard_normal((300, 3)) @ rng_from(16).standard_normal((3, 3))
    fit = fit_marginal(x)
    direct = MarginalKernel(mean=fit.mean.copy(), covariance=fit.covariance.copy())
    noise = sample_marginal(direct, 100, 17)
    assert np.array_equal(noise, sample_marginal(fit, 100, 17))
    assert np.array_equal(log_density_marginal(direct, noise),
                          log_density_marginal(fit, noise))
    plain = MarginalKernel(mean=np.zeros(2), covariance=np.eye(2))
    assert log_density_marginal(plain, np.zeros(2))[0] == pytest.approx(-np.log(2 * np.pi))
    assert sample_marginal(plain, 5, 18).shape == (5, 2)
    for cov in (np.diag([1.0, -1.0]), np.eye(3)):
        with pytest.raises(ParameterError):
            MarginalKernel(mean=np.zeros(2), covariance=cov)


def test_marginal_kernels_compare_by_identity():
    a = MarginalKernel(mean=np.zeros(2), covariance=np.eye(2))
    b = MarginalKernel(mean=np.zeros(2), covariance=np.eye(2))
    assert a != b and a == a
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_fit_marginal_needs_enough_points():
    with pytest.raises(ParameterError):
        fit_marginal(np.zeros((3, 5)))


def test_ring_marginal_concentrates_inside_shell():
    # manifold data: the moment-matched noise oversamples the shell interior
    model = make(RING)
    gamma = 25.0
    x = model.sample(np.array([gamma]), 20_000, rng_from(11))
    k = fit_marginal(x)
    y = sample_marginal(k, 20_000, 78)
    cut = 4.0 - 2.0 / np.sqrt(gamma)
    frac_noise = np.mean(np.linalg.norm(y, axis=1) < cut)
    frac_data = np.mean(np.linalg.norm(x, axis=1) < cut)
    assert frac_noise >= 10 * max(frac_data, 1e-4)
