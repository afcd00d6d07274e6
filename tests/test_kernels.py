"""Noise kernels: sampling moments, log-ratio structure, marginal fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from cnce import (
    BernoulliFlipKernel,
    GaussianPerturbKernel,
    ParameterError,
    build_model,
    default_spec,
    fit_marginal,
    kernel_for_data,
    log_density_marginal,
    log_ratio,
    sample_conditional,
    sample_marginal,
)
from cnce.kernels import NoisePairing, kernel_class
from cnce.models import RING
from cnce.seeding import rng_from


def pairing_at_data(x: np.ndarray, kappa: int = 1) -> NoisePairing:
    """Degenerate pairing with y_ij = x_i (the eps = 0 identity check)."""
    x = np.asarray(x, dtype=float)
    noise = np.repeat(x[:, None, :], kappa, axis=1)
    return NoisePairing(noise=noise, kappa=kappa, log_ratio=np.zeros((len(x), kappa)))


class ShiftedGaussianKernel:
    """Asymmetric test double: pc(y|x) = N(y; x + delta, eps^2). Exercises
    the log-ratio path that the symmetric built-ins short-circuit."""

    kind = "shifted_gaussian"
    symmetric = False

    def __init__(self, delta, eps):
        self.delta = delta
        self.eps = eps

    def sample(self, x, kappa, rng):
        n, dim = x.shape
        return x[:, None, :] + self.delta + self.eps * rng.standard_normal((n, kappa, dim))

    def log_ratio_pairs(self, x, noise):
        # log pc(y|x) - log pc(x|y), densities evaluated per coordinate
        d1 = noise - x[:, None, :] - self.delta
        d2 = x[:, None, :] - noise - self.delta
        return (-(d1**2) + d2**2).sum(axis=2) / (2 * self.eps**2)


# ---------------------------------------------------------------------------
# conditional sampling
# ---------------------------------------------------------------------------

def test_gaussian_perturb_variance():
    x = rng_from(1).standard_normal((10_000, 5))
    pairing = sample_conditional(GaussianPerturbKernel(np.full(5, 0.5)), x, 1, 42)
    diff = pairing.noise[:, 0, :] - x
    assert np.allclose(diff.var(axis=0), 0.25, rtol=0.03)
    assert np.array_equal(pairing.log_ratio, np.zeros((10_000, 1)))


def test_gaussian_perturb_image_scale_check():
    # mean ||y - x||^2 / D ~ eps^2 for the patch-like noise of the figures
    x = rng_from(2).standard_normal((5_000, 64))
    pairing = sample_conditional(GaussianPerturbKernel(np.full(64, 0.75)), x, 1, 43)
    ms = np.mean(np.sum((pairing.noise[:, 0, :] - x) ** 2, axis=1)) / 64
    assert ms == pytest.approx(0.75**2, rel=0.03)


def test_bernoulli_flip_probability():
    x = np.ones((100_000, 1))
    pairing = sample_conditional(BernoulliFlipKernel(0.2), x, 1, 44)
    assert np.mean(pairing.noise[:, 0, 0] == 0.0) == pytest.approx(0.2, abs=0.005)


def test_sample_conditional_deterministic():
    x = rng_from(3).standard_normal((50, 5))
    k = GaussianPerturbKernel(np.full(5, 0.3))
    a = sample_conditional(k, x, 4, 123)
    b = sample_conditional(k, x, 4, 123)
    assert np.array_equal(a.noise, b.noise)
    c = sample_conditional(k, x, 4, 124)
    assert not np.array_equal(a.noise, c.noise)


def test_sample_conditional_rejects_degenerate():
    x = np.zeros((10, 2))
    with pytest.raises(ParameterError):
        sample_conditional(GaussianPerturbKernel(np.zeros(2)), x, 1, 0)
    with pytest.raises(ParameterError):
        sample_conditional(GaussianPerturbKernel(np.ones(2)), x, 0, 0)


def test_kernel_validation():
    with pytest.raises(ParameterError):
        BernoulliFlipKernel(1.5)
    with pytest.raises(ParameterError):
        GaussianPerturbKernel([-0.1])
    with pytest.raises(ParameterError):
        kernel_for_data("nope", 0.5, np.zeros((5, 2)))
    with pytest.raises(ParameterError):
        kernel_class("nope")


def test_kernel_class_states_its_epsilon_cap():
    assert kernel_class("bernoulli_flip") is BernoulliFlipKernel
    assert BernoulliFlipKernel.epsilon_cap == 1.0  # a flip probability
    assert kernel_class("gaussian_perturb").epsilon_cap is None


def test_kernel_for_data_per_dim_scaling():
    rng = rng_from(5)
    x = rng.standard_normal((20_000, 3)) * np.array([1.0, 2.0, 4.0])
    k = kernel_for_data("gaussian_perturb", 0.5, x)
    assert np.allclose(k.epsilon, 0.5 * x.std(axis=0))


def test_pairing_at_data_is_identity():
    x = rng_from(6).standard_normal((30, 4))
    pairing = pairing_at_data(x, kappa=3)
    assert np.array_equal(pairing.noise[:, 2, :], x)


def test_pairing_shape_validation():
    with pytest.raises(ParameterError):
        NoisePairing(noise=np.zeros((5, 2, 3)), kappa=2, log_ratio=np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# log ratios
# ---------------------------------------------------------------------------

def test_log_ratio_symmetric_is_exactly_zero():
    assert log_ratio(GaussianPerturbKernel([0.5]), [1.2], [9.9]) == 0.0
    assert log_ratio(BernoulliFlipKernel(0.2), [0.0], [1.0]) == 0.0


def test_log_ratio_shifted_kernel_against_norm_logpdf():
    delta, eps, u1, u2 = 0.3, 0.7, 0.2, -0.5
    kern = ShiftedGaussianKernel(delta, eps)
    got = log_ratio(kern, [u1], [u2])
    oracle = norm.logpdf(u2, loc=u1 + delta, scale=eps) - norm.logpdf(
        u1, loc=u2 + delta, scale=eps)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(2 * delta * (u2 - u1) / eps**2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 2), st.floats(-1, 1))
def test_log_ratio_antisymmetry(u1, u2, eps, delta):
    kern = ShiftedGaussianKernel(delta, eps)
    assert log_ratio(kern, [u1], [u2]) == pytest.approx(
        -log_ratio(kern, [u2], [u1]), rel=1e-9, abs=1e-12)


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


def test_fit_marginal_needs_enough_points():
    with pytest.raises(ParameterError):
        fit_marginal(np.zeros((3, 5)))


def test_ring_marginal_concentrates_inside_shell():
    # manifold data: the moment-matched noise oversamples the shell interior
    model = build_model(default_spec(RING))
    gamma = 25.0
    x = model.sample(np.array([gamma]), 20_000, rng_from(11))
    k = fit_marginal(x)
    y = sample_marginal(k, 20_000, 78)
    cut = 4.0 - 2.0 / np.sqrt(gamma)
    frac_noise = np.mean(np.linalg.norm(y, axis=1) < cut)
    frac_data = np.mean(np.linalg.norm(x, axis=1) < cut)
    assert frac_noise >= 10 * max(frac_data, 1e-4)
