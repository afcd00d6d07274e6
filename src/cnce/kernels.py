"""Conditional noise kernels for CNCE and the moment-matched marginal noise
used by the NCE baseline.

Each built-in conditional kernel splits its sampler in two: ``draw`` makes
the noise-scale-free random part from the generator, ``perturb`` turns it
into noise points at the kernel's scale, and ``sample`` is
``perturb(x, draw(x, kappa, rng))``.  A scan over noise scales draws once
and perturbs per scale, getting the same points as ``sample`` with the same
generator at every scale.

Both built-in conditional kernels are symmetric, so their log-ratio
log pc(u2|u1) - log pc(u1|u2) is identically zero and is returned as the
constant 0 rather than computed from two log-densities.  Asymmetric kernels
(used as test doubles) implement ``log_ratio_pairs`` themselves; antisymmetry
is the only structural requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError
from .seeding import rng_from


@dataclass(frozen=True)
class NoisePairing:
    """kappa conditional noise points per data point plus the cached
    log-ratio log pc(y_ij|x_i) - log pc(x_i|y_ij)."""

    noise: np.ndarray  # (n, kappa, dim)
    kappa: int
    log_ratio: np.ndarray  # (n, kappa)

    def __post_init__(self):
        if self.noise.ndim != 3 or self.noise.shape[:2] != self.log_ratio.shape:
            raise ParameterError("noise / log_ratio shapes disagree")
        if not np.all(np.isfinite(self.log_ratio)):
            raise ParameterError("non-finite log ratio")


class GaussianPerturbKernel:
    """y = x + eps * xi with xi standard normal; eps is a per-dimension
    standard-deviation vector (absolute units)."""

    kind = "gaussian_perturb"
    symmetric = True

    def __init__(self, epsilon):
        eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
        if np.any(eps < 0) or not np.all(np.isfinite(eps)):
            raise ParameterError("epsilon components must be finite and >= 0")
        self.epsilon = eps

    def draw(self, x: np.ndarray, kappa: int, rng: np.random.Generator) -> np.ndarray:
        """The scale-free part of the noise: standard-normal xi."""
        return rng.standard_normal((len(x), kappa, x.shape[1]))

    def perturb(self, x: np.ndarray, base: np.ndarray) -> np.ndarray:
        if np.any(self.epsilon == 0):
            raise ParameterError("epsilon = 0 is degenerate for sampling")
        return x[:, None, :] + self.epsilon * base

    def sample(self, x: np.ndarray, kappa: int, rng: np.random.Generator) -> np.ndarray:
        return self.perturb(x, self.draw(x, kappa, rng))

    def log_ratio_pairs(self, x, noise):
        return np.zeros(noise.shape[:2])


class BernoulliFlipKernel:
    """Bit flip with probability eps, eps in [0, 1]; symmetric for all eps."""

    kind = "bernoulli_flip"
    symmetric = True

    def __init__(self, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ParameterError("flip probability must lie in [0, 1]")
        self.epsilon = float(epsilon)

    def draw(self, x: np.ndarray, kappa: int, rng: np.random.Generator) -> np.ndarray:
        """The scale-free part of the noise: uniforms on [0, 1), one per bit;
        a bit flips where its uniform falls below eps."""
        if not np.all((x == 0.0) | (x == 1.0)):
            raise DomainError("flip kernel needs {0,1} data")
        return rng.random((len(x), kappa, x.shape[1]))

    def perturb(self, x: np.ndarray, base: np.ndarray) -> np.ndarray:
        return np.where(base < self.epsilon, 1.0 - x[:, None, :], x[:, None, :])

    def sample(self, x: np.ndarray, kappa: int, rng: np.random.Generator) -> np.ndarray:
        return self.perturb(x, self.draw(x, kappa, rng))

    def log_ratio_pairs(self, x, noise):
        return np.zeros(noise.shape[:2])


def kernel_for_data(kind: str, epsilon: float, x: np.ndarray, per_dim: bool = True):
    """Build a conditional kernel for a data set from a global noise scale.

    For ``gaussian_perturb`` the global scale is interpreted in units of the
    per-dimension empirical standard deviation when ``per_dim`` is set (the
    data themselves are never rescaled).  For ``bernoulli_flip`` the scale is
    the flip probability.
    """
    if kind == "gaussian_perturb":
        if per_dim:
            stds = np.asarray(x, dtype=float).std(axis=0)
            if np.any(stds == 0):
                raise ParameterError("degenerate data dimension (zero std)")
            return GaussianPerturbKernel(epsilon * stds)
        return GaussianPerturbKernel(np.full(x.shape[1], epsilon))
    if kind == "bernoulli_flip":
        return BernoulliFlipKernel(epsilon)
    raise ParameterError(f"unknown kernel kind {kind!r}")


def sample_conditional(kernel, x: np.ndarray, kappa: int, rng_seed: int) -> NoisePairing:
    """Draw kappa noise points per data point and cache the log-ratios."""
    if kappa < 1:
        raise ParameterError("kappa must be >= 1")
    x = np.asarray(x, dtype=float)
    return pair_noise(kernel, x, kernel.sample(x, kappa, rng_from(rng_seed)))


def pair_noise(kernel, x: np.ndarray, noise: np.ndarray) -> NoisePairing:
    """Pairing of (n, kappa, dim) noise drawn from kernel around x, with the
    log-ratios cached."""
    if getattr(kernel, "symmetric", False):
        ratios = np.zeros(noise.shape[:2])
    else:
        ratios = kernel.log_ratio_pairs(x, noise)
    return NoisePairing(noise=noise, kappa=noise.shape[1], log_ratio=ratios)


def pairing_at_data(x: np.ndarray, kappa: int = 1) -> NoisePairing:
    """Degenerate pairing with y_ij = x_i (the eps = 0 identity check)."""
    x = np.asarray(x, dtype=float)
    noise = np.repeat(x[:, None, :], kappa, axis=1)
    return NoisePairing(noise=noise, kappa=kappa, log_ratio=np.zeros((len(x), kappa)))


def log_ratio(kernel, u1, u2) -> float:
    """log pc(u2|u1) - log pc(u1|u2) for a single pair of points."""
    if getattr(kernel, "symmetric", False):
        return 0.0
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    u2 = np.atleast_1d(np.asarray(u2, dtype=float))
    return float(kernel.log_ratio_pairs(u1[None, :], u2[None, None, :])[0, 0])


@dataclass(frozen=True)
class MarginalKernel:
    """Moment-matched Gaussian marginal noise for the NCE baseline."""

    mean: np.ndarray
    covariance: np.ndarray
    _chol: np.ndarray = field(repr=False, default=None)
    _precision: np.ndarray = field(repr=False, default=None)
    _log_norm: float = field(repr=False, default=0.0)

    kind = "gaussian_moment_matched"


def fit_marginal(x: np.ndarray) -> MarginalKernel:
    """Gaussian fit to the sample mean and covariance (tiny jitter keeps the
    near-singular directions of manifold data invertible)."""
    x = np.asarray(x, dtype=float)
    n, dim = x.shape
    if n < dim + 1:
        raise ParameterError("need at least dim + 1 points for a covariance fit")
    mean = x.mean(axis=0)
    cov = np.cov(x.T, bias=True).reshape(dim, dim) + 1e-9 * np.eye(dim)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ParameterError("covariance singular after jitter") from exc
    log_norm = -0.5 * (dim * np.log(2 * np.pi) + 2 * np.sum(np.log(np.diag(chol))))
    return MarginalKernel(
        mean=mean,
        covariance=cov,
        _chol=chol,
        _precision=np.linalg.inv(cov),
        _log_norm=log_norm,
    )


def sample_marginal(kernel: MarginalKernel, m: int, rng_seed: int) -> np.ndarray:
    rng = rng_from(rng_seed)
    z = rng.standard_normal((m, len(kernel.mean)))
    return kernel.mean + z @ kernel._chol.T


def log_density_marginal(kernel: MarginalKernel, U) -> np.ndarray:
    """Exact normalised Gaussian log-density."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    d = U - kernel.mean
    return kernel._log_norm - 0.5 * np.einsum("ij,jk,ik->i", d, kernel._precision, d)
