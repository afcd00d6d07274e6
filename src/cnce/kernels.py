"""Conditional noise kernels for CNCE and the moment-matched marginal noise
used by the NCE baseline.

CNCE's log-odds is G(x, y) = log phi(x)/phi(y) + log pc(y|x)/pc(x|y), and
its second term vanishes for a kernel with pc(y|x) = pc(x|y).  Both
conditional kernels here, Gaussian perturbation and bit flip, have that
property at every scale, so all CNCE takes from a kernel is its noise: an
(n, kappa, dim) array whose [i, j] entry is the j-th noise point of x_i.
A kernel without the property would need the term back in ``losses``.  A
model names its kernel class as ``model.kernel``.

Each kernel splits its sampler in two: ``draw`` makes the scale-free random
part from the generator, and ``perturb`` turns it into noise points at the
kernel's scale.  ``sample_conditional`` is ``perturb(x, draw(x, kappa,
rng))``, and a scan over noise scales (``optimize.adapt_epsilon``) draws
once and perturbs per scale, getting at every scale the points
``sample_conditional`` gives with the same seed, so the scan's noise at the
scale it picks is the noise a fit at that scale takes.  Each kernel class
builds itself for a data set in ``for_data`` and states ``epsilon_cap``, the
end of its scale's range (None: unbounded).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ParameterError
from .seeding import rng_from


class GaussianPerturbKernel:
    """y = x + eps * xi with xi standard normal; eps is a per-dimension
    standard-deviation vector (absolute units)."""

    epsilon_cap = None

    def __init__(self, epsilon):
        eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
        if not np.all(np.isfinite(eps) & (eps > 0)):
            raise ParameterError("epsilon components must be finite and > 0")
        self.epsilon = eps

    def draw(self, x: np.ndarray, kappa: int, rng: np.random.Generator) -> np.ndarray:
        """The scale-free part of the noise: standard-normal xi."""
        return rng.standard_normal((len(x), kappa, x.shape[1]))

    def perturb(self, x: np.ndarray, base: np.ndarray) -> np.ndarray:
        y = self.epsilon * base
        y += x[:, None, :]  # in place: no second full-size array, same bits
        return y

    @classmethod
    def for_data(cls, epsilon: float, x: np.ndarray):
        """eps in units of each dimension's empirical standard deviation."""
        stds = np.asarray(x, dtype=float).std(axis=0)
        if np.any(stds == 0):
            raise ParameterError("degenerate data dimension (zero std)")
        return cls(epsilon * stds)


class BernoulliFlipKernel:
    """Bit flip with probability eps in [0, 1], the same from 0 as from 1."""

    epsilon_cap = 1.0  # a flip probability

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

    @classmethod
    def for_data(cls, epsilon: float, x: np.ndarray):
        return cls(epsilon)


def sample_conditional(kernel, x: np.ndarray, kappa: int, rng_seed: int) -> np.ndarray:
    """kappa noise points per data point, as an (n, kappa, dim) array."""
    if kappa < 1:
        raise ParameterError("kappa must be >= 1")
    x = np.asarray(x, dtype=float)
    return kernel.perturb(x, kernel.draw(x, kappa, rng_from(rng_seed)))


class MarginalKernel:
    """Moment-matched Gaussian marginal noise for the NCE baseline: a
    Gaussian of the given mean and covariance.  A covariance without a
    Cholesky factor raises ``ParameterError``.  Kernels compare and hash by
    identity."""

    def __init__(self, mean, covariance):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.covariance = np.asarray(covariance, dtype=float)
        dim = len(self.mean)
        if self.mean.ndim != 1 or self.covariance.shape != (dim, dim):
            raise ParameterError("need a mean vector and a covariance of its size")
        try:
            self._chol = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("covariance is not positive definite") from exc
        self._precision = np.linalg.inv(self.covariance)
        self._log_norm = -0.5 * (dim * np.log(2 * np.pi)
                                 + 2 * np.sum(np.log(np.diag(self._chol))))


def fit_marginal(x: np.ndarray) -> MarginalKernel:
    """Gaussian fit to the sample mean and covariance (tiny jitter keeps the
    near-singular directions of manifold data invertible)."""
    x = np.asarray(x, dtype=float)
    n, dim = x.shape
    if n < dim + 1:
        raise ParameterError("need at least dim + 1 points for a covariance fit")
    cov = np.cov(x.T, bias=True).reshape(dim, dim) + 1e-9 * np.eye(dim)
    return MarginalKernel(mean=x.mean(axis=0), covariance=cov)


def sample_marginal(kernel: MarginalKernel, m: int, rng_seed: int) -> np.ndarray:
    rng = rng_from(rng_seed)
    z = rng.standard_normal((m, len(kernel.mean)))
    y = z @ kernel._chol.T
    y += kernel.mean  # in place: no second full-size array, same bits
    return y


def log_density_marginal(kernel: MarginalKernel, U) -> np.ndarray:
    """Exact normalised Gaussian log-density."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    # C order, so that the bits do not depend on the caller's layout
    d = np.subtract(U, kernel.mean, order="C")
    return kernel._log_norm - 0.5 * np.einsum("ij,ij->i", d @ kernel._precision, d)
