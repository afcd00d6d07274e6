"""Unnormalised model zoo: log phi(u; theta), analytic gradients, exact data
samplers and random true-parameter generators.

Every model evaluates on batches: ``U`` is an (m, dim) array (a bare (dim,)
vector or, for one-dimensional models, an (m,) array is promoted).  Parameters
are packed into flat vectors; the layout is documented per model in its
``packing`` attribute.  All operations are pure functions of their arguments;
random state is always passed in explicitly.

Where a parameter must stay positive (ring precision, Bernoulli weights,
log-normal precision) the optimiser works in log-space.  ``to_raw`` /
``from_raw`` convert between the natural packing and the unconstrained
representation, and ``chain_raw`` / ``chain_raw_hessian`` carry a gradient /
Hessian taken in natural coordinates over to the raw ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SingularityError, UnsupportedModelError

GAUSSIAN = "gaussian_precision"
ICA = "ica_laplace"
RING = "ring"
LOGNORMAL = "lognormal_ext"
BERNOULLI = "bernoulli"

KINDS = (GAUSSIAN, ICA, RING, LOGNORMAL, BERNOULLI)

_DEFAULT_DIM = {GAUSSIAN: 5, ICA: 4, RING: 5, LOGNORMAL: 1, BERNOULLI: 1}

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ModelSpec:
    """Which model, in which ambient dimension."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.kind in (LOGNORMAL, BERNOULLI) and self.dim != 1:
            raise ParameterError(f"{self.kind} is univariate")
        if self.kind == RING and self.dim < 2:
            raise ParameterError("ring model needs dim >= 2")

    @property
    def param_count(self) -> int:
        return {
            GAUSSIAN: self.dim * (self.dim + 1) // 2,
            ICA: self.dim * self.dim,
            RING: 1,
            LOGNORMAL: 2,
            BERNOULLI: 2,
        }[self.kind]


def default_spec(kind: str) -> ModelSpec:
    return ModelSpec(kind, _DEFAULT_DIM[kind])


def spec_to_json(spec: ModelSpec) -> dict:
    return {"kind": spec.kind, "dim": spec.dim}


def spec_from_json(obj: dict) -> ModelSpec:
    return ModelSpec(str(obj["kind"]), int(obj["dim"]))


def params_to_json(model, theta: np.ndarray) -> dict:
    return {
        "kind": model.spec.kind,
        "dim": model.spec.dim,
        "values": [float(v) for v in np.asarray(theta, dtype=float)],
        "packing": model.packing,
    }


def params_from_json(obj: dict):
    """Returns (model, theta) for a serialised parameter vector."""
    model = build_model(ModelSpec(str(obj["kind"]), int(obj["dim"])))
    theta = np.asarray(obj["values"], dtype=float)
    if theta.shape != (model.spec.param_count,):
        raise ParameterError(
            f"expected {model.spec.param_count} values for {model.spec.kind}, "
            f"got {theta.shape}"
        )
    if "packing" in obj and obj["packing"] != model.packing:
        raise ParameterError(f"packing mismatch: {obj['packing']!r}")
    return model, theta


class _Model:
    """Shared plumbing.  Subclasses fill in the maths."""

    spec: ModelSpec
    packing: str

    # --- parametrisation ---------------------------------------------------
    @property
    def positive_mask(self) -> np.ndarray:
        """Which packed coordinates are constrained positive."""
        return np.zeros(self.spec.param_count, dtype=bool)

    def to_raw(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        mask = self.positive_mask
        if np.any(theta[mask] <= 0):
            raise ParameterError("positive-constrained parameter is <= 0")
        raw = theta.copy()
        raw[mask] = np.log(theta[mask])
        return raw

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        theta = raw.copy()
        mask = self.positive_mask
        theta[mask] = np.exp(raw[mask])
        return theta

    def chain_raw(self, grad_theta: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Gradient in natural coordinates -> gradient in raw coordinates."""
        out = np.asarray(grad_theta, dtype=float).copy()
        mask = self.positive_mask
        out[mask] *= theta[mask]
        return out

    def chain_raw_hessian(self, hess_theta: np.ndarray, grad_theta: np.ndarray,
                          theta: np.ndarray) -> np.ndarray:
        """Hessian in natural coordinates -> Hessian in raw coordinates.

        With theta = exp(z) on the positive coordinates, the Jacobian J is
        diagonal (theta there, 1 elsewhere) and d2theta/dz2 = theta, so the
        raw Hessian is J H J + diag(mask * grad * theta).
        """
        mask = self.positive_mask
        jac = np.where(mask, theta, 1.0)
        out = np.asarray(hess_theta, dtype=float) * jac[:, None] * jac[None, :]
        out[np.diag_indices_from(out)] += np.where(mask, grad_theta * theta, 0.0)
        return out

    def init_raw(self, rng: np.random.Generator, scale: float = 0.3) -> np.ndarray:
        """Random optimiser start: N(0, scale^2) for free coordinates, 0 in
        log-space for positive-constrained ones."""
        raw = scale * rng.standard_normal(self.spec.param_count)
        raw[self.positive_mask] = 0.0
        return raw

    # --- point handling ----------------------------------------------------
    def _as_batch(self, U) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        if U.ndim == 0:
            U = U.reshape(1, 1)
        elif U.ndim == 1:
            U = U[:, None] if self.spec.dim == 1 else U[None, :]
        if U.ndim != 2 or U.shape[1] != self.spec.dim:
            raise DomainError(f"points must have dimension {self.spec.dim}")
        if not np.all(np.isfinite(U)):
            raise DomainError("non-finite point")
        return U

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.spec.param_count,):
            raise ParameterError(
                f"theta must have {self.spec.param_count} entries, got {theta.shape}"
            )
        return theta

    # --- defaults ----------------------------------------------------------
    def theta_features(self, U):
        """(Phi, offset) with log_phi(theta, U) == Phi @ theta + offset, or
        None when log phi is not affine in the packed parameters."""
        return None

    def raw_features(self, U):
        """(Phi, offset) with log_phi(from_raw(z), U) == Phi @ z + offset, or
        None when log phi is not affine in the unconstrained coordinates."""
        return None

    def grad_theta_weighted(self, theta, U, w) -> np.ndarray:
        """w @ grad_theta without materialising the (m, p) matrix when a
        subclass can do better."""
        return np.asarray(w, dtype=float) @ self.grad_theta(theta, U)

    def grad_u(self, theta, U):
        raise UnsupportedModelError(f"grad_u unsupported for {self.spec.kind}")

    def laplacian_u(self, theta, U):
        raise UnsupportedModelError(f"laplacian_u unsupported for {self.spec.kind}")


class GaussianPrecisionModel(_Model):
    """Zero-mean Gaussian with free symmetric precision: log phi = -u'Lu/2.

    Packing: upper triangle of the precision matrix, row-major, diagonal
    included; off-diagonal entries parametrise both symmetric positions.
    """

    packing = "precision upper triangle, row-major"

    def __init__(self, dim: int = 5):
        self.spec = ModelSpec(GAUSSIAN, dim)
        self._iu = np.triu_indices(dim)

    def pack(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if not np.allclose(lam, lam.T):
            raise ParameterError("precision matrix must be symmetric")
        return lam[self._iu].copy()

    def unpack(self, theta: np.ndarray) -> np.ndarray:
        theta = self._check_theta(theta)
        lam = np.zeros((self.spec.dim, self.spec.dim))
        lam[self._iu] = theta
        return lam + np.triu(lam, 1).T

    def log_phi(self, theta, U):
        lam = self.unpack(theta)
        U = self._as_batch(U)
        return -0.5 * np.einsum("ij,jk,ik->i", U, lam, U)

    def theta_features(self, U):
        U = self._as_batch(U)
        i, j = self._iu
        phi = np.where(i == j, -0.5, -1.0) * U[:, i] * U[:, j]
        return phi, np.zeros(len(U))

    def grad_theta(self, theta, U):
        self._check_theta(theta)
        return self.theta_features(U)[0]

    def grad_u(self, theta, U):
        lam = self.unpack(theta)
        return -self._as_batch(U) @ lam

    def laplacian_u(self, theta, U):
        lam = self.unpack(theta)
        U = self._as_batch(U)
        return np.full(len(U), -np.trace(lam))

    def sample(self, theta, n, rng):
        lam = self.unpack(theta)
        try:
            chol = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("precision matrix is not positive definite") from exc
        # x = L^{-T} z has covariance (L L')^{-1} = Lam^{-1}
        z = rng.standard_normal((n, self.spec.dim))
        return np.linalg.solve(chol.T, z.T).T

    def random_params(self, rng):
        a = rng.standard_normal((self.spec.dim, self.spec.dim))
        return self.pack(a.T @ a + 0.5 * np.eye(self.spec.dim))


class IcaLaplaceModel(_Model):
    """Laplace-source ICA: log phi = -sqrt(2) sum_j |b_j . u|.

    Packing: rows of the demixing matrix B, concatenated.  At kink points
    (b_j . u == 0) the subgradient sign(0) = 0 is used.
    """

    packing = "demixing matrix rows, concatenated"

    def __init__(self, dim: int = 4):
        self.spec = ModelSpec(ICA, dim)

    def unpack(self, theta: np.ndarray) -> np.ndarray:
        return self._check_theta(theta).reshape(self.spec.dim, self.spec.dim)

    def pack(self, b: np.ndarray) -> np.ndarray:
        return np.asarray(b, dtype=float).reshape(-1).copy()

    def log_phi(self, theta, U):
        b = self.unpack(theta)
        U = self._as_batch(U)
        return -_SQRT2 * np.abs(U @ b.T).sum(axis=1)

    def grad_theta(self, theta, U):
        b = self.unpack(theta)
        U = self._as_batch(U)
        s = np.sign(U @ b.T)  # (m, dim) source signs; sign(0) = 0 at kinks
        return (-_SQRT2 * s[:, :, None] * U[:, None, :]).reshape(len(U), -1)

    def grad_theta_weighted(self, theta, U, w):
        b = self.unpack(theta)
        U = self._as_batch(U)
        s = np.sign(U @ b.T)
        return (-_SQRT2 * (s * w[:, None]).T @ U).reshape(-1)

    def sample(self, theta, n, rng):
        b = self.unpack(theta)
        if abs(np.linalg.det(b)) < 1e-12:
            raise ParameterError("demixing matrix is singular")
        # unit-variance Laplace sources, x = B^{-1} s
        s = rng.laplace(0.0, 1.0 / _SQRT2, size=(n, self.spec.dim))
        return np.linalg.solve(b, s.T).T

    def random_params(self, rng):
        while True:
            b = rng.standard_normal((self.spec.dim, self.spec.dim))
            if np.linalg.svd(b, compute_uv=False)[-1] > 0.1:
                return self.pack(b)


class RingModel(_Model):
    """Shell-concentrated model: log phi = -(gamma/2)(||u|| - mu)^2 with the
    shell radius mu treated as known (estimation targets gamma only)."""

    packing = "[gamma]"

    def __init__(self, dim: int = 5, mu: float = 4.0):
        self.spec = ModelSpec(RING, dim)
        self.mu = float(mu)

    @property
    def positive_mask(self):
        return np.array([True])

    def log_phi(self, theta, U):
        (gamma,) = self._check_theta(theta)
        r = np.linalg.norm(self._as_batch(U), axis=1)
        return -0.5 * gamma * (r - self.mu) ** 2

    def theta_features(self, U):
        r = np.linalg.norm(self._as_batch(U), axis=1)
        return (-0.5 * (r - self.mu) ** 2)[:, None], np.zeros(len(r))

    def grad_theta(self, theta, U):
        self._check_theta(theta)
        return self.theta_features(U)[0]

    def grad_u(self, theta, U):
        (gamma,) = self._check_theta(theta)
        U = self._as_batch(U)
        r = np.linalg.norm(U, axis=1)
        if np.any(r == 0):
            raise SingularityError("ring gradient undefined at the origin")
        return -gamma * ((r - self.mu) / r)[:, None] * U

    def laplacian_u(self, theta, U):
        (gamma,) = self._check_theta(theta)
        U = self._as_batch(U)
        r = np.linalg.norm(U, axis=1)
        if np.any(r == 0):
            raise SingularityError("ring laplacian undefined at the origin")
        return -gamma * (1.0 + (self.spec.dim - 1) * (r - self.mu) / r)

    def sample(self, theta, n, rng):
        (gamma,) = self._check_theta(theta)
        if gamma <= 0:
            raise ParameterError("gamma must be positive")
        # radius ~ N(mu, 1/gamma), resampled on r <= 0; directions uniform
        r = self.mu + rng.standard_normal(n) / np.sqrt(gamma)
        while np.any(r <= 0):
            bad = r <= 0
            r[bad] = self.mu + rng.standard_normal(int(bad.sum())) / np.sqrt(gamma)
        dirs = rng.standard_normal((n, self.spec.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs * r[:, None]

    def random_params(self, rng):
        return np.array([rng.uniform(1.0, 10.0)])


class LogNormalExtModel(_Model):
    """Log-normal on the positive axis, constant C elsewhere:

        log phi(u) = -theta/2 (log u)^2 - log u   for u > 0
        log phi(u) = C                            for u <= 0

    The data live on (0, inf); the constant branch exists so that Gaussian
    conditional noise (which crosses zero) stays inside the model domain.
    """

    packing = "[theta, C]"

    def __init__(self):
        self.spec = ModelSpec(LOGNORMAL, 1)

    @property
    def positive_mask(self):
        return np.array([True, False])

    def init_raw(self, rng, scale=0.3):
        return np.array([0.0, -5.0])  # C starts low: its optimum is -inf

    def _split(self, U):
        u = self._as_batch(U)[:, 0]
        return u, u > 0

    def log_phi(self, theta, U):
        theta_p, c = self._check_theta(theta)
        u, pos = self._split(U)
        out = np.full(u.shape, c)
        lu = np.log(u[pos])
        out[pos] = -0.5 * theta_p * lu**2 - lu
        return out

    def theta_features(self, U):
        u, pos = self._split(U)
        phi = np.zeros((len(u), 2))
        offset = np.zeros(len(u))
        lu = np.log(u[pos])
        phi[pos, 0] = -0.5 * lu**2
        phi[~pos, 1] = 1.0
        offset[pos] = -lu
        return phi, offset

    def grad_theta(self, theta, U):
        self._check_theta(theta)
        return self.theta_features(U)[0]

    def grad_u(self, theta, U):
        theta_p, _ = self._check_theta(theta)
        u, pos = self._split(U)
        if not np.all(pos):
            raise DomainError("grad_u defined only on the positive axis")
        return (-(theta_p * np.log(u) + 1.0) / u)[:, None]

    def laplacian_u(self, theta, U):
        theta_p, _ = self._check_theta(theta)
        u, pos = self._split(U)
        if not np.all(pos):
            raise DomainError("laplacian_u defined only on the positive axis")
        return (theta_p * np.log(u) - theta_p + 1.0) / u**2

    def sample(self, theta, n, rng):
        theta_p, _ = self._check_theta(theta)
        if theta_p <= 0:
            raise ParameterError("theta must be positive")
        return np.exp(rng.standard_normal(n) / np.sqrt(theta_p))[:, None]

    def random_params(self, rng):
        return np.array([rng.uniform(0.5, 2.0), -5.0])


class BernoulliModel(_Model):
    """Unnormalised two-weight Bernoulli: log phi(0) = log theta1,
    log phi(1) = log theta2, with theta1, theta2 > 0 (one redundant scale)."""

    packing = "[theta1, theta2]"

    def __init__(self):
        self.spec = ModelSpec(BERNOULLI, 1)

    @property
    def positive_mask(self):
        return np.array([True, True])

    def init_raw(self, rng, scale=0.3):
        # jitter in log space: equal weights make log phi constant, which
        # degenerates the noise-scale heuristic
        return scale * rng.standard_normal(2)

    def _bits(self, U):
        u = self._as_batch(U)[:, 0]
        ones = u == 1.0
        if not np.all(ones | (u == 0.0)):
            raise DomainError("bernoulli points must lie in {0, 1}")
        return ones

    def log_phi(self, theta, U):
        t1, t2 = self._check_theta(theta)
        if t1 <= 0 or t2 <= 0:
            raise ParameterError("bernoulli weights must be positive")
        return np.where(self._bits(U), np.log(t2), np.log(t1))

    def raw_features(self, U):
        # log phi is linear in the log-weights
        ones = self._bits(U)
        phi = np.zeros((len(ones), 2))
        phi[~ones, 0] = 1.0
        phi[ones, 1] = 1.0
        return phi, np.zeros(len(ones))

    def grad_theta(self, theta, U):
        t1, t2 = self._check_theta(theta)
        ones = self._bits(U)
        g = np.zeros((len(ones), 2))
        g[~ones, 0] = 1.0 / t1
        g[ones, 1] = 1.0 / t2
        return g

    def sample(self, theta, n, rng):
        t1, t2 = self._check_theta(theta)
        if t1 <= 0 or t2 <= 0:
            raise ParameterError("bernoulli weights must be positive")
        return (rng.random(n) < t2 / (t1 + t2)).astype(float)[:, None]

    def random_params(self, rng):
        t1 = rng.uniform(0.1, 0.9)
        return np.array([t1, 1.0 - t1])


_CLASSES = {
    GAUSSIAN: GaussianPrecisionModel,
    ICA: IcaLaplaceModel,
    RING: RingModel,
    LOGNORMAL: LogNormalExtModel,
    BERNOULLI: BernoulliModel,
}


def build_model(spec: ModelSpec, **kwargs):
    """Instantiate the model class for a spec (ring accepts mu=...)."""
    cls = _CLASSES[spec.kind]
    if spec.kind in (LOGNORMAL, BERNOULLI):
        return cls(**kwargs)
    return cls(dim=spec.dim, **kwargs)
