"""Unnormalised model zoo: log phi(u; theta), analytic gradients, exact data
samplers and random true-parameter generators.

Every model evaluates on batches: ``U`` is an (m, dim) array (a bare (dim,)
vector or, for one-dimensional models, an (m,) array is promoted).  Parameters
are packed into flat vectors; the layout is documented in each model's
docstring.  All operations are pure functions of their arguments; random
state is always passed in explicitly.

Every model but Laplace ICA is parametrised so that log phi is affine in
theta, which makes CNCE, NCE and score matching convex in it; the
optimiser moves theta itself.

Model protocol: each class states once all the maths an estimator needs, so
no estimator branches on the model kind.  A model is a frozen dataclass
whose fields are its config: ``dim``, the ambient dimension, within the
class's ``min_dim`` and ``max_dim``, and on the ring ``mu``.  ``kind`` (the
model's name in a config), ``param_count`` (the length of theta),
``methods`` (the estimators it supports), ``kernel`` (its CNCE noise kernel
class, from ``kernels``) and ``affine`` (whether log phi is affine in
theta) belong to the class.  ``log_phi`` serves the noise-scale ladder,
NCE's start value of c and the small-noise limit check; ``rows(U)`` and
``pair_rows(x, y, kappa)`` serve the contrastive objectives and the ICA
MLE (below); ``score_quadratic(x) -> (A, b, c)``, with the score-matching
loss exactly theta'A theta / 2 + b'theta + c, serves score matching;
``mle(x)`` gives the closed-form MLE; the two also give the start of the
contrastive Newton fits (``experiments.newton_start``); and ``error`` is
the estimation error with the model's ambiguities resolved (Euclidean by
default).  What a model does not support raises
``UnsupportedModelError``.

Rows hold log phi over a fixed stack U, or log phi(x_i) - log phi(y_ij)
over CNCE's pairs (y holding the kappa points of each x_i in turn), as an
object with ``value(theta, out)``, which writes the whole (m,) row vector
to out; and ``vjp(w)``, sum_r w_r d row_r / d theta at the last
``value``.  ``rows(U)`` also has ``offset``, the (m,) part of the rows no
parameter moves, which ``value`` adds: a fresh array, where NCE, the one
loss that folds constants into rows, adds its -log q - log nu at build
time.  No loss reads an offset of pair rows: affine pair rows add the
difference of their points' offsets, and Laplace ICA's have none.  The
log-normal's offset is -inf where a point is <= 0 (phi = 0 there), so its
pair offsets are +inf where a noise point is <= 0: such a pair, like an
NCE noise row there after its sign, is +inf, and its softplus(-row),
weight and curvature are exactly 0.
Affine rows, Phi @ theta + offset, add the exact curvature ``gram(c)`` =
Phi' diag(c) Phi.  ``_Model`` builds them from ``features(U)`` = (Phi,
offset), which the affine models state (Bernoulli as its log-weight
indicators); Laplace ICA builds non-affine rows from the sources B U'
instead.

Phi of affine rows is column-major: on 40 000 rows of 15 columns,
``value``, ``vjp`` and the Gram ran 1.3-2x faster in that layout than in
the row-major one.  The invariant holds because every ``features`` returns
a fresh column-major (m, p) array (a one-column array is both layouts)
that shares no memory with its points, and ``pair_rows`` writes
Phi(x_i) - Phi(y_ij) over Phi(y) in place, on its contiguous (p, m)
transpose: a cell's pair rows are one full-size array, with no repeated
copy of the data rows beside it.

The ring's norms, ``_row_norms``, add the squares of the columns in
order, with no (m, dim) temporary.  Below 8 columns numpy's row reduce
adds in the same order, so they equal ``np.linalg.norm(U, axis=1)`` bit
for bit; from 8 columns numpy sums pairwise, and the two can differ in
the last digits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, ParameterError, SingularityError,
                     UnsupportedModelError, convert_fields)
from .kernels import BernoulliFlipKernel, GaussianPerturbKernel

GAUSSIAN = "gaussian_precision"
ICA = "ica_laplace"
RING = "ring"
LOGNORMAL = "lognormal_ext"
BERNOULLI = "bernoulli"

_SQRT2 = np.sqrt(2.0)


# row block of _weighted_gram: on column-major rows of 40 000 x 15 it tied
# with 3072 and beat 2048, 6144 and 8192; at 2 columns it was within 0.05 ms
# of the best
_GRAM_ROWS = 4096


# row block of GaussianPrecisionModel.features' transposed points: on 40 000
# rows 16 384 tied with transposing them whole, and 4096 and 8192 were slower
_FEATURE_ROWS = 16384


def _row_norms(U: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of U, from the squares of its columns
    added in order (module docstring)."""
    sq = np.square(U[:, 0])
    for j in range(1, U.shape[1]):
        sq += np.square(U[:, j])
    return np.sqrt(sq, out=sq)


def _weighted_gram(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d' diag(w) d, accumulated over fixed row blocks so that the scaled
    copy of d is never materialised whole."""
    out = np.zeros((d.shape[1], d.shape[1]))
    for lo in range(0, len(d), _GRAM_ROWS):
        blk = d[lo:lo + _GRAM_ROWS]
        out += blk.T @ (blk * w[lo:lo + _GRAM_ROWS, None])
    return out


class _AffineRows:
    """Rows Phi @ theta + offset, Phi column-major (module docstring)."""

    def __init__(self, phi, offset):
        self.phi, self.offset = phi, offset

    def value(self, theta, out):
        # np.dot, not matmul: same bits, and 6-8x faster for one column
        np.dot(self.phi, theta, out=out)
        np.add(out, self.offset, out=out)

    def vjp(self, w):
        if self.phi.shape[1] == 1:
            # OpenBLAS splits a one-column product's sum across its threads,
            # so its bits would depend on the thread count; einsum's do not
            return np.einsum("i,ij->j", w, self.phi)
        return w @ self.phi

    def gram(self, c):
        return _weighted_gram(self.phi, c)


class _Model:
    """Shared plumbing.  Subclasses fill in the maths."""

    kernel = GaussianPerturbKernel
    affine = True  # log phi affine in theta: its rows have ``gram``
    min_dim = 1
    max_dim = None  # no upper bound

    def __post_init__(self):
        convert_fields(self)
        if self.dim < self.min_dim:
            raise ParameterError(f"{self.kind} model needs dim >= {self.min_dim}")
        if self.max_dim is not None and self.dim > self.max_dim:
            raise ParameterError(f"{self.kind} model needs dim <= {self.max_dim}")

    # --- parametrisation ---------------------------------------------------
    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        """Random optimiser start: N(0, 0.3^2) in every coordinate.
        Bernoulli needs the jitter: equal weights make log phi constant,
        which degenerates the noise-scale heuristic."""
        return 0.3 * rng.standard_normal(self.param_count)

    # --- point handling ----------------------------------------------------
    def _as_batch(self, U) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        if U.ndim == 0:
            U = U.reshape(1, 1)
        elif U.ndim == 1:
            U = U[:, None] if self.dim == 1 else U[None, :]
        if U.ndim != 2 or U.shape[1] != self.dim:
            raise DomainError(f"points must have dimension {self.dim}")
        if not np.all(np.isfinite(U)):
            raise DomainError("non-finite point")
        return U

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_count,):
            raise ParameterError(
                f"theta must have {self.param_count} entries, got {theta.shape}"
            )
        return theta

    # --- defaults ----------------------------------------------------------
    def features(self, U):
        """(Phi, offset) with log phi(U) == Phi @ theta + offset, for a
        model whose log phi is affine in theta."""
        raise UnsupportedModelError(
            f"log phi of {self.kind} is not affine in its parameters")

    def rows(self, U):
        return _AffineRows(*self.features(U))

    def pair_rows(self, x, y, kappa: int):
        phi_x, off_x = self.features(x)
        phi_y, off_y = self.features(y)
        n, p = phi_x.shape
        # Phi(x_i) - Phi(y_ij) written over Phi(y), on its contiguous (p, n,
        # kappa) transpose, so that the differences are column-major and no
        # second (m, p) array is made; the offsets likewise over off_y
        diff = phi_y.T.reshape(p, n, kappa)
        np.subtract(phi_x.T[:, :, None], diff, out=diff)
        off = off_y.reshape(n, kappa)
        np.subtract(off_x[:, None], off, out=off)
        return _AffineRows(diff.reshape(p, -1).T, off.reshape(-1))

    def score_quadratic(self, x):
        """(A, b, c) with the score-matching loss, the mean over x of the
        Laplacian of log phi in u plus |grad_u|^2 / 2, equal to
        theta'A theta / 2 + b'theta + c."""
        raise UnsupportedModelError(f"score matching unsupported for {self.kind}")

    def mle(self, x) -> np.ndarray:
        """Closed-form maximum-likelihood estimate under the normalised model."""
        raise UnsupportedModelError(f"mle unsupported for {self.kind}")

    def error(self, theta_hat, theta_true) -> float:
        return float(np.linalg.norm(theta_hat - theta_true))


@dataclass(frozen=True)
class GaussianPrecisionModel(_Model):
    """Zero-mean Gaussian with a free precision Lam = Lam': log phi = -u'Lu/2.

    Parameters: upper triangle of the precision matrix, row-major, diagonal
    included; off-diagonal entries parametrise both mirrored positions.
    """

    dim: int = 5

    kind = GAUSSIAN
    methods = ("cnce", "nce", "mle", "score_matching")

    def __post_init__(self):
        super().__post_init__()
        iu = np.triu_indices(self.dim)
        # d log phi / d theta_k = coef_k u_i u_j for packed entry k = (i, j)
        object.__setattr__(self, "_iu", iu)
        object.__setattr__(self, "_coef", np.where(iu[0] == iu[1], -0.5, -1.0))

    @property
    def param_count(self) -> int:
        return self.dim * (self.dim + 1) // 2

    def pack(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if not np.allclose(lam, lam.T):
            raise ParameterError("precision matrix must equal its transpose")
        return lam[self._iu].copy()

    def unpack(self, theta: np.ndarray) -> np.ndarray:
        theta = self._check_theta(theta)
        lam = np.zeros((self.dim, self.dim))
        lam[self._iu] = theta
        return lam + np.triu(lam, 1).T

    def log_phi(self, theta, U):
        lam = self.unpack(theta)
        # C order first, so that the bits do not depend on the caller's layout
        U = np.ascontiguousarray(self._as_batch(U))
        return -0.5 * np.einsum("ij,ij->i", U @ lam, U)

    def features(self, U):
        U = self._as_batch(U)
        # built as (p, m) rows, with no (m, p) temporaries, and returned as
        # the column-major (m, p) view that rows hold; the points are
        # transposed one block of _FEATURE_ROWS at a time
        phi_t = np.empty((self.param_count, len(U)))
        for lo in range(0, len(U), _FEATURE_ROWS):
            ut = U[lo:lo + _FEATURE_ROWS].T.copy()
            blk = phi_t[:, lo:lo + _FEATURE_ROWS]
            for k, (i, j) in enumerate(zip(*self._iu)):
                np.multiply(ut[i], self._coef[k], out=blk[k])
                np.multiply(blk[k], ut[j], out=blk[k])
        return phi_t.T, np.zeros(len(U))

    def score_quadratic(self, x):
        # mean(-tr Lam + |Lam u|^2 / 2) = -tr Lam + tr(Lam S Lam) / 2, S = x'x / n
        x = self._as_batch(x)
        s = x.T @ x / len(x)
        # Lam = sum_k theta_k E_k, with E_k the 0/1 matrix of entry k and its
        # mirror: a (p, d, d) stack, O(d^4), so built only here
        basis = np.array([self.unpack(e) for e in np.eye(self.param_count)])
        a = np.einsum("kab,lba->kl", basis @ s, basis)
        b = np.where(self._iu[0] == self._iu[1], -1.0, 0.0)
        return 0.5 * (a + a.T), b, 0.0

    def mle(self, x):
        # x'x / n is singular below dim points, where a Cholesky factor can
        # still pass on rounding and the inverse reads ~1e16
        x = self._as_batch(x)
        if len(x) < self.dim:
            raise SingularityError(
                f"gaussian mle needs n >= dim = {self.dim} points, got {len(x)}")
        s = x.T @ x / len(x)
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            raise SingularityError("gaussian mle: x'x / n is singular") from None
        return self.pack(np.linalg.inv(s))

    def sample(self, theta, n, rng):
        lam = self.unpack(theta)
        try:
            chol = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("precision matrix is not positive definite") from exc
        # x = L^{-T} z has covariance (L L')^{-1} = Lam^{-1}
        z = rng.standard_normal((n, self.dim))
        return np.linalg.solve(chol.T, z.T).T

    def random_params(self, rng):
        a = rng.standard_normal((self.dim, self.dim))
        return self.pack(a.T @ a + 0.5 * np.eye(self.dim))


class _IcaSources:
    """Sources S = B U' of a fixed stack of points U, with workspaces.

    ``l1`` computes S once per call and writes the per-point sum_j |S_j|
    to ``out``; ``pull`` reuses that S to pull per-point weights w back to
    (sign(S) w) U, the B-gradient of sum_r w_r sum_j |S_jr| (sign(0) = 0 at
    kinks).

    Points are stored transposed, (d, m) and contiguous, so every row-wise
    step runs over contiguous rows of length m: numpy's per-point loops
    over d entries cost up to 10x more.  The sum over sources adds rows in
    order, the same sequence np.sum(axis=1) of the (m, d) layout takes for
    d < 8.
    """

    def __init__(self, u: np.ndarray):
        self.ut = np.ascontiguousarray(u.T)
        self.s = np.empty(self.ut.shape)
        self.a = np.empty(self.ut.shape)

    def l1(self, theta, out):
        d = len(self.ut)
        np.matmul(theta.reshape(d, d), self.ut, out=self.s)
        np.abs(self.s, out=self.a)
        return self.a.sum(axis=0, out=out)

    def pull(self, w):
        np.sign(self.s, out=self.a)
        np.multiply(self.a, w, out=self.a)
        return (self.a @ self.ut.T).reshape(-1)


class _IcaRows(_IcaSources):
    """log phi = -sqrt(2) sum_j |S_j|: not affine."""

    def __init__(self, u):
        super().__init__(u)
        self.offset = np.zeros(len(u))

    def value(self, theta, out):
        np.multiply(self.l1(theta, out), -_SQRT2, out=out)
        np.add(out, self.offset, out=out)

    def vjp(self, w):
        return -_SQRT2 * self.pull(w)


class _IcaPairRows:
    """log phi(x_i) - log phi(y_ij) = sqrt(2) sum_j (|S_j(y_ij)| - |S_j(x_i)|)."""

    def __init__(self, x, y, kappa):
        self.x, self.y, self.kappa = _IcaSources(x), _IcaSources(y), kappa
        self.fx = np.empty(len(x))  # per data point: l1, then summed weights

    def value(self, theta, out):
        pairs = self.y.l1(theta, out).reshape(-1, self.kappa)
        np.subtract(pairs, self.x.l1(theta, self.fx)[:, None], out=pairs)
        np.multiply(out, _SQRT2, out=out)

    def vjp(self, w):
        w.reshape(-1, self.kappa).sum(axis=1, out=self.fx)
        return _SQRT2 * (self.y.pull(w) - self.x.pull(self.fx))


@dataclass(frozen=True)
class IcaLaplaceModel(_Model):
    """Laplace-source ICA: log phi = -sqrt(2) sum_j |b_j . u|.

    Parameters: rows of the demixing matrix B, concatenated.  At kink points
    (b_j . u == 0) the subgradient sign(0) = 0 is used.
    """

    dim: int = 4

    kind = ICA
    methods = ("cnce", "nce", "mle")  # not smooth: no score matching
    affine = False

    @property
    def param_count(self) -> int:
        return self.dim * self.dim

    def unpack(self, theta: np.ndarray) -> np.ndarray:
        return self._check_theta(theta).reshape(self.dim, self.dim)

    def pack(self, b: np.ndarray) -> np.ndarray:
        return np.asarray(b, dtype=float).reshape(-1).copy()

    def log_phi(self, theta, U):
        b = self.unpack(theta)
        U = self._as_batch(U)
        return -_SQRT2 * np.abs(U @ b.T).sum(axis=1)

    def rows(self, U):
        return _IcaRows(self._as_batch(U))

    def pair_rows(self, x, y, kappa):
        return _IcaPairRows(self._as_batch(x), self._as_batch(y), kappa)

    def error(self, theta_hat, theta_true):
        """Minimum Euclidean distance over all signed row permutations.
        Signs decouple per assigned row, so only the d! permutations are
        enumerated."""
        b_hat, b_true = self.unpack(theta_hat), self.unpack(theta_true)
        d = len(b_true)
        cost = np.minimum(np.sum((b_hat[:, None] - b_true) ** 2, axis=2),
                          np.sum((b_hat[:, None] + b_true) ** 2, axis=2))
        return float(np.sqrt(min(cost[list(perm), range(d)].sum()
                                 for perm in itertools.permutations(range(d)))))

    def sample(self, theta, n, rng):
        b = self.unpack(theta)
        if abs(np.linalg.det(b)) < 1e-12:
            raise ParameterError("demixing matrix is singular")
        # unit-variance Laplace sources, x = B^{-1} s
        s = rng.laplace(0.0, 1.0 / _SQRT2, size=(n, self.dim))
        return np.linalg.solve(b, s.T).T

    def random_params(self, rng):
        while True:
            b = rng.standard_normal((self.dim, self.dim))
            if np.linalg.svd(b, compute_uv=False)[-1] > 0.1:
                return self.pack(b)


@dataclass(frozen=True)
class RingModel(_Model):
    """Shell-concentrated model: log phi = -(gamma/2)(||u|| - mu)^2 with the
    shell radius mu treated as known (estimation targets gamma only)."""

    dim: int = 5
    mu: float = 4.0

    kind = RING
    methods = ("cnce", "nce", "score_matching")  # no MLE baseline
    param_count = 1
    min_dim = 2

    def init_theta(self, rng):
        return np.array([1.0])  # unit precision

    def log_phi(self, theta, U):
        (gamma,) = self._check_theta(theta)
        r = _row_norms(self._as_batch(U))
        return -0.5 * gamma * (r - self.mu) ** 2

    def features(self, U):
        r = _row_norms(self._as_batch(U))
        return (-0.5 * (r - self.mu) ** 2)[:, None], np.zeros(len(r))

    def score_quadratic(self, x):
        # |grad_u|^2 = gamma^2 (r - mu)^2; the laplacian is linear in gamma
        r = _row_norms(self._as_batch(x))
        if np.any(r == 0):
            raise SingularityError("ring score undefined at the origin")
        dr = r - self.mu
        b = -np.mean(1.0 + (self.dim - 1) * dr / r)
        return np.array([[np.mean(dr**2)]]), np.array([b]), 0.0

    def sample(self, theta, n, rng):
        (gamma,) = self._check_theta(theta)
        if gamma <= 0:
            raise ParameterError("gamma must be positive")
        # In polar coordinates phi gives the radius the log-density
        # log p(r) = (d - 1) log r - gamma/2 (r - mu)^2 and a uniform
        # direction.  log p is concave with curvature <= -gamma, so
        # N(mode, 1/gamma), scaled to touch p at its mode, lies above p:
        # draw r from it and keep it where log u <= log p(r) - log p(mode)
        # + gamma/2 (r - mode)^2, in rounds until n are kept.
        d, mu = self.dim, self.mu
        mode = 0.5 * (mu + np.sqrt(mu * mu + 4.0 * (d - 1) / gamma))
        kept = [np.empty(0)]
        short = n
        while short > 0:
            r = mode + rng.standard_normal(short) / np.sqrt(gamma)
            log_u = np.log(rng.random(short))
            r, log_u = r[r > 0], log_u[r > 0]
            bound = ((d - 1) * np.log(r / mode)
                     - 0.5 * gamma * ((r - mu) ** 2 - (mode - mu) ** 2 - (r - mode) ** 2))
            kept.append(r[log_u <= bound])
            short -= len(kept[-1])
        r = np.concatenate(kept)
        dirs = rng.standard_normal((n, self.dim))
        dirs /= _row_norms(dirs)[:, None]
        return dirs * r[:, None]

    def random_params(self, rng):
        return np.array([rng.uniform(1.0, 10.0)])


@dataclass(frozen=True)
class LogNormalExtModel(_Model):
    """Log-normal on the positive axis, zero elsewhere:

        log phi(u) = -theta/2 (log u)^2 - log u   for u > 0
        log phi(u) = -inf                         for u <= 0

    The data live on (0, inf).  Gaussian conditional noise crosses zero;
    a noise point there has phi = 0, so its CNCE pair and its NCE noise row
    are +inf, whose softplus(-row), weight and curvature are exactly 0.
    """

    dim: int = 1

    kind = LOGNORMAL
    methods = ("cnce", "nce", "mle", "score_matching")
    param_count = 1
    max_dim = 1

    def init_theta(self, rng):
        return np.array([1.0])  # unit precision

    def _split(self, U):
        u = self._as_batch(U)[:, 0]
        return u, u > 0

    def log_phi(self, theta, U):
        (theta_p,) = self._check_theta(theta)
        u, pos = self._split(U)
        out = np.full(u.shape, -np.inf)
        lu = np.log(u[pos])
        out[pos] = -0.5 * theta_p * lu**2 - lu
        return out

    def features(self, U):
        u, pos = self._split(U)
        phi = np.zeros((len(u), 1))
        offset = np.full(len(u), -np.inf)
        lu = np.log(u[pos])
        phi[pos, 0] = -0.5 * lu**2
        offset[pos] = -lu
        return phi, offset

    def score_quadratic(self, x):
        # laplacian + |grad|^2 / 2 = [theta^2 lu^2 / 2 + theta (2 lu - 1) + 3/2] / u^2
        u, pos = self._split(x)
        if not np.all(pos):
            raise DomainError("score matching defined only on the positive axis")
        lu = np.log(u)
        a = np.array([[np.mean(lu**2 / u**2)]])
        b = np.array([np.mean((2.0 * lu - 1.0) / u**2)])
        return a, b, float(np.mean(1.5 / u**2))

    def mle(self, x):
        # precision of the log-data
        u, _ = self._split(x)
        return np.array([1.0 / float(np.mean(np.log(u) ** 2))])

    def sample(self, theta, n, rng):
        (theta_p,) = self._check_theta(theta)
        if theta_p <= 0:
            raise ParameterError("theta must be positive")
        return np.exp(rng.standard_normal(n) / np.sqrt(theta_p))[:, None]

    def random_params(self, rng):
        return np.array([rng.uniform(0.5, 2.0)])


@dataclass(frozen=True)
class BernoulliModel(_Model):
    """Unnormalised two-weight Bernoulli in its log-weights:
    log phi(0) = theta1, log phi(1) = theta2.  The weights' redundant scale
    is an added offset of theta, which cancels in CNCE's log-odds."""

    dim: int = 1

    kind = BERNOULLI
    methods = ("cnce", "mle")  # NCE needs continuous moment-matched noise
    kernel = BernoulliFlipKernel
    param_count = 2
    max_dim = 1

    def _bits(self, U):
        u = self._as_batch(U)[:, 0]
        ones = u == 1.0
        if not np.all(ones | (u == 0.0)):
            raise DomainError("bernoulli points must lie in {0, 1}")
        return ones

    def log_phi(self, theta, U):
        t1, t2 = self._check_theta(theta)
        return np.where(self._bits(U), t2, t1)

    def features(self, U):
        ones = self._bits(U)
        phi = np.zeros((len(ones), 2), order="F")
        phi[~ones, 0] = 1.0
        phi[ones, 1] = 1.0
        return phi, np.zeros(len(ones))

    def sample(self, theta, n, rng):
        w1, w2 = np.exp(self._check_theta(theta))
        return (rng.random(n) < w2 / (w1 + w2)).astype(float)[:, None]

    def mle(self, x):
        ones = float(np.mean(self._as_batch(x)[:, 0]))  # frequencies
        with np.errstate(divide="ignore"):  # a value the data never take: -inf
            return np.log([1.0 - ones, ones])

    def error(self, theta_hat, theta_true):
        # distance between the normalised weights, which no offset moves
        w_hat, w_true = np.exp(theta_hat), np.exp(theta_true)
        return float(np.linalg.norm(w_hat / w_hat.sum() - w_true / w_true.sum()))

    def random_params(self, rng):
        t1 = rng.uniform(0.1, 0.9)
        return np.log([t1, 1.0 - t1])


_CLASSES = {cls.kind: cls for cls in (GaussianPrecisionModel, IcaLaplaceModel,
                                       RingModel, LogNormalExtModel, BernoulliModel)}
KINDS = tuple(_CLASSES)
