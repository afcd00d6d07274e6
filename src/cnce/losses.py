"""Loss functions and gradients: the conditional-noise contrastive loss, the
NCE baseline with learned log-normaliser, the score-matching objective,
closed-form MLE baselines, and the exact enumeration of the Bernoulli
population loss.

Two evaluation routes exist for the contrastive losses.  ``cnce_loss`` /
``nce_loss`` are the reference implementations in natural parameters; the
``*_objective`` builders produce callables in the optimiser's unconstrained
coordinates.  Both contrastive objectives are logistic losses, and each
call makes one ``_softplus_sigmoid_neg`` pass over its rows:

- CNCE: one row per (data, noise) pair, G = log phi(x) - log phi(y) plus
  the kernel's log-ratio.
- NCE: data and noise stacked into one point matrix u = [x; noise]
  (``_NceHead``), with the offsets -log q(u) - log nu evaluated at build
  time and a +-1 row sign that turns the data and noise terms into one
  softplus.

What differs per model is log phi over the rows:

- Gaussian, ring, log-normal (and Bernoulli for CNCE, in log-weights):
  log phi is affine in the parameters, so the features are computed once
  at build time and each call is one matrix-vector product.
- Laplace ICA: log phi = -sqrt(2) sum_j |b_j . u| is not affine.  The CNCE
  and NCE objectives share ``_IcaSources``, which computes the source
  matrix B U' once per call for the value and pulls the loss weights back
  through it for the gradient.

Any other model raises ``UnsupportedModelError``.  The two routes agree to
float precision and are tested against each other.

Score matching has one route: log phi is affine in theta for every smooth
model, so the loss is theta'A theta / 2 + b'theta + c (Hyvarinen 2005, JMLR
6), with (A, b, c) = ``model.score_quadratic(x)`` built once per objective.
The reference value of ``score_matching_loss`` comes from ``grad_u`` and
``laplacian_u`` instead, which share no code with (A, b, c).

Objective contract: ``objective(raw)`` returns ``(value, grad, hess)``,
``(value, grad, se)`` or ``(value, grad)``, all in raw coordinates.  The exact Hessian comes
with every objective built on affine features (CNCE and NCE on the cached
features, and score matching).  The Laplace ICA objectives (CNCE, NCE and
``ica_mle_objective``) return instead the loss's sampling standard error,
std over sqrt(count) of the per-row terms they already hold, scaled as the
loss scales them; it is computed at the first point an objective is called
at, the optimiser's start, and returned unchanged after.  ``minimize``
picks Newton for a matrix third slot and otherwise stops Adam on that
standard error.  Both travel in the return value, not as attributes of the
callable, so they survive any wrapper that passes the result through.

log(1 + exp(-G)) and the logistic function are evaluated from one
exp(-|G|) pass in ``_softplus_sigmoid_neg`` (the references use
logaddexp(0, -G) and scipy's expit); |G| beyond 700 overflows a naive exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ParameterError, UnsupportedModelError
from .kernels import MarginalKernel, NoisePairing, log_density_marginal, log_ratio
from .models import ICA

_GRAM_ROWS = 4096  # row block of _weighted_gram, fixed for the same reason

TWO_LOG2 = 2.0 * np.log(2.0)


@dataclass
class LossReport:
    value: float
    gradient: np.ndarray | None  # natural parameters (+ trailing slot for NCE's c)
    n_terms: int


def _softplus(v: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, v)


def _pair_work(m: int):
    """Scratch arrays for _softplus_sigmoid_neg; allocating these once per
    objective (not per iteration) keeps the hot loop free of large mmaps."""
    return (np.empty(m), np.empty(m), np.empty(m))


def _std_error(t: np.ndarray) -> float:
    """std(t) / sqrt(len(t)): the sampling standard error of the mean of
    the per-row loss terms t."""
    return float(np.std(t)) / np.sqrt(len(t))


def _weighted_gram(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d' diag(w) d, accumulated over fixed row blocks so that the scaled
    copy of d is never materialised whole."""
    out = np.zeros((d.shape[1], d.shape[1]))
    for lo in range(0, len(d), _GRAM_ROWS):
        blk = d[lo:lo + _GRAM_ROWS]
        out += blk.T @ (blk * w[lo:lo + _GRAM_ROWS, None])
    return out


def _softplus_sigmoid_neg(g: np.ndarray, work=None):
    """(softplus(-g), sigmoid(-g)) from a single exp(-|g|) pass; the two
    quantities always appear together in the loss/gradient inner loops.

    With t = exp(-|g|): softplus(-g) = log1p(t) + max(-g, 0) and
    sigmoid(-g) = max(t, [g < 0]) / (1 + t), which is t/(1+t) for g >= 0
    and 1/(1+t) otherwise because t <= 1.  The select is a float mask and
    a maximum, not a masked store.  Consumes g.
    """
    if work is None:
        work = _pair_work(len(g))
    ag, sp, sig = (w[: len(g)] for w in work)
    np.less(g, 0.0, out=sig)  # sig := [g < 0] as 0.0 / 1.0
    np.abs(g, out=ag)
    np.negative(g, out=g)
    np.maximum(g, 0.0, out=g)  # g := max(-g, 0)
    np.negative(ag, out=ag)
    np.exp(ag, out=ag)  # ag := t
    np.log1p(ag, out=sp)
    sp += g
    np.maximum(ag, sig, out=sig)
    ag += 1.0
    np.divide(sig, ag, out=sig)  # sig := sigmoid(-g)
    return sp, sig


# ---------------------------------------------------------------------------
# CNCE
# ---------------------------------------------------------------------------

def cnce_G(model, theta, kernel, u1, u2) -> float:
    """Log-odds statistic log[phi(u1) pc(u2|u1)] - log[phi(u2) pc(u1|u2)];
    antisymmetric in (u1, u2).  The partition function cancels."""
    f1 = float(model.log_phi(theta, u1)[0])
    f2 = float(model.log_phi(theta, u2)[0])
    return f1 - f2 + log_ratio(kernel, u1, u2)


def _flat_pairs(x: np.ndarray, pairing: NoisePairing):
    n = len(x)
    if pairing.noise.shape[0] != n:
        raise ParameterError("pairing was not built from this sample")
    y = pairing.noise.reshape(n * pairing.kappa, -1)
    r = pairing.log_ratio.reshape(-1)
    return y, r


def cnce_loss(model, theta, x: np.ndarray, pairing: NoisePairing,
              gradient: bool = True) -> LossReport:
    """Empirical loss (2 / kappa N) sum_ij log[1 + exp(-G(x_i, y_ij))] and,
    unless ``gradient`` is false (then ``gradient`` is None), its gradient in
    natural parameters.  The value does not depend on the flag."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    y, ratios = _flat_pairs(x, pairing)
    n, kappa = len(x), pairing.kappa
    m = n * kappa

    g = np.repeat(model.log_phi(theta, x), kappa) - model.log_phi(theta, y) + ratios
    sp, sig = _softplus_sigmoid_neg(g)
    scale = 2.0 / m
    value = scale * float(np.sum(sp))
    if not gradient:
        return LossReport(value=value, gradient=None, n_terms=m)
    wx = -sig.reshape(n, kappa).sum(axis=1)  # data-side weights
    grad = (model.grad_theta_weighted(theta, y, sig)
            + model.grad_theta_weighted(theta, x, wx))
    return LossReport(value=value, gradient=scale * grad, n_terms=m)


def cnce_objective(model, x: np.ndarray, pairing: NoisePairing):
    """Objective over unconstrained coordinates: (value, grad, hess) on the
    cached features of affine models, (value, grad, se) on ICA's source
    matrices, se = 2 std(softplus rows) / sqrt(rows)."""
    x = np.asarray(x, dtype=float)
    if model.spec.kind == ICA:
        return _cnce_objective_ica(x, pairing)
    in_raw = model.raw_features(x) is not None
    feats = model.raw_features(x) if in_raw else model.theta_features(x)
    if feats is None:
        raise UnsupportedModelError(f"cnce unsupported for {model.spec.kind}")

    y, ratios = _flat_pairs(x, pairing)
    kappa = pairing.kappa
    phi_x, off_x = feats
    phi_y, off_y = model.raw_features(y) if in_raw else model.theta_features(y)
    rows = np.arange(len(y)) // kappa
    dphi = phi_x[rows] - phi_y
    doff = off_x[rows] - off_y + ratios
    del phi_y, off_y
    m = len(y)
    g = np.empty(m)
    work = _pair_work(m)

    def objective(raw):
        coords = raw if in_raw else model.from_raw(raw)
        np.matmul(dphi, coords, out=g)
        np.add(g, doff, out=g)
        sp, sig = _softplus_sigmoid_neg(g, work)
        value = 2.0 / m * float(np.sum(sp))
        grad = -2.0 / m * (sig @ dphi)
        np.subtract(1.0, sig, out=g)
        np.multiply(g, sig, out=g)  # logistic curvature sig (1 - sig)
        hess = 2.0 / m * _weighted_gram(dphi, g)
        if in_raw:
            return value, grad, hess
        return (value, model.chain_raw(grad, coords),
                model.chain_raw_hessian(hess, grad, coords))

    return objective


class _IcaSources:
    """Sources S = B U' of a fixed stack of points U, with workspaces.

    ICA is the one model whose log phi = -sqrt(2) sum_j |S_j| is not affine
    in any coordinates.  ``l1`` computes S once per call and returns the
    per-point sum_j |S_j|; ``vjp`` reuses that S to pull per-point weights w
    back to (sign(S) w) U, the B-gradient of sum_r w_r sum_j |S_jr|.  At
    kinks the subgradient sign(0) = 0 is used, as in the model's grad_theta.

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
        self.f = np.empty(len(u))

    def l1(self, b: np.ndarray) -> np.ndarray:
        np.matmul(b, self.ut, out=self.s)
        np.abs(self.s, out=self.a)
        return np.sum(self.a, axis=0, out=self.f)

    def vjp(self, w: np.ndarray) -> np.ndarray:
        np.sign(self.s, out=self.a)
        np.multiply(self.a, w, out=self.a)
        return self.a @ self.ut.T


def _cnce_objective_ica(x: np.ndarray, pairing: NoisePairing):
    y, ratios = _flat_pairs(x, pairing)
    kappa = pairing.kappa
    n, d = x.shape
    m = len(y)
    sqrt2 = np.sqrt(2.0)
    src_x, src_y = _IcaSources(x), _IcaSources(y)
    g, wx = np.empty(m), np.empty(n)
    work = _pair_work(m)
    se = None

    def objective(raw):
        nonlocal se
        b = raw.reshape(d, d)
        fx, fy = src_x.l1(b), src_y.l1(b)
        # G = sqrt(2) (|s_y| - |s_x|) summed over sources, plus the log ratio
        g.reshape(n, kappa)[:] = fx[:, None]
        np.subtract(fy, g, out=g)
        np.multiply(g, sqrt2, out=g)
        np.add(g, ratios, out=g)
        sp, sig = _softplus_sigmoid_neg(g, work)
        value = 2.0 / m * float(np.sum(sp))
        if se is None:
            se = 2.0 * _std_error(sp)
        np.sum(sig.reshape(n, kappa), axis=1, out=wx)
        # d loss / dB = (2 sqrt2 / m) [sum_i w_i sign(s_x) x - sum w sign(s_y) y]
        grad = (2.0 * sqrt2 / m) * (src_x.vjp(wx) - src_y.vjp(sig))
        return value, grad.reshape(-1), se

    return objective


# ---------------------------------------------------------------------------
# NCE baseline
# ---------------------------------------------------------------------------

def nce_loss(model, theta_with_c, x: np.ndarray, noise: np.ndarray,
             marginal: MarginalKernel) -> LossReport:
    """Logistic data-vs-noise loss with learned log-normaliser c (final slot
    of the parameter vector); noise count must be an integer multiple of N."""
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if len(noise) % len(x):
        raise ParameterError("noise count must be a multiple of the data count")
    theta_with_c = np.asarray(theta_with_c, dtype=float)
    theta, c = theta_with_c[:-1], theta_with_c[-1]
    n = len(x)
    log_nu = np.log(len(noise) // n)
    hx = model.log_phi(theta, x) + c - log_density_marginal(marginal, x) - log_nu
    hy = model.log_phi(theta, noise) + c - log_density_marginal(marginal, noise) - log_nu
    value = (np.sum(_softplus(-hx)) + np.sum(_softplus(hy))) / n
    wx = -expit(-hx)
    wy = expit(hy)
    g_theta = (model.grad_theta_weighted(theta, x, wx)
               + model.grad_theta_weighted(theta, noise, wy)) / n
    g_c = (wx.sum() + wy.sum()) / n
    return LossReport(value=float(value),
                      gradient=np.concatenate([g_theta, [g_c]]),
                      n_terms=len(x) + len(noise))


class _NceHead:
    """The logistic part of NCE over the stacked points u = [x; noise].

    With h = log phi(u) + c - log q(u) - log nu and the row sign s = +1 on
    data and -1 on noise, the data terms softplus(-h) and the noise terms
    softplus(h) are all softplus(-s h).  The offsets -log q - log nu are
    evaluated here, once; ``logistic`` then makes one pass per call.
    """

    def __init__(self, u: np.ndarray, n: int, marginal: MarginalKernel):
        self.n = n
        self.offset = -log_density_marginal(marginal, u) - np.log((len(u) - n) // n)
        self.w = np.empty(len(u))
        self.work = _pair_work(len(u))

    def logistic(self, h: np.ndarray, c: float):
        """Consumes h, which holds log phi(u).  Returns (value, w, sig):
        the loss, w = s sigmoid(-s h) = -n d loss / dh, and sigmoid(-s h),
        whose sig (1 - sig) is the loss curvature in h (times n)."""
        n = self.n
        np.add(h, self.offset, out=h)
        np.add(h, c, out=h)
        np.negative(h[n:], out=h[n:])
        sp, sig = _softplus_sigmoid_neg(h, self.work)
        np.copyto(self.w, sig)
        np.negative(self.w[n:], out=self.w[n:])
        return float(np.sum(sp)) / n, self.w, sig

    def std_error(self) -> float:
        """Sampling standard error of the last ``logistic`` value, whose
        m = n (1 + nu) row terms are summed and divided by n.  The terms are
        the softplus values ``_softplus_sigmoid_neg`` left in ``work[1]``."""
        sp = self.work[1]
        return len(sp) / self.n * _std_error(sp)


def nce_objective(model, x: np.ndarray, noise: np.ndarray, marginal: MarginalKernel):
    """Objective over (raw model coordinates, c): (value, grad, hess) on the
    cached features of affine models, (value, grad, se) on ICA's source
    matrices, se = (rows / n) std(softplus rows) / sqrt(rows).  The noise
    log-densities are evaluated once, here."""
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if len(noise) % len(x):
        raise ParameterError("noise count must be a multiple of the data count")
    n = len(x)
    u = np.concatenate([x, noise])
    head = _NceHead(u, n, marginal)
    if model.spec.kind == ICA:
        return _nce_objective_ica(u, head)
    feats = model.theta_features(u)
    if feats is None:
        raise UnsupportedModelError(f"nce unsupported for {model.spec.kind}")
    phi, off = feats
    head.offset += off
    p = phi.shape[1]
    h = np.empty(len(phi))

    def objective(raw):
        theta = model.from_raw(raw[:-1])
        np.matmul(phi, theta, out=h)
        value, w, sig = head.logistic(h, raw[-1])
        g_theta = -(w @ phi) / n
        np.subtract(1.0, sig, out=h)
        np.multiply(h, sig, out=h)  # logistic curvature, bordered by the c column
        hess = np.empty((p + 1, p + 1))
        hess[:p, :p] = model.chain_raw_hessian(_weighted_gram(phi, h) / n,
                                               g_theta, theta)
        hess[:p, p] = hess[p, :p] = model.chain_raw(h @ phi / n, theta)
        hess[p, p] = float(np.sum(h)) / n
        grad = np.append(model.chain_raw(g_theta, theta), -float(np.sum(w)) / n)
        return value, grad, hess

    return objective


def _nce_objective_ica(u: np.ndarray, head: _NceHead):
    n, d = head.n, u.shape[1]
    sqrt2 = np.sqrt(2.0)
    src = _IcaSources(u)
    h = np.empty(len(u))
    se = None

    def objective(raw):
        nonlocal se
        b = raw[:-1].reshape(d, d)
        np.multiply(src.l1(b), -sqrt2, out=h)  # log phi
        value, w, _ = head.logistic(h, raw[-1])
        if se is None:
            se = head.std_error()
        grad = np.empty(d * d + 1)
        grad[:-1] = (sqrt2 / n) * src.vjp(w).reshape(-1)
        grad[-1] = -float(np.sum(w)) / n
        return value, grad, se

    return objective


# ---------------------------------------------------------------------------
# Score matching
# ---------------------------------------------------------------------------

def score_matching_loss(model, theta, x: np.ndarray) -> LossReport:
    """Empirical mean of sum_i d^2 f/dx_i^2 + ||grad_x f||^2 / 2 from the
    model's grad_u and laplacian_u (smooth models only), with the gradient
    A theta + b of its score quadratic."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    grad_u = model.grad_u(theta, x)  # raises for non-smooth models
    lap = model.laplacian_u(theta, x)
    value = float(np.mean(lap + 0.5 * np.sum(grad_u**2, axis=1)))
    a, b, _ = model.score_quadratic(x)
    return LossReport(value=value, gradient=a @ theta + b, n_terms=len(x))


def score_matching_objective(model, x: np.ndarray):
    """(value, grad, hess) callable over unconstrained coordinates.

    The loss is theta'A theta / 2 + b'theta + c in natural parameters, with
    (A, b, c) built once from the data, so each call is O(p^2) and the
    natural Hessian is A itself.
    """
    a, b, c = model.score_quadratic(np.asarray(x, dtype=float))

    def objective(raw):
        theta = model.from_raw(raw)
        grad = a @ theta + b
        value = 0.5 * float(theta @ (grad + b)) + c
        return (value, model.chain_raw(grad, theta),
                model.chain_raw_hessian(a, grad, theta))

    return objective


# ---------------------------------------------------------------------------
# MLE baselines
# ---------------------------------------------------------------------------

@dataclass
class MleResult:
    theta_hat: np.ndarray
    method: str  # closed_form | gradient_ascent
    converged: bool
    iters: int = 0  # optimiser iterations; 0 for the closed forms
    stop: str | None = None  # the optimiser's stop reason; None for closed forms


def mle_fit(model, x: np.ndarray, rng_seed: int = 0) -> MleResult:
    """Maximum likelihood under the normalised model: the model's closed
    form (``model.mle``), or gradient ascent for ICA.  Models without
    either raise ``UnsupportedModelError``."""
    x = np.asarray(x, dtype=float)
    if model.spec.kind == ICA:
        return _ica_mle(model, x, rng_seed)
    return MleResult(model.mle(x), "closed_form", True)


def ica_mle_objective(model, x: np.ndarray):
    """Negative mean normalised log-likelihood of the Laplace ICA model:
    -log|det B| + sqrt(2) mean sum_j |b_j . x| (+ source normalisation).

    Returns (value, grad, se), se the sampling standard error
    sqrt(2) std(sum_j |b_j . x|) / sqrt(n) at the first point evaluated."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    const = d * 0.5 * np.log(2.0)
    sqrt2 = np.sqrt(2.0)
    se = None

    def objective(raw):
        nonlocal se
        b = raw.reshape(d, d)
        sign, logdet = np.linalg.slogdet(b)
        if sign == 0:
            return np.inf, np.zeros(d * d), np.nan
        s = x @ b.T
        l1 = np.abs(s).sum(axis=1)
        if se is None:
            se = sqrt2 * _std_error(l1)
        value = -logdet + sqrt2 * float(np.mean(l1)) + const
        grad = -np.linalg.inv(b).T + sqrt2 * (np.sign(s).T @ x) / n
        return value, grad.reshape(-1), se

    return objective


def _ica_mle(model, x, rng_seed):
    """Adam on the whitened problem.  With C = x'x/n, the data x C^{-1/2}
    have identity second moment, and B~ = B C^{1/2} gives the same sources
    B~ (C^{-1/2} x) = B x, so the loss changes by the constant
    (1/2) log det C and the minimiser maps back as B = B~ C^{-1/2}.  Only
    Adam's path changes: its per-coordinate steps suit the evenly scaled
    whitened problem, which reaches the statistical stop in fewer
    iterations and with a much shorter tail than the raw one.  ICA NCE and
    CNCE are not whitened: it gained nothing for NCE and moved CNCE cells
    to other basins."""
    from .optimize import OptimizerConfig, minimize
    from .seeding import rng_from, stable_hash

    n, d = x.shape
    evals, evecs = np.linalg.eigh(x.T @ x / n)
    c_half = (evecs * np.sqrt(evals)) @ evecs.T
    c_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    b0 = model.init_raw(rng_from(stable_hash(rng_seed, "ica_mle_init"))).reshape(d, d)
    run = minimize(ica_mle_objective(model, x @ c_inv_half),
                   (b0 @ c_half).reshape(-1), OptimizerConfig(),
                   stable_hash(rng_seed, "ica_mle"))
    theta = (run.theta.reshape(d, d) @ c_inv_half).reshape(-1)
    return MleResult(theta, "gradient_ascent", run.converged, run.iters, run.stop)


# ---------------------------------------------------------------------------
# Bernoulli population loss (exact enumeration)
# ---------------------------------------------------------------------------

def bernoulli_population_loss(theta, theta_true, epsilon: float) -> float:
    """Population contrastive loss for the Bernoulli model with flip noise,
    enumerated exactly over the four (x, y) configurations."""
    theta = np.asarray(theta, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie strictly inside (0, 1)")
    if np.any(theta <= 0) or np.any(theta_true <= 0):
        raise ParameterError("bernoulli weights must be positive")
    p0 = theta_true[0] / theta_true.sum()
    g = np.log(theta[0]) - np.log(theta[1])  # G(x=0, y=1); flips sign for (1, 0)
    return float(
        2.0 * (1.0 - epsilon) * np.log(2.0)
        + 2.0 * epsilon * (p0 * _softplus(-g) + (1.0 - p0) * _softplus(g))
    )


def bernoulli_population_objective(theta_true, epsilon: float):
    """(value, grad) in log-weights for minimising the exact population loss."""
    theta_true = np.asarray(theta_true, dtype=float)
    p0 = theta_true[0] / theta_true.sum()

    def objective(raw):
        g = raw[0] - raw[1]
        value = (2.0 * (1.0 - epsilon) * np.log(2.0)
                 + 2.0 * epsilon * (p0 * _softplus(-g) + (1.0 - p0) * _softplus(g)))
        dg = 2.0 * epsilon * (-p0 * expit(-g) + (1.0 - p0) * expit(g))
        return float(value), np.array([dg, -dg])

    return objective
