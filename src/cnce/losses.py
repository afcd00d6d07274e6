"""Loss functions and gradients: the conditional-noise contrastive loss, the
NCE baseline with learned log-normaliser, the score-matching objective,
closed-form MLE baselines, and the exact enumeration of the Bernoulli
population loss.

Two evaluation routes exist for the contrastive losses.  ``cnce_loss`` /
``nce_loss`` are the reference implementations in natural parameters; the
``*_objective`` builders produce callables in the optimiser's unconstrained
coordinates and exploit models whose log phi is affine in the packed
parameters by caching the feature differences once.  The two routes agree to
float precision and are tested against each other.

Objective contract: ``objective(raw)`` returns ``(value, grad)`` or
``(value, grad, hess)``, all in raw coordinates.  The exact Hessian comes
with every objective built on affine features (CNCE and NCE on the cached
features, and score matching, which is quadratic in natural parameters);
``minimize`` picks its route from the length of that tuple.  The Hessian is
part of the return value, not an attribute of the callable, so it survives
any wrapper that passes the result through.

log(1 + exp(-G)) is evaluated as logaddexp(0, -G) and the logistic function
through scipy's expit; |G| beyond 700 overflows a naive exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ParameterError, UnsupportedModelError
from .kernels import MarginalKernel, NoisePairing, log_density_marginal
from .models import BERNOULLI, GAUSSIAN, ICA, LOGNORMAL, RING

_CHUNK = 1 << 18  # fixed block size keeps the reduction order deterministic
_GRAM_ROWS = 4096  # row block of _weighted_gram, fixed for the same reason

TWO_LOG2 = 2.0 * np.log(2.0)


@dataclass
class LossReport:
    value: float
    gradient: np.ndarray  # natural parameters (+ trailing slot for NCE's c)
    n_terms: int


def _softplus(v: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, v)


def _pair_work(m: int):
    """Scratch arrays for _softplus_sigmoid_neg; allocating these once per
    objective (not per iteration) keeps the hot loop free of large mmaps."""
    return (np.empty(m), np.empty(m, dtype=bool), np.empty(m), np.empty(m))


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
    sigmoid(-g) = t/(1+t) for g >= 0, 1/(1+t) otherwise.  Consumes g.
    """
    if work is None:
        work = _pair_work(len(g))
    ag, neg, sp, sig = (w[: len(g)] for w in work)
    np.signbit(g, out=neg)
    np.abs(g, out=ag)
    np.subtract(ag, g, out=g)  # g := 2 max(-g, 0)
    np.negative(ag, out=ag)
    np.exp(ag, out=ag)  # ag := t
    np.log1p(ag, out=sp)
    g *= 0.5
    sp += g
    np.copyto(sig, ag)
    sig[neg] = 1.0
    ag += 1.0
    np.divide(sig, ag, out=sig)  # sig := sigmoid(-g)
    return sp, sig


# ---------------------------------------------------------------------------
# CNCE
# ---------------------------------------------------------------------------

def cnce_G(model, theta, kernel, u1, u2) -> float:
    """Log-odds statistic log[phi(u1) pc(u2|u1)] - log[phi(u2) pc(u1|u2)];
    antisymmetric in (u1, u2).  The partition function cancels."""
    from .kernels import log_ratio

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


def cnce_loss(model, theta, x: np.ndarray, pairing: NoisePairing) -> LossReport:
    """Empirical loss (2 / kappa N) sum_ij log[1 + exp(-G(x_i, y_ij))] and its
    gradient in natural parameters."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    y, ratios = _flat_pairs(x, pairing)
    n, kappa = len(x), pairing.kappa
    m = n * kappa

    fx = model.log_phi(theta, x)
    value = 0.0
    grad = np.zeros(model.spec.param_count)
    wx = np.zeros(n)  # accumulated data-side weights
    chunk = max(kappa, _CHUNK // kappa * kappa)  # whole noise groups per chunk
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        r0, r1 = lo // kappa, hi // kappa
        g = (np.repeat(fx[r0:r1], kappa) - model.log_phi(theta, y[lo:hi])
             + ratios[lo:hi])
        sp, sig = _softplus_sigmoid_neg(g)
        value += float(np.sum(sp))
        wx[r0:r1] -= sig.reshape(-1, kappa).sum(axis=1)
        grad += model.grad_theta_weighted(theta, y[lo:hi], sig)
    grad += model.grad_theta_weighted(theta, x, wx)
    scale = 2.0 / m
    return LossReport(value=scale * value, gradient=scale * grad, n_terms=m)


def cnce_objective(model, x: np.ndarray, pairing: NoisePairing):
    """Objective over unconstrained coordinates.

    Affine models get the cached-feature fast path, which returns (value,
    grad, hess); the rest re-evaluate the model per call via the reference
    arithmetic and return (value, grad).
    """
    x = np.asarray(x, dtype=float)
    if model.spec.kind == ICA:
        return _cnce_objective_ica(model, x, pairing)
    in_raw = model.raw_features(x) is not None
    feats = model.raw_features(x) if in_raw else model.theta_features(x)
    if feats is None:
        def objective(raw):
            theta = model.from_raw(raw)
            rep = cnce_loss(model, theta, x, pairing)
            return rep.value, model.chain_raw(rep.gradient, theta)

        return objective

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
        hess = 2.0 / m * _weighted_gram(dphi, sig * (1.0 - sig))
        if in_raw:
            return value, grad, hess
        return (value, model.chain_raw(grad, coords),
                model.chain_raw_hessian(hess, grad, coords))

    return objective


def _cnce_objective_ica(model, x: np.ndarray, pairing: NoisePairing):
    """ICA is the one model whose log phi is not affine in any coordinates;
    sharing the source matrices U B' between the value and the gradient and
    reusing workspaces halves the per-iteration cost of the generic route."""
    y, ratios = _flat_pairs(x, pairing)
    kappa = pairing.kappa
    n, d = x.shape
    m = len(y)
    sqrt2 = np.sqrt(2.0)
    sx, sy = np.empty((n, d)), np.empty((m, d))
    ax, ay = np.empty((n, d)), np.empty((m, d))
    fx, fy, g, wx = np.empty(n), np.empty(m), np.empty(m), np.empty(n)
    work = _pair_work(m)

    def objective(raw):
        b = raw.reshape(d, d)
        np.matmul(x, b.T, out=sx)
        np.matmul(y, b.T, out=sy)
        np.abs(sx, out=ax)
        np.abs(sy, out=ay)
        np.sum(ax, axis=1, out=fx)
        np.sum(ay, axis=1, out=fy)
        # G = sqrt(2) (|s_y| - |s_x|) summed over sources, plus the log ratio
        g.reshape(n, kappa)[:] = fx[:, None]
        np.subtract(fy, g, out=g)
        np.multiply(g, sqrt2, out=g)
        np.add(g, ratios, out=g)
        sp, sig = _softplus_sigmoid_neg(g, work)
        value = 2.0 / m * float(np.sum(sp))
        np.sum(sig.reshape(n, kappa), axis=1, out=wx)
        np.sign(sx, out=ax)
        np.multiply(ax, wx[:, None], out=ax)
        np.sign(sy, out=ay)
        np.multiply(ay, sig[:, None], out=ay)
        # d loss / dB = (2 sqrt2 / m) [sum_i w_i sign(s_x) x - sum w sign(s_y) y]
        grad = (2.0 * sqrt2 / m) * (ax.T @ x - ay.T @ y)
        return value, grad.reshape(-1)

    return objective


# ---------------------------------------------------------------------------
# NCE baseline
# ---------------------------------------------------------------------------

def _nce_parts(model, theta, c, x, noise, marginal):
    nu = len(noise) // len(x)
    log_nu = np.log(nu)
    hx = model.log_phi(theta, x) + c - log_density_marginal(marginal, x) - log_nu
    hy = model.log_phi(theta, noise) + c - log_density_marginal(marginal, noise) - log_nu
    return hx, hy


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

    hx, hy = _nce_parts(model, theta, c, x, noise, marginal)
    value = (np.sum(_softplus(-hx)) + np.sum(_softplus(hy))) / n
    wx = -expit(-hx)
    wy = expit(hy)
    g_theta = (model.grad_theta_weighted(theta, x, wx)
               + model.grad_theta_weighted(theta, noise, wy)) / n
    g_c = (wx.sum() + wy.sum()) / n
    return LossReport(value=float(value),
                      gradient=np.concatenate([g_theta, [g_c]]),
                      n_terms=len(x) + len(noise))


def nce_objective(model, x: np.ndarray, noise: np.ndarray, marginal: MarginalKernel):
    """Objective over (raw model coordinates, c): (value, grad, hess) on the
    cached features of affine models, (value, grad) otherwise."""
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if len(noise) % len(x):
        raise ParameterError("noise count must be a multiple of the data count")
    feats = model.theta_features(x)
    n = len(x)
    if feats is None:
        def objective(raw):
            theta = model.from_raw(raw[:-1])
            rep = nce_loss(model, np.concatenate([theta, raw[-1:]]), x, noise, marginal)
            grad = np.concatenate(
                [model.chain_raw(rep.gradient[:-1], theta), rep.gradient[-1:]]
            )
            return rep.value, grad

        return objective

    nu = len(noise) // n
    log_nu = np.log(nu)
    phi_x, off_x = feats
    phi_y, off_y = model.theta_features(noise)
    bx = off_x - log_density_marginal(marginal, x) - log_nu
    by = off_y - log_density_marginal(marginal, noise) - log_nu

    def objective(raw):
        theta = model.from_raw(raw[:-1])
        c = raw[-1]
        hx = phi_x @ theta + bx + c
        hy = phi_y @ theta + by + c
        value = (np.sum(_softplus(-hx)) + np.sum(_softplus(hy))) / n
        wx = -expit(-hx)
        wy = expit(hy)
        g_theta = (wx @ phi_x + wy @ phi_y) / n
        g_c = (wx.sum() + wy.sum()) / n
        # logistic curvature sigma(h) sigma(-h), bordered by the c column
        cx = -wx * (1.0 + wx)
        cy = wy * (1.0 - wy)
        p = len(theta)
        hess = np.empty((p + 1, p + 1))
        hess[:p, :p] = model.chain_raw_hessian(
            (_weighted_gram(phi_x, cx) + _weighted_gram(phi_y, cy)) / n,
            g_theta, theta)
        hess[:p, p] = hess[p, :p] = model.chain_raw((cx @ phi_x + cy @ phi_y) / n,
                                                    theta)
        hess[p, p] = (cx.sum() + cy.sum()) / n
        return float(value), np.concatenate(
            [model.chain_raw(g_theta, theta), [g_c]]
        ), hess

    return objective


# ---------------------------------------------------------------------------
# Score matching
# ---------------------------------------------------------------------------

def score_matching_loss(model, theta, x: np.ndarray) -> LossReport:
    """Empirical mean of sum_i d^2 f/dx_i^2 + ||grad_x f||^2 / 2 with the
    analytic parameter gradient (smooth models only)."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    kind = model.spec.kind
    grad_u = model.grad_u(theta, x)  # raises for non-smooth models
    lap = model.laplacian_u(theta, x)
    value = float(np.mean(lap + 0.5 * np.sum(grad_u**2, axis=1)))

    if kind == GAUSSIAN:
        lam = model.unpack(theta)
        v = x @ lam  # rows Lam u
        i, j = model._iu
        diag = i == j
        # d/dtheta of [-tr Lam + u'Lam^2 u / 2] per packed coordinate:
        # diagonal (i,i): -1 + u_i v_i ; off-diagonal (i<j): u_i v_j + u_j v_i
        quad = x[:, i] * v[:, j] + np.where(diag, 0.0, 1.0) * x[:, j] * v[:, i]
        grad = np.where(diag, -1.0, 0.0) + np.mean(quad, axis=0)
    elif kind == RING:
        (gamma,) = theta
        r = np.linalg.norm(x, axis=1)
        d = model.spec.dim
        grad = np.array([
            np.mean(-(1.0 + (d - 1) * (r - model.mu) / r) + gamma * (r - model.mu) ** 2)
        ])
    elif kind == LOGNORMAL:
        theta_p, _ = theta
        u = x[:, 0]
        lu = np.log(u)
        grad = np.array([
            np.mean((lu - 1.0) / u**2 + (theta_p * lu + 1.0) * lu / u**2),
            0.0,
        ])
    else:  # pragma: no cover - grad_u above already rejects these
        raise UnsupportedModelError(f"score matching unsupported for {kind}")
    return LossReport(value=value, gradient=grad, n_terms=len(x))


def score_matching_objective(model, x: np.ndarray):
    """(value, grad, hess) callable over unconstrained coordinates.

    The loss is quadratic in natural parameters, so its natural Hessian is
    a constant, read off exactly from the gradient at 0 and at each unit
    vector.
    """
    x = np.asarray(x, dtype=float)
    p = model.spec.param_count
    g0 = score_matching_loss(model, np.zeros(p), x).gradient
    hess_theta = np.array([score_matching_loss(model, e, x).gradient - g0
                           for e in np.eye(p)])
    hess_theta = 0.5 * (hess_theta + hess_theta.T)

    def objective(raw):
        theta = model.from_raw(raw)
        rep = score_matching_loss(model, theta, x)
        return (rep.value, model.chain_raw(rep.gradient, theta),
                model.chain_raw_hessian(hess_theta, rep.gradient, theta))

    return objective


# ---------------------------------------------------------------------------
# MLE baselines
# ---------------------------------------------------------------------------

@dataclass
class MleResult:
    theta_hat: np.ndarray
    method: str  # closed_form | gradient_ascent
    converged: bool


def mle_fit(model, x: np.ndarray, rng_seed: int = 0) -> MleResult:
    """Maximum likelihood under the normalised model.  Closed form for the
    Gaussian (zero-mean second moment), Bernoulli (frequencies) and
    log-normal (precision of log-data); gradient ascent for ICA.  The ring
    model has no MLE baseline."""
    x = np.asarray(x, dtype=float)
    kind = model.spec.kind
    if kind == GAUSSIAN:
        s = x.T @ x / len(x)
        return MleResult(model.pack(np.linalg.inv(s)), "closed_form", True)
    if kind == BERNOULLI:
        ones = float(np.mean(x[:, 0]))
        return MleResult(np.array([1.0 - ones, ones]), "closed_form", True)
    if kind == LOGNORMAL:
        theta_p = 1.0 / float(np.mean(np.log(x[:, 0]) ** 2))
        return MleResult(np.array([theta_p, -5.0]), "closed_form", True)
    if kind == ICA:
        return _ica_mle(model, x, rng_seed)
    raise UnsupportedModelError(f"mle unsupported for {kind}")


def ica_mle_objective(model, x: np.ndarray):
    """Negative mean normalised log-likelihood of the Laplace ICA model:
    -log|det B| + sqrt(2) mean sum_j |b_j . x| (+ source normalisation)."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    const = d * 0.5 * np.log(2.0)

    def objective(raw):
        b = raw.reshape(d, d)
        sign, logdet = np.linalg.slogdet(b)
        if sign == 0:
            return np.inf, np.zeros(d * d)
        s = x @ b.T
        value = -logdet + np.sqrt(2.0) * float(np.mean(np.abs(s).sum(axis=1))) + const
        grad = -np.linalg.inv(b).T + np.sqrt(2.0) * (np.sign(s).T @ x) / n
        return value, grad.reshape(-1)

    return objective


def _ica_mle(model, x, rng_seed):
    from .optimize import OptimizerConfig, minimize
    from .seeding import rng_from, stable_hash

    cfg = OptimizerConfig(max_iters=800, polish_iters=120,
                          plateau_window=40, plateau_rtol=1e-12)
    raw0 = model.init_raw(rng_from(stable_hash(rng_seed, "ica_mle_init")))
    run = minimize(ica_mle_objective(model, x), raw0, cfg,
                   stable_hash(rng_seed, "ica_mle"))
    return MleResult(run.theta, "gradient_ascent", run.converged)


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
