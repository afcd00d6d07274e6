"""Loss functions and gradients: the conditional-noise contrastive loss, the
NCE baseline with learned log-normaliser, the score-matching objective,
closed-form MLE baselines, and the exact enumeration of the Bernoulli
population loss.

Two evaluation routes exist for the contrastive losses.  ``cnce_loss`` /
``nce_loss`` are the reference implementations, built on ``model.log_phi``
and the dense ``model.grad_theta``; the ``*_objective`` builders produce
the callables the optimiser minimises.  Both contrastive losses are
logistic, and the model enters them only through log phi on a fixed set of
points: the partition function cancels in CNCE and is learned as c in NCE.
So each builder has one body, takes the model's rows over those points
(``models`` docstring), folds every constant into the rows' offset once,
and makes one ``value``, one ``_softplus_sigmoid_neg`` pass and one
``vjp`` per call:

- CNCE: ``model.pair_rows``, one row per (data, noise) pair, G =
  log phi(x) - log phi(y).  The kernel term log pc(y|x)/pc(x|y) of G is
  zero for every kernel of ``kernels``, so the noise array is all a CNCE
  loss takes of the kernel.
- NCE: ``model.rows`` over u = [x; noise], with the offsets
  -log q(u) - log nu evaluated at build time and a +-1 row sign that turns
  the data and noise terms into one softplus.

A method missing from ``model.methods``, or a model without rows, raises
``UnsupportedModelError``.  The two routes agree to float precision and are
tested against each other.

The ICA MLE sees the model through the same rows: ``ica_mle_objective``
is -mean log phi over ``model.rows(x)`` plus the Laplace ICA log-normaliser
-log|det B| + (d/2) log 2, so the source product B x' is stated once, in
``models``.  The other MLE baselines are the models' closed forms.

Score matching has one route: log phi is affine in theta for every smooth
model, so the loss is theta'A theta / 2 + b'theta + c (Hyvarinen 2005, JMLR
6), with (A, b, c) = ``model.score_quadratic(x)`` built once per objective.
The reference value of ``score_matching_loss`` comes from ``grad_u`` and
``laplacian_u`` instead, which share no code with (A, b, c).

Objective contract: ``objective(theta)`` returns ``(value, grad, hess)``,
``(value, grad, se)`` or ``(value, grad)``, in the model's parameters
(NCE's with c appended).  The exact Hessian comes with score matching and
with the contrastive objectives on affine rows: logistic losses of affine
rows have a Gram-matrix Hessian, and score matching the matrix A, so every
Hessian returned is positive semi-definite.  The others (on non-affine rows, and ``ica_mle_objective``)
return instead the loss's sampling standard error, std over sqrt(count) of
the per-row terms they already hold, scaled as the loss scales them; it is
computed at the first point an objective is called at, the optimiser's
start, and returned unchanged after.  ``minimize`` picks Newton for a
matrix third slot and otherwise stops Adam on that standard error.  Both
travel in the return value, not as attributes of the callable, so they
survive any wrapper that passes the result through.

log(1 + exp(-G)) and the logistic function are evaluated from one
exp(-|G|) pass in ``_softplus_sigmoid_neg``; |G| beyond 700 overflows a
naive exp.  The references use logaddexp(0, -G), and ``nce_loss`` its
logistic weights sigmoid(h) = exp(-logaddexp(0, -h)), which share no code
with that pass.  The package runs on numpy alone: importing SciPy would
double the start-up of every process, pool workers included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedModelError
from .kernels import MarginalKernel, log_density_marginal
from .models import ICA

TWO_LOG2 = 2.0 * np.log(2.0)


@dataclass
class LossReport:
    value: float
    gradient: np.ndarray | None  # trailing slot for NCE's c


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

def cnce_G(model, theta, u1, u2) -> float:
    """Log-odds statistic log phi(u1) - log phi(u2), which changes sign with
    (u1, u2) swapped.  The partition function cancels."""
    return float(model.log_phi(theta, u1)[0]) - float(model.log_phi(theta, u2)[0])


def _flat_pairs(x: np.ndarray, noise: np.ndarray):
    """The (n kappa, dim) stack of (n, kappa, dim) noise drawn around x,
    and kappa."""
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 3 or len(noise) != len(x):
        raise ParameterError("noise must be (n, kappa, dim), drawn around this sample")
    return noise.reshape(len(x) * noise.shape[1], -1), noise.shape[1]


def cnce_loss(model, theta, x: np.ndarray, noise: np.ndarray,
              gradient: bool = True) -> LossReport:
    """Empirical loss (2 / kappa N) sum_ij log[1 + exp(-G(x_i, y_ij))] and,
    unless ``gradient`` is false (then ``gradient`` is None), its gradient.
    The value does not depend on the flag."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    y, kappa = _flat_pairs(x, noise)
    n = len(x)
    m = n * kappa

    g = np.repeat(model.log_phi(theta, x), kappa) - model.log_phi(theta, y)
    sp, sig = _softplus_sigmoid_neg(g)
    scale = 2.0 / m
    value = scale * float(np.sum(sp))
    if not gradient:
        return LossReport(value=value, gradient=None)
    wx = -sig.reshape(n, kappa).sum(axis=1)  # data-side weights
    grad = sig @ model.grad_theta(theta, y) + wx @ model.grad_theta(theta, x)
    return LossReport(value=value, gradient=scale * grad)


def _require(model, method: str):
    if method not in model.methods:
        raise UnsupportedModelError(f"{method} unsupported for {model.spec.kind}")


def cnce_objective(model, x: np.ndarray, noise: np.ndarray):
    """Objective over theta, from ``model.pair_rows`` over x
    and its (n, kappa, dim) noise: (value, grad, hess) on affine rows,
    (value, grad, se) otherwise, with se = 2 std(softplus rows) / sqrt(rows)."""
    _require(model, "cnce")
    x = np.asarray(x, dtype=float)
    y, kappa = _flat_pairs(x, noise)
    rows = model.pair_rows(x, y, kappa)
    m = len(y)
    g = np.empty(m)
    work = _pair_work(m)
    se = None

    def objective(theta):
        nonlocal se
        rows.value(theta, g)
        np.add(g, rows.offset, out=g)
        sp, sig = _softplus_sigmoid_neg(g, work)
        value = 2.0 / m * float(np.sum(sp))
        grad = -2.0 / m * rows.vjp(sig)
        if not hasattr(rows, "gram"):
            if se is None:
                se = 2.0 * _std_error(sp)
            return value, grad, se
        np.subtract(1.0, sig, out=g)
        np.multiply(g, sig, out=g)  # logistic curvature sig (1 - sig)
        hess = 2.0 / m * rows.gram(g)
        return value, grad, hess

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
    wx = -np.exp(-_softplus(hx))  # -sigmoid(-hx)
    wy = np.exp(-_softplus(-hy))  # sigmoid(hy)
    g_theta = (wx @ model.grad_theta(theta, x)
               + wy @ model.grad_theta(theta, noise)) / n
    g_c = (wx.sum() + wy.sum()) / n
    return LossReport(value=float(value), gradient=np.concatenate([g_theta, [g_c]]))


def nce_log_normaliser(model, theta, noise: np.ndarray, marginal: MarginalKernel) -> float:
    """-log mean_j phi(y_j; theta) / q(y_j) over noise y drawn from q: the
    importance-sampling estimate of -log Z(theta), NCE's optimal c at theta.
    The log-weights are shifted by their maximum before exp, so that neither
    a tiny nor a huge Z over- or underflows."""
    a = model.log_phi(theta, noise) - log_density_marginal(marginal, noise)
    top = float(np.max(a))
    return -(top + float(np.log(np.mean(np.exp(a - top)))))


def nce_objective(model, x: np.ndarray, noise: np.ndarray, marginal: MarginalKernel):
    """Objective over (theta, c), from ``model.rows`` over
    u = [x; noise]: (value, grad, hess) on affine rows, (value, grad, se)
    otherwise, with se = (rows / n) std(softplus rows) / sqrt(rows).  The
    noise log-densities are evaluated once, here.

    With h = log phi(u) + c - log q(u) - log nu and the row sign s = +1 on
    data and -1 on noise, the data terms softplus(-h) and the noise terms
    softplus(h) are all softplus(-s h); w = s sigmoid(-s h) = -n d loss / dh.
    """
    _require(model, "nce")
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if len(noise) % len(x):
        raise ParameterError("noise count must be a multiple of the data count")
    n = len(x)
    u = np.concatenate([x, noise])
    rows = model.rows(u)
    np.add(rows.offset,
           -log_density_marginal(marginal, u) - np.log(len(noise) // n),
           out=rows.offset)
    h, w = np.empty(len(u)), np.empty(len(u))
    work = _pair_work(len(u))
    se = None

    def objective(theta_c):
        nonlocal se
        rows.value(theta_c[:-1], h)
        np.add(h, rows.offset, out=h)
        np.add(h, theta_c[-1], out=h)
        np.negative(h[n:], out=h[n:])
        sp, sig = _softplus_sigmoid_neg(h, work)
        value = float(np.sum(sp)) / n
        np.copyto(w, sig)
        np.negative(w[n:], out=w[n:])
        g_theta = -rows.vjp(w) / n
        g_c = -float(np.sum(w)) / n
        if not hasattr(rows, "gram"):
            if se is None:
                se = len(sp) / n * _std_error(sp)
            return value, np.append(g_theta, g_c), se
        np.subtract(1.0, sig, out=h)
        np.multiply(h, sig, out=h)  # logistic curvature, bordered by the c column
        p = len(g_theta)
        hess = np.empty((p + 1, p + 1))
        hess[:p, :p] = rows.gram(h) / n
        hess[:p, p] = hess[p, :p] = rows.vjp(h) / n
        hess[p, p] = float(np.sum(h)) / n
        return value, np.append(g_theta, g_c), hess

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
    return LossReport(value=value, gradient=a @ theta + b)


def score_matching_objective(model, x: np.ndarray):
    """(value, grad, hess) callable over theta.

    The loss is theta'A theta / 2 + b'theta + c, with (A, b, c) built once
    from the data, so each call is O(p^2) and the Hessian is A itself: Newton's
    first step lands on the minimiser.
    """
    a, b, c = model.score_quadratic(np.asarray(x, dtype=float))

    def objective(theta):
        grad = a @ theta + b
        value = 0.5 * float(theta @ (grad + b)) + c
        return value, grad, a

    return objective


# ---------------------------------------------------------------------------
# MLE baselines
# ---------------------------------------------------------------------------

def mle_fit(model, x: np.ndarray, optimizer=None, rng_seed: int = 0):
    """Maximum likelihood under the normalised model, as an
    ``EstimationRun``: the model's closed form
    (``model.mle``), with stop ``"closed_form"`` and an empty trace, or for
    ICA the run of Adam under ``optimizer`` (an ``OptimizerConfig``, its
    defaults when None) from a start drawn from ``rng_seed``.  Models
    without either raise ``UnsupportedModelError``."""
    x = np.asarray(x, dtype=float)
    if model.spec.kind == ICA:
        return _ica_mle(model, x, optimizer, rng_seed)
    from .optimize import EstimationRun  # here: ``optimize`` imports this module

    return EstimationRun(theta=model.mle(x), stop="closed_form")


def ica_mle_objective(model, x: np.ndarray):
    """Negative mean normalised log-likelihood of the Laplace ICA model,
    -mean log phi(x) - log|det B| + (d/2) log 2, with log phi from
    ``model.rows(x)``; the last two terms are log Z(B), the log-normaliser
    for unit-variance Laplace sources.

    Returns (value, grad, se), se the sampling standard error
    std(log phi(x)) / sqrt(n) at the first point evaluated."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    const = d * 0.5 * np.log(2.0)
    rows = model.rows(x)
    log_phi = np.empty(n)
    w = np.full(n, 1.0 / n)
    se = None

    def objective(theta):
        nonlocal se
        b = theta.reshape(d, d)
        sign, logdet = np.linalg.slogdet(b)
        if sign == 0:
            return np.inf, np.zeros(d * d), np.nan
        rows.value(theta, log_phi)
        np.add(log_phi, rows.offset, out=log_phi)
        if se is None:
            se = _std_error(log_phi)
        value = -logdet - float(np.mean(log_phi)) + const
        grad = -np.linalg.inv(b).T.reshape(-1) - rows.vjp(w)
        return value, grad, se

    return objective


def _ica_mle(model, x, optimizer, rng_seed):
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

    optimizer = optimizer or OptimizerConfig()
    n, d = x.shape
    evals, evecs = np.linalg.eigh(x.T @ x / n)
    c_half = (evecs * np.sqrt(evals)) @ evecs.T
    c_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    b0 = model.init_theta(rng_from(stable_hash(rng_seed, "ica_mle_init")),
                          optimizer.init_scale).reshape(d, d)
    run = minimize(ica_mle_objective(model, x @ c_inv_half),
                   (b0 @ c_half).reshape(-1), optimizer)
    run.theta = (run.theta.reshape(d, d) @ c_inv_half).reshape(-1)
    return run


# ---------------------------------------------------------------------------
# Bernoulli population loss (exact enumeration)
# ---------------------------------------------------------------------------

def bernoulli_population_loss(theta, theta_true, epsilon: float) -> float:
    """Population contrastive loss for the Bernoulli model, at log-weights
    theta under data from log-weights theta_true, with flip noise of
    probability epsilon in (0, 1], the flip kernel's whole range,
    enumerated exactly over the four (x, y) configurations."""
    theta = np.asarray(theta, dtype=float)
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError("epsilon must lie in (0, 1]")
    w_true = np.exp(np.asarray(theta_true, dtype=float))
    p0 = w_true[0] / w_true.sum()
    g = theta[0] - theta[1]  # G(x=0, y=1); flips sign for (1, 0)
    return float(
        2.0 * (1.0 - epsilon) * np.log(2.0)
        + 2.0 * epsilon * (p0 * _softplus(-g) + (1.0 - p0) * _softplus(g))
    )
