"""Loss functions: the conditional-noise contrastive objective, the NCE
baseline with learned log-normaliser, the score-matching objective and the
MLE baselines.

Both contrastive losses are logistic, and the model enters them only
through log phi on a fixed set of points: the partition function cancels
in CNCE and is learned as c in NCE.  So both are one body,
``_logistic_objective``: a scaled sum of softplus(-row) over rows in the
protocol of ``models``, with one ``value``, one ``_softplus_sigmoid_neg``
pass and one ``vjp`` per call.  Each ``*_objective`` builder only picks
the rows and the loss's scale:

- CNCE: ``model.pair_rows``, one row per (data, noise) pair, G =
  log phi(x) - log phi(y), scaled by 2 / (n kappa).  The kernel term
  log pc(y|x)/pc(x|y) of G is zero for every kernel of ``kernels``, so
  the noise array is all a CNCE loss takes of the kernel.
- NCE: ``_NceRows`` over ``model.rows`` of u = [x; noise], scaled by
  1 / n.  The offsets -log q(u) - log nu are folded into the model's rows
  at build time, from the noise log-densities the caller evaluated.  The
  wrapper adds c as one more column and a +-1 row sign that turns the data
  and noise terms into one softplus: its rows are s (log phi(u) + c -
  log q(u) - log nu), linear in (theta, c) where log phi is affine in
  theta.  The sign is applied where it is needed, with no stored +-1
  vector: ``_NceRows.value`` negates the noise rows in place, and
  ``_NceRows.vjp`` writes the signed weights s w in one pass over w, the
  data rows copied and the noise rows negated.  That is as fast as one
  multiply by a stored sign, and keeps m floats out of the objective.

A method missing from ``model.methods``, or a model without rows, raises
``UnsupportedModelError``.  ``cnce_loss`` is the CNCE loss value alone,
from ``model.log_phi``: the noise-scale ladder of ``optimize`` reads it at
the start point on each rung, where no rows are built.

The ICA MLE sees the model through the same rows: ``ica_mle_objective``
is -mean log phi over ``model.rows(x)`` plus the Laplace ICA log-normaliser
-log|det B| + (d/2) log 2, so the source product B x' is stated once, in
``models``.  The other MLE baselines are the models' closed forms.

Score matching: log phi is affine in theta for every smooth model, so the
loss is theta'A theta / 2 + b'theta + c (Hyvarinen 2005, JMLR 6), with
(A, b, c) = ``model.score_quadratic(x)`` built once per objective.

Objective contract: ``objective(theta)`` returns one of two shapes, in
the model's parameters (NCE's with c appended), and ``optimize.minimize``
takes only these:

- ``(value, grad, hess)``, hess a zero-argument callable that returns the
  exact Hessian matrix: score matching (the matrix A) and the contrastive
  objectives on affine rows (a Gram matrix, as for any logistic loss of
  affine rows), so every Hessian returned is positive semi-definite.  A
  callable lets ``minimize`` pay for it only where it takes a Newton
  step, not at rejected line-search trials or at the final point.  The
  contrastive objectives' callable builds the Gram matrix from the
  scratch arrays of its call: it is valid until the next call of the same
  objective, and raises ``RuntimeError`` after one.
- ``(value, grad, se)``, se a float: the contrastive objectives on
  non-affine rows and ``ica_mle_objective``.  se is the loss's sampling
  standard error, std over sqrt(count) of the per-row terms they already
  hold, scaled as the loss scales them; it is computed at the first point
  an objective is called at, the optimiser's start, and returned
  unchanged after.  NaN means unknown (``ica_mle_objective`` at a
  singular start).

``minimize`` takes Newton for a callable third slot and otherwise stops
BFGS on that standard error.  Both travel in the return value, not as
attributes of the callable, so they survive any wrapper that passes the
result through.

log(1 + exp(-G)) and the logistic function are evaluated from one
exp(-|G|) pass in ``_softplus_sigmoid_neg``; |G| beyond 700 overflows a
naive exp.  The tests check every loss here against a restatement in
``tests/oracles.py`` that uses logaddexp and shares no code with that
pass.  The package runs on numpy alone: importing SciPy would double the
start-up of every process, pool workers included.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, UnsupportedModelError
from .models import ICA

TWO_LOG2 = 2.0 * np.log(2.0)
_STALE = "a Hessian callable is valid only until the next call of its objective"


def _pair_work(m: int):
    """Scratch arrays for _softplus_sigmoid_neg, each as long as its g;
    allocating these once per objective (not per iteration) keeps the hot
    loop free of large mmaps."""
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
    ag, sp, sig = _pair_work(len(g)) if work is None else work
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

def _flat_pairs(x: np.ndarray, noise: np.ndarray):
    """The (n kappa, dim) stack of (n, kappa, dim) noise drawn around x,
    and kappa."""
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 3 or len(noise) != len(x):
        raise ParameterError("noise must be (n, kappa, dim), drawn around this sample")
    if noise.shape[1] < 1:
        raise ParameterError("noise must hold kappa >= 1 points per data point")
    return noise.reshape(len(x) * noise.shape[1], -1), noise.shape[1]


def cnce_loss(model, theta, x: np.ndarray, noise: np.ndarray) -> float:
    """Empirical loss (2 / kappa N) sum_ij log[1 + exp(-G(x_i, y_ij))]."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    y, kappa = _flat_pairs(x, noise)
    g = np.repeat(model.log_phi(theta, x), kappa) - model.log_phi(theta, y)
    sp, _ = _softplus_sigmoid_neg(g)
    return 2.0 / len(y) * float(np.sum(sp))


def _require(model, method: str):
    if method not in model.methods:
        raise UnsupportedModelError(f"{method} unsupported for {model.kind}")


def _logistic_objective(rows, m: int, scale, se_scale: float, affine: bool):
    """The logistic loss scale(sum_r softplus(-row_r)) over m rows, as an
    objective (module docstring): (value, grad, hess) on affine rows,
    (value, grad, se) otherwise, se = se_scale std(softplus rows) / sqrt(m).
    ``scale`` maps a sum over rows to the loss's scale, so that each
    estimator keeps its own order of operations."""
    g = np.empty(m)
    work = _pair_work(m)
    se = None
    calls = 0

    def objective(theta):
        nonlocal se, calls
        calls += 1
        call = calls
        rows.value(theta, g)
        sp, sig = _softplus_sigmoid_neg(g, work)
        value = scale(float(sp.sum()))
        grad = -scale(rows.vjp(sig))
        if not affine:
            if se is None:
                se = se_scale * _std_error(sp)
            return value, grad, se

        def hess():
            if call != calls:
                raise RuntimeError(_STALE)
            np.subtract(1.0, sig, out=g)
            np.multiply(g, sig, out=g)  # logistic curvature sig (1 - sig)
            return scale(rows.gram(g))

        return value, grad, hess

    return objective


def cnce_objective(model, x: np.ndarray, noise: np.ndarray):
    """Objective over theta, from ``model.pair_rows`` over x
    and its (n, kappa, dim) noise: (value, grad, hess) where ``model.affine``,
    (value, grad, se) otherwise, with se = 2 std(softplus rows) / sqrt(rows)."""
    _require(model, "cnce")
    x = np.asarray(x, dtype=float)
    y, kappa = _flat_pairs(x, noise)
    m = len(y)
    return _logistic_objective(model.pair_rows(x, y, kappa), m,
                               lambda v: 2.0 / m * v, 2.0, model.affine)


# ---------------------------------------------------------------------------
# NCE baseline
# ---------------------------------------------------------------------------

def nce_log_normaliser(model, theta, noise: np.ndarray, log_q: np.ndarray) -> float:
    """-log mean_j phi(y_j; theta) / q(y_j) over noise y drawn from q, with
    log_q = log q(y): the importance-sampling estimate of -log Z(theta),
    NCE's optimal c at theta.  The log-weights are shifted by their maximum
    before exp, so that neither a tiny nor a huge Z over- or underflows."""
    a = model.log_phi(theta, noise) - log_q
    top = float(np.max(a))
    return -(top + float(np.log(np.mean(np.exp(a - top)))))


class _NceRows:
    """NCE's rows over (theta, c): s (h + c), with h the rows of u =
    [x; noise] and the row sign s = +1 on the first n (data) and -1 on the
    rest (noise), so that the data terms softplus(-h - c) and the noise
    terms softplus(h + c) are all softplus(-row).  The c column s is
    appended to ``vjp``, which writes the signed weights s w in one pass
    over w, the data rows copied and the noise rows negated into ``w``;
    it borders ``gram`` (s^2 = 1)."""

    def __init__(self, rows, n: int):
        self.rows, self.n = rows, n
        self.w = np.empty_like(rows.offset)  # the signed weights

    def value(self, theta_c, out):
        self.rows.value(theta_c[:-1], out)
        np.add(out, theta_c[-1], out=out)
        np.negative(out[self.n:], out=out[self.n:])

    def vjp(self, w):
        n = self.n
        self.w[:n] = w[:n]
        np.negative(w[n:], out=self.w[n:])
        return np.append(self.rows.vjp(self.w), self.w.sum())

    def gram(self, c):
        border = np.append(self.rows.vjp(c), c.sum())  # the c column's entries
        return np.block([[self.rows.gram(c), border[:-1, None]], [border]])


def nce_objective(model, x: np.ndarray, noise: np.ndarray, log_q: np.ndarray):
    """Objective over (theta, c), from ``model.rows`` over
    u = [x; noise], with log_q = log q(u), the noise log-density at u:
    (value, grad, hess) where ``model.affine``, (value, grad, se) otherwise,
    with se = (rows / n) std(softplus rows) / sqrt(rows).

    h = log phi(u) - log q(u) - log nu, the constants folded into the rows'
    offset here, and the loss is sum_r softplus(-row_r) / n over the rows of
    ``_NceRows``.
    """
    _require(model, "nce")
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if len(noise) == 0 or len(noise) % len(x):
        raise ParameterError("noise count must be a positive multiple of the data count")
    n, m = len(x), len(x) + len(noise)
    # the stack is the argument alone, so it is freed once the rows hold it
    rows = model.rows(np.concatenate([x, noise]))
    np.add(rows.offset, -log_q - np.log(len(noise) // n), out=rows.offset)
    return _logistic_objective(_NceRows(rows, n), m, lambda v: v / n,
                               m / n, model.affine)


# ---------------------------------------------------------------------------
# Score matching
# ---------------------------------------------------------------------------

def score_matching_objective(model, x: np.ndarray):
    """(value, grad, hess) callable over theta.

    The loss is theta'A theta / 2 + b'theta + c, with (A, b, c) built once
    from the data, so each call is O(p^2) and hess returns A itself: Newton's
    first step lands on the minimiser.
    """
    a, b, c = model.score_quadratic(np.asarray(x, dtype=float))

    def objective(theta):
        grad = a @ theta + b
        value = 0.5 * float(theta @ (grad + b)) + c
        return value, grad, lambda: a

    return objective


# ---------------------------------------------------------------------------
# MLE baselines
# ---------------------------------------------------------------------------

def mle_fit(model, x: np.ndarray, optimizer=None, rng_seed: int = 0):
    """Maximum likelihood under the normalised model, as an
    ``EstimationRun``: the model's closed form
    (``model.mle``), with stop ``"closed_form"`` and an empty trace, or for
    ICA the run of BFGS under ``optimizer`` (an ``OptimizerConfig``, its
    defaults when None) from a start drawn from ``rng_seed``.  Models
    without either raise ``UnsupportedModelError``."""
    x = np.asarray(x, dtype=float)
    if model.kind == ICA:
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
        if se is None:
            se = _std_error(log_phi)
        value = -logdet - float(log_phi.sum() / n) + const
        grad = -np.linalg.inv(b).T.reshape(-1) - rows.vjp(w)
        return value, grad, se

    return objective


def _ica_mle(model, x, optimizer, rng_seed):
    """BFGS on the whitened problem.  With C = x'x/n, the data x C^{-1/2}
    have identity second moment, and B~ = B C^{1/2} gives the same sources
    B~ (C^{-1/2} x) = B x, so the loss changes by the constant
    (1/2) log det C and the minimiser maps back as B = B~ C^{-1/2}.  Only
    the optimiser's path changes, and BFGS finds the whitened one shorter:
    on the 30 cells of N 500/2000/8000, kappa 5 and master seeds
    1001-1010, the whitened fits took 5546 objective evaluations and the
    raw ones 6679, at an error geometric mean of 0.1458 against 0.1492.
    ICA NCE and CNCE are not whitened: under Adam it gained nothing for
    NCE and moved CNCE cells to other basins."""
    from .optimize import OptimizerConfig, minimize
    from .seeding import rng_from, stable_hash

    optimizer = optimizer or OptimizerConfig()
    n, d = x.shape
    evals, evecs = np.linalg.eigh(x.T @ x / n)
    c_half = (evecs * np.sqrt(evals)) @ evecs.T
    c_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    b0 = model.init_theta(rng_from(stable_hash(rng_seed, "ica_mle_init"))).reshape(d, d)
    run = minimize(ica_mle_objective(model, x @ c_inv_half),
                   (b0 @ c_half).reshape(-1), optimizer)
    run.theta = (run.theta.reshape(d, d) @ c_inv_half).reshape(-1)
    return run
