"""Test oracles: each loss of ``cnce.losses`` restated from its definition,
as a (value, gradient) pair, and the derivatives of each model kind's
log phi that the restatements need.

None of them shares code with the run path's rows or its
``_softplus_sigmoid_neg`` pass: the log-logistic terms are
logaddexp(0, -G) and the logistic weights sigmoid(v) =
exp(-logaddexp(0, -v)).  The derivatives restate the formulas of each
model's docstring; ``test_models`` checks them against finite differences
of ``log_phi``.  The losses take their parameter gradient from
``grad_theta`` unless given another, for models defined in a test.
"""

import numpy as np

from cnce import ParameterError, log_density_marginal
from cnce.models import BERNOULLI, GAUSSIAN, ICA, LOGNORMAL, RING

_SQRT2 = np.sqrt(2.0)


def _softplus(v):
    return np.logaddexp(0.0, v)


def _sigmoid(v):
    return np.exp(-np.logaddexp(0.0, -v))


# ---------------------------------------------------------------------------
# d log phi / d theta, and the gradient and Laplacian of log phi in u, per
# model kind
# ---------------------------------------------------------------------------

def grad_theta(model, theta, U):
    """(m, p) rows d log phi / d theta at the points U."""
    u = model._as_batch(U)
    kind = model.kind
    if kind == GAUSSIAN:
        # log phi = -u'Lam u / 2: -u_i^2 / 2 on the diagonal, -u_i u_j off it
        i, j = np.triu_indices(model.dim)
        return np.where(i == j, -0.5, -1.0) * u[:, i] * u[:, j]
    if kind == ICA:
        # log phi = -sqrt(2) sum_j |b_j . u|, with sign(0) = 0 at kinks
        s = np.sign(u @ model.unpack(theta).T)
        return (-_SQRT2 * s[:, :, None] * u[:, None, :]).reshape(len(u), -1)
    if kind == RING:
        return (-0.5 * (np.linalg.norm(u, axis=1) - model.mu) ** 2)[:, None]
    if kind == LOGNORMAL:
        # -(log u)^2 / 2 on u > 0; log phi = -inf on u <= 0 moves with no
        # parameter, so its row is zero
        pos = u[:, 0] > 0
        lu = np.log(np.where(pos, u[:, 0], 1.0))
        return np.where(pos, -0.5 * lu**2, 0.0)[:, None]
    if kind == BERNOULLI:
        return np.column_stack([u[:, 0] == 0.0, u[:, 0] == 1.0]).astype(float)
    raise KeyError(kind)


def grad_u(model, theta, U):
    """(m, dim) rows d log phi / du at the points U, for the smooth kinds."""
    u = model._as_batch(U)
    kind = model.kind
    if kind == GAUSSIAN:
        return -u @ model.unpack(theta)
    if kind == RING:
        # log phi = -(gamma/2)(r - mu)^2, with dr/du = u / r
        r = np.linalg.norm(u, axis=1)
        return (-theta[0] * (r - model.mu) / r)[:, None] * u
    if kind == LOGNORMAL:
        # log phi = -theta (log u)^2 / 2 - log u on u > 0
        return (-(theta[0] * np.log(u[:, 0]) + 1.0) / u[:, 0])[:, None]
    raise KeyError(f"{kind} is not smooth")


def laplacian_u(model, theta, U):
    """sum_i d^2 log phi / du_i^2 at the points U, for the smooth kinds."""
    u = model._as_batch(U)
    kind = model.kind
    if kind == GAUSSIAN:
        return np.full(len(u), -np.trace(model.unpack(theta)))
    if kind == RING:
        r = np.linalg.norm(u, axis=1)
        return -theta[0] * (1.0 + (model.dim - 1) * (r - model.mu) / r)
    if kind == LOGNORMAL:
        lu = np.log(u[:, 0])
        return (theta[0] * lu - theta[0] + 1.0) / u[:, 0] ** 2
    raise KeyError(f"{kind} is not smooth")


# ---------------------------------------------------------------------------
# losses, as (value, gradient)
# ---------------------------------------------------------------------------

def _data_log_phi(model, theta, x):
    """log phi at the data points, refused where it is not finite: a
    log-odds there could be inf - inf."""
    out = model.log_phi(theta, x)
    if not np.all(np.isfinite(out)):
        raise ValueError("log phi must be finite at every data point")
    return out


def cnce_G(model, theta, u1, u2) -> float:
    """CNCE's log-odds log phi(u1) - log phi(u2) of one pair; the kernel
    term vanishes for the symmetric kernels, the partition function
    cancels."""
    return float(model.log_phi(theta, u1)[0]) - float(model.log_phi(theta, u2)[0])


def cnce_loss(model, theta, x, noise, grad_theta=grad_theta):
    """(2 / kappa N) sum_ij softplus(-G(x_i, y_ij)) over the (N, kappa, dim)
    noise y, and its gradient."""
    theta = np.asarray(theta, dtype=float)
    x, noise = np.asarray(x, dtype=float), np.asarray(noise, dtype=float)
    n, kappa = noise.shape[:2]
    y = noise.reshape(n * kappa, -1)
    # a noise point with phi = 0 gives G = +inf, whose softplus(-G) and
    # weight are exactly 0 (and its grad_theta row is zero); a data point
    # with phi = 0 would give inf - inf, so it is refused
    g = np.repeat(_data_log_phi(model, theta, x), kappa) - model.log_phi(theta, y)
    w = _sigmoid(-g)  # -d softplus(-G) / dG
    grad = (w @ grad_theta(model, theta, y)
            - w.reshape(n, kappa).sum(axis=1) @ grad_theta(model, theta, x))
    return 2.0 / len(g) * float(np.sum(_softplus(-g))), 2.0 / len(g) * grad


def nce_loss(model, theta_c, x, noise, marginal, grad_theta=grad_theta):
    """NCE's logistic data-vs-noise loss (Gutmann & Hyvarinen 2012, JMLR 13)
    with the log-normaliser c in the last slot of theta_c, over noise drawn
    from ``marginal``, nu noise points per data point, and its gradient."""
    theta_c = np.asarray(theta_c, dtype=float)
    theta, c = theta_c[:-1], theta_c[-1]
    n = len(x)
    log_nu = np.log(len(noise) // n)
    hx = _data_log_phi(model, theta, x) + c - log_density_marginal(marginal, x) - log_nu
    # a noise point with phi = 0 gives hy = -inf, whose softplus(hy) and
    # weight are exactly 0
    hy = model.log_phi(theta, noise) + c - log_density_marginal(marginal, noise) - log_nu
    value = (np.sum(_softplus(-hx)) + np.sum(_softplus(hy))) / n
    wx, wy = -_sigmoid(-hx), _sigmoid(hy)  # d loss / dh, times n
    g_theta = wx @ grad_theta(model, theta, x) + wy @ grad_theta(model, theta, noise)
    return float(value), np.append(g_theta, np.sum(wx) + np.sum(wy)) / n


def score_matching_loss(model, theta, x):
    """Hyvarinen's (2005, JMLR 6) mean over x of laplacian_u +
    |grad_u|^2 / 2, and its gradient.  Both terms are affine in theta, as
    log phi is, so their theta-derivatives are the differences between
    their values at the unit vector e_k and at 0."""
    theta = np.asarray(theta, dtype=float)
    score = grad_u(model, theta, x)
    value = float(np.mean(laplacian_u(model, theta, x) + 0.5 * np.sum(score**2, axis=1)))
    zero = np.zeros(len(theta))
    lap0, score0 = laplacian_u(model, zero, x), grad_u(model, zero, x)
    grad = [np.mean(laplacian_u(model, e, x) - lap0
                    + np.sum((grad_u(model, e, x) - score0) * score, axis=1))
            for e in np.eye(len(theta))]
    return value, np.array(grad)


def bernoulli_population_loss(theta, theta_true, epsilon: float):
    """Population CNCE loss of the Bernoulli model at log-weights theta,
    under data from log-weights theta_true and flip noise of probability
    epsilon in (0, 1], and its gradient, enumerated over the four (x, y):
    an unflipped pair has G = 0, a flipped one G = +-(theta1 - theta2)."""
    theta = np.asarray(theta, dtype=float)
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError("epsilon must lie in (0, 1]")
    w_true = np.exp(np.asarray(theta_true, dtype=float))
    p0 = w_true[0] / w_true.sum()
    g = theta[0] - theta[1]  # G(x=0, y=1); flips sign for (1, 0)
    value = (2.0 * (1.0 - epsilon) * np.log(2.0)
             + 2.0 * epsilon * (p0 * _softplus(-g) + (1.0 - p0) * _softplus(g)))
    dg = 2.0 * epsilon * (-p0 * _sigmoid(-g) + (1.0 - p0) * _sigmoid(g))
    return float(value), np.array([dg, -dg])
