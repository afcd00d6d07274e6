"""Deterministic full-batch optimiser plus the noise-scale adaptation
heuristic.

``minimize`` has two routes, one for each of the two objective shapes of
the ``losses`` docstring, chosen by the third slot of what the objective
returns at the start point:

- A callable, which returns the Hessian: damped Newton, with the smallest
  Levenberg damping that makes the Hessian positive definite and an
  Armijo backtracking line search (Hager and Zhang's approximate Wolfe
  test where the loss cannot resolve the decrease).  The callable is
  called once per Newton direction, right after the objective call that
  returned it: never at a rejected line-search trial or at the point the
  run ends on.  The start point's Hessian is evaluated and checked before
  its first record.
- Anything else, the loss's standard error se: full-batch Adam, which
  hands on the best point it visited.  The Laplace ICA objectives take
  this route.

Stop reasons (``EstimationRun.stop``): ``grad_tol`` and ``stat_tol``, which
count as converged, ``max_iters`` (trace length), ``step_collapse`` (no
acceptable Newton step) and ``nonfinite`` (a non-finite loss, gradient or
Hessian: Adam hands on the best finite point it visited; Newton, whose line
search accepts points of finite loss and gradient only, stops at the point
whose Hessian is non-finite, with no record of it where that is the start).
``minimize`` never raises for a non-finite value.  ``mle_fit`` adds
``closed_form``, a converged run with an empty trace.

The statistical stop.  The ICA objectives have |.| kinks, where Adam's
gradient norm stalls far above any useful ``grad_tol``.  Their third slot
is the loss's sampling standard error at the start point.  Optimising
below the estimator's own sampling error buys nothing (Bottou, Curtis and
Nocedal 2018, SIAM Review 60(2), sections 3-4), so Adam stops with
``stat_tol`` once the best loss so far has improved by at most
``STAT_FRACTION`` standard errors over the last ``STAT_WINDOW`` trace
entries.  An se of NaN means unknown: the run never meets the statistical
stop, and ends on ``grad_tol`` or ``max_iters``.

``minimize`` starts where its caller says: ``experiments.run_single``
gives the contrastive Newton fits of an affine model its closed-form
estimate and the other fits a random start (``experiments`` docstring).
A fit is a pure function of (objective, start, config): traces are
bit-reproducible, and no clock is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, _real, _sequence, convert_fields
from .losses import TWO_LOG2, cnce_loss
from .seeding import rng_from

STAT_WINDOW = 200  # trace entries the best loss must improve over
STAT_FRACTION = 0.01  # ... by more than this many standard errors
_ARMIJO = 1e-4  # sufficient-decrease constant of the Newton line search
_FLAT_ULPS = 16  # a change this many ulps of |f| is rounding, not decrease


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of ``minimize``'s two routes, damped Newton and Adam.
    ``max_iters`` caps the trace length and ``grad_tol`` is the gradient
    stop on both; ``adam_*`` apply to Adam only.  ``init_scale`` is the
    spread of the random starts that ``model.init_theta`` draws: a cell's
    theta0, where its noise-scale ladder, score matching and the ICA fits
    start, and the ICA MLE's own start.  The CNCE and NCE fits of an
    affine model start at its closed-form estimate instead, where that is
    finite (``experiments.newton_start``).
    Adam's statistical stop has constants, not options: it ends a run once
    progress falls below the loss's own sampling error, which no setting
    should trade away."""

    max_iters: int = 2000
    grad_tol: float = 1e-7  # infinity norm
    init_scale: float = 0.3
    adam_step: float = 0.05
    adam_betas: tuple = (0.9, 0.999)

    def __post_init__(self):
        convert_fields(self)
        betas = _sequence(self.adam_betas, "adam_betas")
        object.__setattr__(self, "adam_betas",
                           tuple(_real(b, "adam_betas entry") for b in betas))
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        for name in ("grad_tol", "init_scale", "adam_step"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be finite and > 0")
        if len(self.adam_betas) != 2 or not all(0 <= b < 1 for b in self.adam_betas):
            raise ParameterError("adam_betas must be two values in [0, 1)")


@dataclass(frozen=True)
class EpsilonSchedule:
    """The geometric ladder of noise scales that ``adapt_epsilon`` scans,
    the ``epsilon_schedule`` of a ``cnce experiment`` config.  Each field
    is a finite real, not a bool or a string: ``epsilon_0`` (0.05, > 0),
    the first rung; ``growth`` (2.0, > 1), the ratio of rungs; ``delta``
    (0.05, in (0, 2 log 2)), the gap from the degenerate loss value 2 log 2
    that a rung must reach; ``epsilon_max`` (4.0, > 0), the last rung,
    unless the kernel's ``epsilon_cap`` comes first."""

    epsilon_0: float = 0.05
    growth: float = 2.0
    delta: float = 0.05
    epsilon_max: float = 4.0

    def __post_init__(self):
        convert_fields(self)
        if self.epsilon_0 <= 0:
            raise ParameterError("epsilon_0 must be > 0")
        if self.growth <= 1:
            raise ParameterError("growth must be > 1")
        if not 0 < self.delta < TWO_LOG2:
            raise ParameterError("delta must lie in (0, 2 log 2)")
        if self.epsilon_max <= 0:
            raise ParameterError("epsilon_max must be finite and > 0")

    def ladder(self, cap: float | None = None) -> list:
        top = self.epsilon_max if cap is None else min(self.epsilon_max, cap)
        out = []
        eps = self.epsilon_0
        while eps < top * (1 - 1e-12):
            out.append(eps)
            eps *= self.growth
        out.append(top)
        return out


@dataclass
class EstimationRun:
    """One fit: the point it hands on, the optimiser's loss and gradient
    infinity-norm trajectory (a closed form's is empty) and ``stop``, why
    it ended (module docstring).  No timing: a fit reads no clock."""

    theta: np.ndarray
    loss_trace: list = field(default_factory=list)
    grad_norm_trace: list = field(default_factory=list)
    stop: str | None = None

    @property
    def iters(self) -> int:
        return len(self.loss_trace)

    @property
    def converged(self) -> bool:
        return self.stop in ("grad_tol", "stat_tol", "closed_form")


def _record(run, value, grad):
    run.loss_trace.append(float(value))
    run.grad_norm_trace.append(float(np.max(np.abs(grad))))


def _adam_phase(loss_fn, z, first, cfg, run):
    """Adam from z; returns the best finite point visited, or the point that
    met ``grad_tol``."""
    tol = STAT_FRACTION * float(first[2])  # NaN: never met
    b1, b2 = cfg.adam_betas
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    z_best, v_best = z, np.inf
    best = []  # best loss so far, per trace entry
    for t in range(1, cfg.max_iters + 1):
        value, grad = (first if t == 1 else loss_fn(z))[:2]
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            run.stop = "nonfinite"
            return z_best
        _record(run, value, grad)
        if value < v_best:
            z_best, v_best = z, value
        best.append(v_best)
        if run.grad_norm_trace[-1] <= cfg.grad_tol:
            run.stop = "grad_tol"
            return z
        if t > STAT_WINDOW and best[-STAT_WINDOW - 1] - v_best <= tol:
            run.stop = "stat_tol"
            return z_best
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        z = z - cfg.adam_step * mhat / (np.sqrt(vhat) + 1e-8)
    run.stop = "max_iters"
    return z_best  # the trace oscillates; hand the best visited point on


def _newton_direction(hess, grad) -> np.ndarray:
    """-(H + lam I)^{-1} grad with Levenberg damping lam.

    Every Hessian ``minimize`` gets from this package is positive
    semi-definite (``losses`` docstring), so lam is a floor of 1e-12 s, s
    the largest diagonal magnitude of H, that keeps a rank-deficient H (the
    Bernoulli offset) from amplifying rounding along its null space.  Where
    H + lam I still has no Cholesky factor, lam doubles until it has one.
    """
    eye = np.eye(len(grad))
    lam = 1e-12 * (float(np.max(np.abs(np.diag(hess)))) or 1.0)
    while True:
        try:
            np.linalg.cholesky(hess + lam * eye)
            break
        except np.linalg.LinAlgError:
            lam *= 2.0
    return -np.linalg.solve(hess + lam * eye, grad)


def _all_finite(out) -> bool:
    return all(np.all(np.isfinite(a)) for a in out)


def _accept(value, out, step, slope, direction) -> bool:
    """Armijo's f_new <= f + c step phi'(0), or, where |f_new - f| is within
    _FLAT_ULPS ulps of |f| (a last Newton step, whose decrease is below the
    loss's rounding error), Hager and Zhang's approximate Wolfe test
    phi'(step) <= (2c - 1) phi'(0) (2005, SIAM J. Optim. 16(1))."""
    if abs(out[0] - value) <= _FLAT_ULPS * np.spacing(abs(value)):
        return float(out[1] @ direction) <= (2 * _ARMIJO - 1) * slope
    return out[0] <= value + _ARMIJO * step * slope


def _newton_phase(loss_fn, z, first, cfg, run):
    value, grad, hess_fn = first
    hess = hess_fn()
    if not _all_finite((value, grad, hess)):
        run.stop = "nonfinite"
        return z
    while True:
        _record(run, value, grad)
        if run.grad_norm_trace[-1] <= cfg.grad_tol:
            run.stop = "grad_tol"
            return z
        if run.iters >= cfg.max_iters:
            run.stop = "max_iters"
            return z
        if hess is None:  # an accepted point's, built only now that a step needs it
            hess = hess_fn()
            if not np.all(np.isfinite(hess)):
                run.stop = "nonfinite"
                return z
        direction = _newton_direction(hess, grad)
        slope = float(grad @ direction)
        step = 1.0
        while True:
            z_new = z + step * direction
            # a trial that overflows is rejected like one that fails the
            # decrease test, so only finite points are ever accepted
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out = loss_fn(z_new)
            if _all_finite(out[:2]) and _accept(value, out, step, slope, direction):
                break
            step *= 0.5
            if step < 1e-14:
                run.stop = "step_collapse"
                return z
        z, (value, grad, hess_fn), hess = z_new, out, None


def minimize(loss_fn, theta0, cfg: OptimizerConfig) -> EstimationRun:
    """Minimise a differentiable objective from theta0 (unconstrained
    coordinates).

    ``loss_fn(z)`` returns ``(value, grad, hess)`` or ``(value, grad, se)``
    (``losses`` docstring).  The first call, at the start point, picks the
    route: Newton where its third slot is callable, Adam otherwise, which
    reads ``se`` from that call alone.  ``run.iters <= cfg.max_iters``.
    """
    z = np.array(theta0, dtype=float)
    run = EstimationRun(theta=z)
    first = loss_fn(z)
    phase = _newton_phase if callable(first[2]) else _adam_phase
    run.theta = phase(loss_fn, z, first, cfg, run)
    return run


def adapt_epsilon(model, theta0, x, schedule: EpsilonSchedule,
                  kappa: int, rng_seed: int):
    """Smallest noise scale on the geometric ladder whose empirical loss at
    the starting parameters departs from 2 log 2 by at least delta, for the
    model's own kernel class (``model.kernel``).

    Returns (epsilon, capped).  Where no rung meets the gap, the ladder's
    top is returned.  The ladder stops at the kernel's ``epsilon_cap``, the
    end of its scale's range, where that comes before the schedule's
    ``epsilon_max``; ``capped`` is set only when the ladder ends at
    ``epsilon_max``, which a larger ``epsilon_max`` would move.  Ending at
    the kernel's cap is no failure: the loss is still minimised at the
    truth there (the flip kernel at eps = 1).  The kernel's scale-free
    random part is drawn once, from ``rng_seed``, and every rung perturbs x
    with it, so each rung's noise is the one ``sample_conditional`` gives
    for that scale and seed, and each rung's value is ``cnce_loss`` on it.
    With shared draws the scan is monotone in the scale.
    """
    x = np.asarray(x, dtype=float)
    if kappa < 1:
        raise ParameterError("kappa must be >= 1")
    cap = model.kernel.epsilon_cap
    ladder = schedule.ladder(cap)
    base = None
    for eps in ladder:
        kernel = model.kernel.for_data(eps, x)
        if base is None:
            base = kernel.draw(x, kappa, rng_from(rng_seed))
        value = cnce_loss(model, theta0, x, kernel.perturb(x, base))
        if abs(value - TWO_LOG2) >= schedule.delta:
            return eps, False
    return ladder[-1], cap is None or schedule.epsilon_max < cap
