"""Deterministic full-batch optimiser plus the noise-scale adaptation
heuristic.

``minimize`` runs one descent loop: record the point, test the stops, take
a direction, search along it, move.  The direction is one of two, one for
each of the two objective shapes of the ``losses`` docstring, chosen by the
third slot of what the objective returns at the start point:

- A callable, which returns the Hessian: damped Newton, with the smallest
  Levenberg damping that makes the Hessian positive definite.  The
  callable is called once per Newton direction, right after the objective
  call that returned it: never at a rejected line-search trial or at the
  point the run ends on.  The start point's Hessian is evaluated and
  checked before its first record.
- Anything else, the loss's standard error se: BFGS, which works on
  objectives with |.| kinks (Lewis and Overton 2013, Math. Programming
  141).  The Laplace ICA objectives take this route.  Its first step is
  steepest descent, ``FIRST_STEP`` long in its largest coordinate.

Both go to one weak Wolfe line search, whose first trial is the full step
(Nocedal and Wright 2006, Numerical Optimization, section 3.1).  Newton's
decrease test admits Hager and Zhang's approximate Wolfe test where the
loss cannot resolve the decrease (``_accept``).  Every BFGS step meets
Armijo's condition, so a BFGS trace decreases and the point handed on is
its last; a Newton step that meets the approximate test instead, and
lowers the gradient's infinity norm as that test also asks, may leave the
loss up to ``_FLAT_ULPS`` ulps higher.  The search rejects a non-finite
trial, and one that does not move the point, like one that fails the
decrease test.

Stop reasons (``EstimationRun.stop``): ``grad_tol`` and ``stat_tol``, which
count as converged, ``max_iters`` (trace length), ``step_collapse`` (the
line search ran out of its ``_WOLFE_TRIALS`` trials where the statistical
stop does not apply) and ``nonfinite`` (a non-finite loss, gradient or
Hessian).  The line search accepts points of finite loss and gradient
only, so a run whose loss turns non-finite mid-run ends on
``step_collapse`` at its last finite point.  A non-finite start comes back
with an empty trace, and a Newton run stops at the point whose Hessian is
non-finite, with no record of it where that is the start.  ``minimize``
never raises for a non-finite value.  ``mle_fit`` adds ``closed_form``, a
converged run with an empty trace.

The statistical stop.  The ICA objectives have |.| kinks, where the
gradient norm stalls far above any useful ``grad_tol``.  Their third slot
is the loss's sampling standard error at the start point.  Optimising
below the estimator's own sampling error buys nothing (Bottou, Curtis and
Nocedal 2018, SIAM Review 60(2), sections 3-4), so BFGS stops with
``stat_tol`` once the loss has improved by at most ``STAT_FRACTION``
standard errors over the last ``STAT_WINDOW`` iterations, or where its
line search fails with every trial finite and none below the current
loss: no step tried along the direction lowers the loss, as at the exact
minimiser of a kinked objective, so none lowers it by a fraction of its
standard error.  The window crosses most plateaus of the whitened ICA
MLE, where a run can improve by less than that for dozens of iterations
and then fall by half a standard error or more: on ``ica_grid`` master
seeds 601-660, a window of 40 stopped 7 of 120 MLE cells more than 0.01
se above full-batch Adam's loss, one of 60 stopped 4 and one of 80
stopped 3.  An se of NaN
means unknown: the run never meets the statistical stop, and ends on
``grad_tol``, ``step_collapse`` or ``max_iters``.  A Newton run has no se
and never meets it either.

The loop's own cost.  At Laplace ICA's shapes (d = 4, n <= 2000) an
iteration's bookkeeping costs about as much as an objective call, so the
loop makes few numpy calls and allocates little: a trial's loss is tested
with ``math.isfinite`` and its gradient with one ``isfinite(...).all()``,
the no-move test is ``(z_new != z).any()``, ``np.errstate`` is entered once
per line search, and the BFGS update is computed in place, in two (p, p)
buffers kept for the run, with one ``np.multiply.outer(hy, s)`` and its
transpose for hy s' + s hy'.  Each element rounds as in the textbook
update from three fresh outer products, which ``tests/oracles.py``
restates and the tests hold to the same bits.  On ICA MLE fits (master seed 5, 30 repeats at
each of n 500 and 2000, 8225 iterations, 1.37 objective calls per
iteration; 2-core VM, one BLAS thread, medians of 3 runs), the loop took
47 microseconds per iteration and the objective 44 per call with fresh
arrays, a finiteness generator, an errstate per trial and ``np.mean``;
as written here and in ``losses``, they take 27 and 34.

``minimize`` starts where its caller says: ``experiments.run_single``
gives the contrastive Newton fits of an affine model its closed-form
estimate and the other fits a random start (``experiments`` docstring).
A fit is a pure function of (objective, start, config): traces are
bit-reproducible, and no clock is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, convert_fields
from .losses import TWO_LOG2, cnce_loss
from .seeding import rng_from

STAT_WINDOW = 60  # iterations the loss must improve over
STAT_FRACTION = 0.01  # ... by more than this many standard errors
FIRST_STEP = 0.05  # largest coordinate of the first BFGS step
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_WOLFE = 0.9  # curvature constant of the line search
_WOLFE_TRIALS = 50  # objective calls the line search may take per step
_FLAT_ULPS = 16  # a change this many ulps of |f| is rounding, not decrease


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of ``minimize``, on both its directions, damped Newton and
    BFGS: ``max_iters`` (2000, >= 1) caps the trace length and ``grad_tol``
    (1e-7, > 0) is the gradient stop.  BFGS's first step and line
    search are constants, and so is its statistical stop: it ends a run
    once progress falls below the loss's own sampling error, which no
    setting should trade away."""

    max_iters: int = 2000
    grad_tol: float = 1e-7  # infinity norm

    def __post_init__(self):
        convert_fields(self)
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise ParameterError("grad_tol must be finite and > 0")


@dataclass(frozen=True)
class EpsilonSchedule:
    """The doubling ladder of noise scales that ``adapt_epsilon`` scans,
    epsilon_0 2^k, the ``epsilon_schedule`` of a ``cnce experiment``
    config.  Each field is a finite real, not a bool or a string:
    ``epsilon_0`` (0.05, > 0), the first rung; ``delta`` (0.05, in
    (0, 2 log 2)), the gap from the degenerate loss value 2 log 2 that a
    rung must reach; ``epsilon_max`` (4.0, >= epsilon_0), the last rung,
    unless the kernel's ``epsilon_cap`` comes first.  An ``ExperimentConfig``
    with auto CNCE refuses an ``epsilon_0`` above that cap, which the
    ladder would drop unread."""

    epsilon_0: float = 0.05
    delta: float = 0.05
    epsilon_max: float = 4.0

    def __post_init__(self):
        convert_fields(self)
        if self.epsilon_0 <= 0:
            raise ParameterError("epsilon_0 must be > 0")
        if not 0 < self.delta < TWO_LOG2:
            raise ParameterError("delta must lie in (0, 2 log 2)")
        if self.epsilon_max < self.epsilon_0:
            raise ParameterError("epsilon_max must be >= epsilon_0")

    def ladder(self, cap: float | None = None) -> list:
        top = self.epsilon_max if cap is None else min(self.epsilon_max, cap)
        out = []
        eps = self.epsilon_0
        while eps < top * (1 - 1e-12):
            out.append(eps)
            eps *= 2.0
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
    run.grad_norm_trace.append(float(np.abs(grad).max()))


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


def _accept(value, grad, out, step, slope, direction) -> bool:
    """Armijo's f_new <= f + c step phi'(0), for a trial with objective
    output ``out`` from a point of loss ``value`` and gradient ``grad``.  On
    the Newton route (``out[2]`` callable), where |f_new - f| is within
    _FLAT_ULPS ulps of |f| (a last Newton step, whose decrease is below the
    loss's rounding error), Hager and Zhang's approximate Wolfe test
    phi'(step) <= (2c - 1) phi'(0) takes its place (2005, SIAM J. Optim.
    16(1)), and the trial must also lower the gradient's infinity norm below
    the current point's: the loss cannot tell such a step from a move at
    rounding level, the gradient can, so a run whose moves no longer reduce
    it ends on ``step_collapse``, not at ``max_iters``.  BFGS keeps Armijo's
    test there: on a kinked loss the flat test accepts moves at rounding
    level."""
    if callable(out[2]) and abs(out[0] - value) <= _FLAT_ULPS * np.spacing(abs(value)):
        return (float(out[1] @ direction) <= (2 * _ARMIJO - 1) * slope
                and np.abs(out[1]).max() < np.abs(grad).max())
    return out[0] <= value + _ARMIJO * step * slope


def _wolfe_search(loss_fn, z, value, grad, direction):
    """The first step along ``direction`` that meets both weak Wolfe
    conditions, ``_accept``'s decrease test and the curvature condition
    phi'(step) >= c2 phi'(0): a step that fails the first bounds the bracket
    above, one that fails the second bounds it below.  The first trial is
    the full step; the bracket grows by doubling until it has an upper end,
    then shrinks by bisection (Lewis and Overton 2013), so a Newton step
    that fails the decrease test is halved.
    Returns (point, objective output) or, after ``_WOLFE_TRIALS`` trials
    without one, (None, flat): flat where every trial was finite and none
    had a loss below f, so that no step tried lowers the loss."""
    slope = float(grad @ direction)
    low, high, step = 0.0, np.inf, 1.0
    flat = True
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_WOLFE_TRIALS):
            z_new = z + step * direction
            out = loss_fn(z_new)
            finite = math.isfinite(out[0]) and np.isfinite(out[1]).all()
            flat = flat and finite and out[0] >= value
            # a non-finite trial, or one that does not move the point, is
            # rejected like one that fails the decrease test
            if not (finite and _accept(value, grad, out, step, slope, direction)
                    and (z_new != z).any()):
                high = step
            elif float(out[1] @ direction) < _WOLFE * slope:
                low = step
            else:
                return z_new, out
            step = 2.0 * step if high == np.inf else 0.5 * (low + high)
    return None, flat


def minimize(loss_fn, theta0, cfg: OptimizerConfig) -> EstimationRun:
    """Minimise a differentiable objective from theta0 (unconstrained
    coordinates).

    ``loss_fn(z)`` returns ``(value, grad, hess)`` or ``(value, grad, se)``
    (``losses`` docstring).  The first call, at the start point, picks the
    direction: Newton's where its third slot is callable, BFGS's otherwise,
    which reads ``se`` from that call alone.  Either direction goes to the
    one line search, ``_wolfe_search``.  BFGS's first step is steepest
    descent, ``FIRST_STEP`` long in its largest coordinate; its inverse
    Hessian starts at (s'y / y'y) I from the first step that has s'y > 0
    and takes the standard update from every such step after.
    ``run.iters <= cfg.max_iters``.
    """
    z = np.array(theta0, dtype=float)
    run = EstimationRun(theta=z)
    value, grad, third = loss_fn(z)  # third: the Hessian callable or the se
    newton = callable(third)
    tol = np.nan if newton else STAT_FRACTION * float(third)  # NaN: never met
    hess = third() if newton else None
    if not (math.isfinite(value) and np.isfinite(grad).all()
            and (not newton or np.isfinite(hess).all())):
        run.stop = "nonfinite"
        return run
    h = None  # BFGS's inverse Hessian estimate, updated in place
    while True:
        _record(run, value, grad)
        if run.grad_norm_trace[-1] <= cfg.grad_tol:
            run.stop = "grad_tol"
            break
        if run.iters > STAT_WINDOW and run.loss_trace[-STAT_WINDOW - 1] - value <= tol:
            run.stop = "stat_tol"
            break
        if run.iters >= cfg.max_iters:
            run.stop = "max_iters"
            break
        if newton:
            if hess is None:  # an accepted point's, built only now that a step needs it
                hess = third()
                if not np.isfinite(hess).all():
                    run.stop = "nonfinite"
                    break
            direction = _newton_direction(hess, grad)
        elif h is None:
            direction = -FIRST_STEP / run.grad_norm_trace[-1] * grad
        else:
            direction = -h @ grad
        z_new, out = _wolfe_search(loss_fn, z, value, grad, direction)
        if z_new is None:
            # flat (out): no trial lowered the loss, so none lowered it by
            # a fraction of a known standard error
            run.stop = "stat_tol" if out and not np.isnan(tol) else "step_collapse"
            break
        value, grad_new, third = out
        if not newton:
            s, y = z_new - z, grad_new - grad
            sy = float(s @ y)
            if sy > 0:
                if h is None:
                    h = sy / float(y @ y) * np.eye(len(z))
                    a, b = np.empty_like(h), np.empty_like(h)
                # h + ((sy + y'hy) / sy^2) s s' - (hy s' + s hy') / sy,
                # with s hy' as a', product for product
                hy = h @ y
                np.multiply.outer(s, s, out=a)
                a *= (sy + float(y @ hy)) / sy**2
                h += a
                np.multiply.outer(hy, s, out=a)
                np.add(a, a.T, out=b)
                b /= sy
                h -= b
        z, grad, hess = z_new, grad_new, None
    run.theta = z
    return run


def adapt_epsilon(model, theta0, x, schedule: EpsilonSchedule,
                  kappa: int, rng_seed: int):
    """Smallest noise scale on the doubling ladder whose empirical loss at
    the starting parameters departs from 2 log 2 by at least delta, for the
    model's own kernel class (``model.kernel``).

    Returns (epsilon, capped, noise).  Where no rung meets the gap, the
    ladder's top is returned.  The ladder stops at the kernel's
    ``epsilon_cap``, the end of its scale's range, where that comes before
    the schedule's ``epsilon_max``; ``capped`` is set only when the ladder
    ends at ``epsilon_max``, which a larger ``epsilon_max`` would move.
    Ending at the kernel's cap is no failure: the loss is still minimised at
    the truth there (the flip kernel at eps = 1).  The kernel's scale-free
    random part is drawn once, from ``rng_seed``, and every rung perturbs x
    with it, so each rung's noise is the one ``sample_conditional`` gives
    for that scale and seed, and each rung's value is ``cnce_loss`` on it.
    With shared draws the scan is monotone in the scale.  ``noise`` is the
    (n, kappa, dim) noise of the returned rung, bit for bit
    ``sample_conditional(model.kernel.for_data(epsilon, x), x, kappa,
    rng_seed)``, so a fit at the picked scale needs no second draw.
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
        noise = kernel.perturb(x, base)
        if abs(cnce_loss(model, theta0, x, noise) - TWO_LOG2) >= schedule.delta:
            return eps, False, noise
    return ladder[-1], cap is None or schedule.epsilon_max < cap, noise
