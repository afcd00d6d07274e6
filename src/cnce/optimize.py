"""Deterministic full-batch optimiser plus the noise-scale adaptation
heuristic.

``minimize`` has two routes, chosen by what the objective returns at the
start point:

- ``(value, grad, hess)``: damped Newton.  Each step solves with the exact
  Hessian plus the smallest Levenberg damping that makes it positive
  definite, then backtracks to the Armijo condition.  The affine-feature
  objectives of ``losses`` take this route.
- ``(value, grad)``: a per-coordinate adaptive-moment phase (full batch,
  fixed step) followed by a backtracking gradient-descent polish that
  certifies a monotone tail and a clean gradient norm;
  ``step_rule="backtracking_gd"`` skips the first phase.

Everything is a pure function of (objective, start, config, seed): traces
are bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import OptimizationError, ParameterError
from .kernels import kernel_for_data, sample_conditional
from .losses import TWO_LOG2, cnce_loss
from .seeding import rng_from, stable_hash

STEP_RULES = ("adaptive_moment", "backtracking_gd")


@dataclass(frozen=True)
class OptimizerConfig:
    """``max_iters``, ``grad_tol``, ``restarts`` and ``init_scale`` govern
    both routes of ``minimize``.  ``step_rule``, ``adam_*``,
    ``polish_iters`` and ``plateau_*`` apply to the first-order route only.
    On the Newton route ``max_iters`` caps the whole trace; on the
    first-order route it caps the first phase, and the polish may add up to
    ``polish_iters + 1`` entries."""

    max_iters: int = 2000
    grad_tol: float = 1e-7  # infinity norm
    step_rule: str = "adaptive_moment"
    init_scale: float = 0.3
    restarts: int = 1
    adam_step: float = 0.05
    adam_betas: tuple = (0.9, 0.999)
    polish_iters: int = 200
    plateau_window: int = 0  # 0 disables the plateau stop
    plateau_rtol: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise ParameterError("grad_tol must be > 0")
        if self.step_rule not in STEP_RULES:
            raise ParameterError(f"step_rule must be one of {STEP_RULES}")
        if self.restarts < 1:
            raise ParameterError("restarts must be >= 1")


@dataclass(frozen=True)
class EpsilonSchedule:
    epsilon_0: float = 0.05
    growth: float = 2.0
    delta: float = 0.05  # required gap from the degenerate loss value 2 log 2
    epsilon_max: float = 4.0

    def __post_init__(self):
        if self.epsilon_0 <= 0:
            raise ParameterError("epsilon_0 must be > 0")
        if self.growth <= 1:
            raise ParameterError("growth must be > 1")
        if not 0 < self.delta < TWO_LOG2:
            raise ParameterError("delta must lie in (0, 2 log 2)")

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
    """One optimiser trajectory."""

    theta0: np.ndarray
    theta: np.ndarray
    loss_trace: list = field(default_factory=list)
    grad_norm_trace: list = field(default_factory=list)
    converged: bool = False
    iters: int = 0
    wall_ms: float = 0.0
    warning: str | None = None


def _check_finite(value, grad, run):
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise OptimizationError("non-finite loss or gradient", run=run)


def _record(run, value, grad):
    run.loss_trace.append(float(value))
    run.grad_norm_trace.append(float(np.max(np.abs(grad))))
    run.iters += 1


def _plateaued(trace, cfg) -> bool:
    """Best-so-far improvement over the trailing window; the raw trace
    oscillates under the adaptive-moment rule."""
    w = cfg.plateau_window
    if w <= 0 or len(trace) <= w:
        return False
    best_now = min(trace)
    best_then = min(trace[:-w])
    return best_then - best_now <= cfg.plateau_rtol * max(1.0, abs(best_now))


def _adam_phase(loss_fn, z, first, cfg, run) -> np.ndarray:
    b1, b2 = cfg.adam_betas
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    z_best, v_best = z, np.inf
    for t in range(1, cfg.max_iters + 1):
        value, grad = first if t == 1 else loss_fn(z)
        _check_finite(value, grad, run)
        _record(run, value, grad)
        if value < v_best:
            z_best, v_best = z, value
        if run.grad_norm_trace[-1] <= cfg.grad_tol:
            run.converged = True
            return z
        if _plateaued(run.loss_trace, cfg):
            break
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        z = z - cfg.adam_step * mhat / (np.sqrt(vhat) + 1e-8)
    return z_best  # the trace oscillates; hand the best visited point on


def _backtracking_phase(loss_fn, z, cfg, iters, run, first=None) -> np.ndarray:
    value, grad = loss_fn(z) if first is None else first
    _check_finite(value, grad, run)
    _record(run, value, grad)
    if run.grad_norm_trace[-1] <= cfg.grad_tol:
        run.converged = True
        return z
    step = 0.01
    for _ in range(iters):
        # double then halve: accepted losses are non-increasing
        step *= 2.0
        while True:
            z_new = z - step * grad
            v_new, g_new = loss_fn(z_new)
            if np.isfinite(v_new) and v_new <= value - 1e-4 * step * float(grad @ grad):
                break
            step *= 0.5
            if step < 1e-14:
                run.warning = "backtracking step collapsed"
                return z
        z, value, grad = z_new, v_new, g_new
        _check_finite(value, grad, run)
        _record(run, value, grad)
        if run.grad_norm_trace[-1] <= cfg.grad_tol:
            run.converged = True
            break
        if _plateaued(run.loss_trace, cfg):
            break
    return z


def _newton_direction(hess, grad) -> np.ndarray:
    """-(H + lam I)^{-1} grad with Levenberg damping lam.

    lam starts at 1e-12 s (s the largest diagonal magnitude of H) and
    doubles until H + lam I has a Cholesky factor.  The floor keeps a
    rank-deficient H (the Bernoulli scale, a vanishing log-normal C) from
    amplifying rounding along its null space.  Where the floor is not
    enough, H is indefinite (the log-space chain rule of a positive
    parameter far from its optimum) and the factor found may be barely
    positive definite; lam then also gets the gradient's infinity norm,
    which bounds the step's Euclidean length by sqrt(p).
    """
    eye = np.eye(len(grad))
    floor = 1e-12 * (float(np.max(np.abs(np.diag(hess)))) or 1.0)
    lam = floor
    while True:
        try:
            np.linalg.cholesky(hess + lam * eye)
            break
        except np.linalg.LinAlgError:
            lam *= 2.0
    if lam > floor:
        lam += float(np.max(np.abs(grad)))
    return -np.linalg.solve(hess + lam * eye, grad)


def _all_finite(out) -> bool:
    return all(np.all(np.isfinite(a)) for a in out)


def _newton_phase(loss_fn, z, first, cfg, run) -> np.ndarray:
    if not _all_finite(first):
        raise OptimizationError("non-finite loss, gradient or Hessian", run=run)
    value, grad, hess = first
    while True:
        _record(run, value, grad)
        if run.grad_norm_trace[-1] <= cfg.grad_tol:
            run.converged = True
            return z
        if run.iters >= cfg.max_iters:
            return z
        direction = _newton_direction(hess, grad)
        slope = float(grad @ direction)
        step = 1.0
        while True:
            z_new = z + step * direction
            # a trial that overflows is rejected like one that fails Armijo,
            # so only finite points are ever accepted
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out = loss_fn(z_new)
            if _all_finite(out) and out[0] <= value + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-14:
                run.warning = "newton line search collapsed"
                return z
        z, (value, grad, hess) = z_new, out


def _single_start(loss_fn, z0, cfg) -> EstimationRun:
    run = EstimationRun(theta0=np.array(z0, dtype=float), theta=np.array(z0, dtype=float))
    z = np.array(z0, dtype=float)
    first = loss_fn(z)
    if len(first) == 3:
        z = _newton_phase(loss_fn, z, first, cfg, run)
    elif cfg.step_rule == "adaptive_moment":
        z = _adam_phase(loss_fn, z, first, cfg, run)
        run.theta = z
        if not run.converged and cfg.polish_iters > 0:
            z = _backtracking_phase(loss_fn, z, cfg, cfg.polish_iters, run)
    else:
        z = _backtracking_phase(loss_fn, z, cfg, cfg.max_iters, run, first)
    run.theta = z
    return run


def minimize(loss_fn, theta0, cfg: OptimizerConfig, rng_seed: int = 0) -> EstimationRun:
    """Minimise a differentiable objective from theta0 (unconstrained
    coordinates).  With restarts > 1 the extra starts are drawn N(0,
    init_scale^2) from the seeded generator and the best final loss wins.

    ``loss_fn(z)`` returns ``(value, grad)`` or ``(value, grad, hess)``.
    The first call, at the start point, picks the route for that start:
    with a Hessian, damped Newton with Armijo backtracking, stopping at
    ``grad_tol``, at ``max_iters`` trace entries, or (with ``run.warning``
    set, not converged) when the line search collapses; without one, the
    adaptive-moment phase and backtracking polish selected by
    ``step_rule``.  ``run.iters == len(run.loss_trace)`` on both routes.
    """
    theta0 = np.asarray(theta0, dtype=float)
    started = time.perf_counter()
    rng = rng_from(stable_hash(rng_seed, "restarts"))
    best = None
    for r in range(cfg.restarts):
        z0 = theta0 if r == 0 else cfg.init_scale * rng.standard_normal(len(theta0))
        run = _single_start(loss_fn, z0, cfg)
        if best is None or run.loss_trace[-1] < best.loss_trace[-1]:
            best = run
    best.wall_ms = (time.perf_counter() - started) * 1e3
    return best


def adapt_epsilon(model, theta0_raw, x, kernel_kind: str,
                  schedule: EpsilonSchedule, kappa: int, rng_seed: int,
                  per_dim: bool = True):
    """Smallest noise scale on the geometric ladder whose empirical loss at
    the starting parameters departs from 2 log 2 by at least delta.

    Returns (epsilon, capped).  ``capped`` is set when no ladder value meets
    the gap and the ladder top is returned instead.  The same generator seed
    is reused across ladder steps, so for the Gaussian kernel the underlying
    standard-normal draws are shared and the scan is monotone in the scale.
    """
    theta = model.from_raw(np.asarray(theta0_raw, dtype=float))
    x = np.asarray(x, dtype=float)
    cap = 1.0 if kernel_kind == "bernoulli_flip" else None
    for eps in schedule.ladder(cap):
        kernel = kernel_for_data(kernel_kind, eps, x, per_dim=per_dim)
        pairing = sample_conditional(kernel, x, kappa, rng_seed)
        value = cnce_loss(model, theta, x, pairing).value
        if abs(value - TWO_LOG2) >= schedule.delta:
            return eps, False
    return schedule.ladder(cap)[-1], True
