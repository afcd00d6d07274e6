"""Per-layer tracing for the cnce benchmark, from outside the program.

``install`` wraps the public names that ``run_single`` calls, at the module
attribute it calls them through, and wraps the objective closures that the
loss builders return.  Each wrapped call records a span: name, start, end,
parent span name, cell and process.  Objective calls are too many to keep
one span each, so they are counted and timed into the enclosing span.

Spans stay in memory and are appended to ``trace-<pid>.jsonl`` in the trace
directory when a cell ends and when the process exits, so pool workers
(which leave without running exit handlers) lose nothing.
"""

from __future__ import annotations

import atexit
import json
import os
import time

import numpy as np


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.spans = []
        self.stack = []
        self.cell = None
        self.obj_calls = 0
        self.obj_s = 0.0

    def flush(self):
        if not self.spans:
            return
        path = os.path.join(self.trace_dir, f"trace-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans.clear()

    def wrap(self, name, fn, annotate=None):
        """Span around every call of fn; annotate(result) adds fields."""

        def traced(*args, **kwargs):
            span = {"name": name, "cell": self.cell, "pid": os.getpid(),
                    "parent": self.stack[-1] if self.stack else None}
            calls0, obj0 = self.obj_calls, self.obj_s
            self.stack.append(name)
            span["t0"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["t1"] = time.perf_counter()
                self.stack.pop()
                span["obj_calls"] = self.obj_calls - calls0
                span["obj_s"] = self.obj_s - obj0
                self.spans.append(span)
            if annotate is not None:
                span.update(annotate(out))
            return out

        return traced

    def wrap_objective(self, objective):
        def traced_objective(raw):
            t0 = time.perf_counter()
            try:
                return objective(raw)
            finally:
                self.obj_calls += 1
                self.obj_s += time.perf_counter() - t0

        return traced_objective

    def wrap_builder(self, fn):
        """Objective builder: the span carries the bytes of the arrays the
        returned closure holds, and the closure itself is wrapped."""
        traced = self.wrap("losses.build", fn,
                           annotate=lambda obj: {"mb": _closure_mb(obj)})

        def build(*args, **kwargs):
            return self.wrap_objective(traced(*args, **kwargs))

        return build

    def wrap_cell(self, fn):
        traced = self.wrap("experiments.run_single", fn)

        def cell(cfg, method, n, kappa, repeat, *args, **kwargs):
            self.cell = f"{cfg.model.kind}-{method}-n{n}-k{kappa}-r{repeat}"
            try:
                return traced(cfg, method, n, kappa, repeat, *args, **kwargs)
            finally:
                self.cell = None
                self.flush()

        return cell


def _nbytes(values, seen):
    """Bytes of the distinct arrays among values, looking into tuples, lists
    and plain objects' attributes."""
    total = 0
    for v in values:
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            total += _nbytes(v, seen)
        elif hasattr(v, "__dict__") and not callable(v):
            total += _nbytes(vars(v).values(), seen)
    return total


def _closure_mb(fn) -> float:
    cells = getattr(fn, "__closure__", None) or ()
    values = []
    for c in cells:
        try:
            values.append(c.cell_contents)
        except ValueError:  # empty cell
            pass
    return _nbytes(values, set()) / 1e6


def _noise_mb(out) -> dict:
    return {"mb": _nbytes([out], set()) / 1e6}


def install(trace_dir: str) -> Tracer:
    import cnce.experiments as ex
    import cnce.losses as losses
    import cnce.models as models
    import cnce.optimize as opt

    tr = Tracer(trace_dir)
    minimize = tr.wrap("optimize.minimize", opt.minimize,
                       annotate=lambda run: {"iters": int(run.iters)})
    ex.minimize = minimize
    opt.minimize = minimize  # mle_fit's ICA route imports it from here
    ex.adapt_epsilon = tr.wrap("optimize.adapt_epsilon", ex.adapt_epsilon,
                               annotate=lambda out: {"capped": bool(out[1])})
    opt.cnce_loss = tr.wrap("optimize.ladder_rung", opt.cnce_loss)
    for name in ("cnce_objective", "nce_objective", "score_matching_objective"):
        setattr(ex, name, tr.wrap_builder(getattr(ex, name)))
    losses.ica_mle_objective = tr.wrap_builder(losses.ica_mle_objective)
    ex.mle_fit = tr.wrap("losses.mle_fit", ex.mle_fit)
    for name in ("sample_conditional", "sample_marginal"):
        setattr(ex, name, tr.wrap("kernels.noise", getattr(ex, name),
                                  annotate=_noise_mb))
    ex.estimation_error = tr.wrap("experiments.estimation_error",
                                  ex.estimation_error)
    for cls in vars(models).values():
        if isinstance(cls, type) and "sample" in vars(cls):
            cls.sample = tr.wrap("models.sample", cls.sample)
    ex.run_single = tr.wrap_cell(ex.run_single)
    atexit.register(tr.flush)
    return tr
