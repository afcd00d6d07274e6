"""Synthetic-study harness: seeded estimation runs over (method, N, kappa)
grids, error metrics with the model-specific ambiguity handling, quantile
summaries, result persistence, and the small-noise expansion check.

Where each fit starts: ``run_single`` draws theta0 from the cell's seed
(``model.init_theta``, at its fixed spread), where the noise-scale ladder,
score matching and the ICA CNCE and NCE fits start; the ICA MLE draws its
own start.  The CNCE and NCE fits of an affine model, damped Newton on a
loss convex in theta, start instead at the model's closed-form estimate
(``newton_start``), NCE's c at its log-normaliser there: both starts
reach the same minimiser, and on the benchmark's affine grid (seeds
1-20) the closed-form one took 1128 Newton iterations, score matching's
240 included, where theta0 took 1913.  An NCE cell takes that start and
its c before it builds its rows, so that their temporaries are freed
before the cell's largest array exists.

Each cell draws from named child hashes of its seed, one stream per use:
``params`` (theta_true), ``data`` (x), ``init`` (theta0), ``noise`` (CNCE's
conditional noise, drawn once and shared by the ladder and the fit: the
ladder scans its rungs on that draw and hands the fit its picked rung's
noise), ``nce_noise`` (NCE's marginal noise) and ``mle`` (the ICA MLE's
start).  At any one epsilon the ladder's noise is the fit's noise at that
fixed epsilon bit for bit, so an ``"auto"`` row equals the row of a fixed
``epsilon`` at its pick.

Determinism contract: every run derives its generator from
``stable_hash(master_seed, model kind, method, n, kappa, repeat)`` and
sub-streams from named child hashes, so results are independent of execution
order and worker count, and re-running a config reproduces the output files
byte for byte, for one numpy/OpenBLAS build and allocation pattern: OpenBLAS
can round a product of the same array differently at another memory
alignment, which moves an error in its last digits.  The bytes do not depend
on the BLAS thread count at the shapes checked: every model at its default
dim with every method it has, N 1000/4000/8000, kappa 10 and master seed 1.
The one product OpenBLAS splits across threads there, a one-column
``vjp``, sums in numpy instead.  Other products split at other shapes, so
there the error moves in its last digits between 1 and 2 threads: in a
Gaussian ``cnce`` + ``nce`` grid with those settings, at dim 4 the NCE row
at N = 8000, and at dim 6, 7 or 8 most rows; dim 3 does not move.  On the
column-major rows of ``models``, products that split include ``w @ phi``
at 9-14, 17-22, 25-30 and 33-38 columns over 80 000 rows (and from 11
columns over 44 000, from 25 over 20 000), the weighted Gram
``blk.T @ (blk * w)`` of ``models._weighted_gram`` from 33 columns over
20 000 rows or more (from 19 over 11 000, whose last block is short), and
a one-column ``x.T @ x`` or ``np.cov`` over 40 000 rows.
``import cnce`` sets one BLAS thread (``OPENBLAS_NUM_THREADS=1``) unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set;
numpy reads the count when it is first imported, so the default holds only
when ``cnce`` is imported before numpy.  No clock is read on the way to
an output: neither a fit (``optimize``) nor a record carries a time, so
``results.csv`` has no timing column.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .errors import (CnceError, ParameterError, UnsupportedModelError, _integer, _real,
                     _sequence, convert_fields)
from .kernels import fit_marginal, log_density_marginal, sample_conditional, sample_marginal
from .losses import (
    TWO_LOG2,
    cnce_objective,
    mle_fit,
    nce_log_normaliser,
    nce_objective,
    score_matching_objective,
)
from .models import _CLASSES, GaussianPrecisionModel
from .optimize import EpsilonSchedule, EstimationRun, OptimizerConfig, adapt_epsilon, minimize
from .seeding import rng_from, stable_hash

METHODS = ("cnce", "nce", "mle", "score_matching")


@dataclass(frozen=True)
class ExperimentConfig:
    """A (method, N, kappa) grid of estimation runs, and the schema of a
    ``cnce experiment`` config, which writes the model as an object of its
    ``kind`` and its class's fields (``models``), each optional:
    ``{"kind": "ring", "dim": 2, "mu": 3.0}``.  An int takes an integral
    float (2.0 is 2), a float any finite real, and neither a bool or a
    string.

    - ``model`` (an instance of a ``models`` class) and ``methods`` (a
      non-empty tuple of the model's ``methods``): required.
    - ``n_grid``, ``kappa_grid`` (tuples of int, required): non-empty,
      strictly ascending, >= 1; with ``"nce"``, every n >= dim + 1, and
      with ``"mle"``, every n >= dim.
    - ``repeats`` (int, 20, >= 1) and ``master_seed`` (int, 0).
    - ``epsilon``: ``"auto"`` (default), which ``adapt_epsilon`` picks on
      ``epsilon_schedule`` per run, or CNCE's fixed noise scale, a float
      > 0 and, with ``"cnce"``, at most the model kernel's ``epsilon_cap``
      (1 for Bernoulli's flip probability).
    - ``optimizer``, ``epsilon_schedule``: an ``OptimizerConfig`` and an
      ``EpsilonSchedule``, their defaults by default; with ``"cnce"`` and
      ``"auto"``, the schedule's ``epsilon_0`` is at most that cap too.
    """

    model: object
    methods: tuple
    n_grid: tuple
    kappa_grid: tuple
    repeats: int = 20
    master_seed: int = 0
    epsilon: object = "auto"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epsilon_schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        convert_fields(self)
        object.__setattr__(self, "methods", _sequence(self.methods, "methods"))
        for name in ("n_grid", "kappa_grid"):
            grid = tuple(_integer(v, f"{name} entry")
                         for v in _sequence(getattr(self, name), name))
            if not grid or grid[0] < 1 or list(grid) != sorted(set(grid)):
                raise ParameterError(
                    f"{name} must be non-empty, strictly ascending, integers >= 1")
            object.__setattr__(self, name, grid)
        if self.epsilon != "auto":
            object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
            if self.epsilon <= 0:
                raise ParameterError("epsilon must be 'auto' or > 0")
        if self.repeats < 1:
            raise ParameterError("repeats must be >= 1")
        if not self.methods:
            raise ParameterError("methods must be non-empty")
        for m in self.methods:
            if m not in self.model.methods:
                raise ParameterError(
                    f"method {m!r} unsupported for {self.model.kind}"
                )
        if len(set(self.methods)) < len(self.methods):
            raise ParameterError(f"methods must not repeat: {list(self.methods)}")
        if "nce" in self.methods and any(n < self.model.dim + 1 for n in self.n_grid):
            # the moment-matched noise needs a covariance fit
            raise ParameterError("nce needs every n >= dim + 1")
        if "mle" in self.methods and any(n < self.model.dim for n in self.n_grid):
            # x'x / n, which every MLE here inverts or whitens by, is singular
            raise ParameterError("mle needs every n >= dim")
        # CNCE's noise scale, or the ladder's first rung, which the ladder
        # would otherwise drop unread for the cap
        cap = self.model.kernel.epsilon_cap
        if "cnce" in self.methods and cap is not None:
            name, eps = (("epsilon_0", self.epsilon_schedule.epsilon_0)
                         if self.epsilon == "auto" else ("epsilon", self.epsilon))
            if eps > cap:
                raise ParameterError(
                    f"{name} must be <= {cap}, the cap of the {self.model.kind} kernel")


@dataclass(frozen=True)
class ErrorRecord:
    run_id: str
    model: str
    method: str
    n: int
    kappa: int
    epsilon: float | None
    seed: int
    error: float
    sq_error: float
    converged: bool
    iters: int


CSV_HEADER = tuple(f.name for f in fields(ErrorRecord))


@dataclass(frozen=True)
class QuantileSummary:
    method: str
    n: int
    kappa: int
    median: float
    q10: float
    q90: float


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def estimation_error(model, theta_hat, theta_true) -> float:
    """Distance between estimated and true parameters, with the model's
    paper-specific disambiguations (``model.error``)."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_hat.shape != theta_true.shape or theta_hat.shape != (model.param_count,):
        raise ParameterError("parameter vectors disagree in shape")
    return model.error(theta_hat, theta_true)


# ---------------------------------------------------------------------------
# single estimation runs
# ---------------------------------------------------------------------------

def _run_id(model_kind, method, n, kappa, repeat) -> str:
    return f"{model_kind}-{method}-n{n:09d}-k{kappa:05d}-r{repeat:04d}"


def newton_start(model, x, theta0):
    """Where a contrastive fit of ``model`` on x starts: its closed-form
    estimate, ``model.mle(x)`` or, where the model has no MLE, the
    score-matching minimiser -A^{-1} b of ``model.score_quadratic(x)``.
    Every affine model, whose CNCE and NCE losses are convex in theta, has
    one of the two, and both are consistent, so Newton starts near the
    minimiser it reaches from any start.  theta0 where the model has
    neither (Laplace ICA: Adam keeps its random start) or the estimate
    fails or is not finite: a Gaussian with fewer points than dims,
    Bernoulli data that take one value."""
    try:
        try:
            theta = model.mle(x)
        except UnsupportedModelError:
            a, b, _ = model.score_quadratic(x)
            theta = -np.linalg.solve(a, b)
    except (CnceError, np.linalg.LinAlgError):
        return theta0
    return theta if np.all(np.isfinite(theta)) else theta0


def run_single(cfg: ExperimentConfig, method: str, n: int, kappa: int,
               repeat: int, collect_trace: bool = False):
    """One (method, n, kappa, repeat) cell.  Returns (ErrorRecord, warnings)
    or, with collect_trace, (ErrorRecord, warnings, trace dict).  A cell
    that does not converge warns "not converged (<stop>)" with the
    optimiser's stop reason, which the trace dict also carries as ``stop``;
    a run that meets a non-finite loss is one of them, "not converged
    (nonfinite)", with the error of the point it returned.  An exception
    from the estimation fails the cell alone: error = inf, not converged,
    no stop reason, and one warning, naming the exception class, so that a
    grid keeps its other cells."""
    seed = stable_hash(cfg.master_seed, cfg.model.kind, method, n, kappa, repeat)
    model = cfg.model
    theta_true = model.random_params(rng_from(stable_hash(seed, "params")))
    x = model.sample(theta_true, n, rng_from(stable_hash(seed, "data")))
    theta0 = model.init_theta(rng_from(stable_hash(seed, "init")))

    warnings: list[str] = []
    epsilon = None
    try:
        if method == "mle":
            run = mle_fit(model, x, cfg.optimizer, rng_seed=stable_hash(seed, "mle"))
            theta_hat = run.theta
        else:
            start = theta0
            if method == "cnce":
                if cfg.epsilon == "auto":
                    # the ladder's draw is the fit's: its picked rung's noise
                    epsilon, capped, noise = adapt_epsilon(
                        model, theta0, x, cfg.epsilon_schedule, kappa,
                        stable_hash(seed, "noise"))
                    if capped:
                        warnings.append("epsilon ladder capped")
                else:
                    epsilon = cfg.epsilon
                    noise = sample_conditional(model.kernel.for_data(epsilon, x), x,
                                               kappa, stable_hash(seed, "noise"))
                objective = cnce_objective(model, x, noise)
                start = newton_start(model, x, theta0)
            elif method == "nce":
                marginal = fit_marginal(x)
                noise = sample_marginal(marginal, kappa * n,
                                        stable_hash(seed, "nce_noise"))
                # log q at every point once, shared by c0 and the offsets
                log_q_noise = log_density_marginal(marginal, noise)
                # where log phi is affine (Newton), the trailing log-normaliser
                # c starts at its optimum for theta's start: from c = 0, 8-10
                # nats off, the noise terms saturate and the line search
                # backtracks.  Adam (Laplace ICA) keeps c = 0: there this
                # start cut iterations by 14% but raised the error geometric
                # mean by 5% (ica_grid seeds 1-24).  Both come before the
                # rows (module docstring)
                start = newton_start(model, x, theta0)
                c0 = (nce_log_normaliser(model, start, noise, log_q_noise)
                      if model.affine else 0.0)
                start = np.concatenate([start, [c0]])
                log_q = np.concatenate([log_density_marginal(marginal, x), log_q_noise])
                objective = nce_objective(model, x, noise, log_q)
            elif method == "score_matching":
                objective = score_matching_objective(model, x)
            else:
                raise ParameterError(f"unknown method {method!r}")
            run = minimize(objective, start, cfg.optimizer)
            theta_hat = run.theta[:model.param_count]
        error = estimation_error(model, theta_hat, theta_true)
    except Exception as exc:  # a cell's failure must not end the grid
        warnings.append(f"cell failed: {type(exc).__name__}: {exc}")
        run = EstimationRun(theta=np.full(model.param_count, np.nan))
        theta_hat = run.theta
        error = float("inf")
    else:
        if not run.converged:
            warnings.append(f"not converged ({run.stop})")
    record = ErrorRecord(
        run_id=_run_id(cfg.model.kind, method, n, kappa, repeat),
        model=cfg.model.kind,
        method=method,
        n=n,
        kappa=kappa,
        epsilon=epsilon,
        seed=seed,
        error=error,
        sq_error=error * error,
        converged=run.converged,
        iters=run.iters,
    )
    if not collect_trace:
        return record, warnings
    trace = {
        "run_id": record.run_id,
        "theta_true": [float(v) for v in theta_true],
        "theta_hat": [float(v) for v in theta_hat],
        "error": error,
        "epsilon": epsilon,
        "converged": run.converged,
        "stop": run.stop,
        "iters": run.iters,
        "loss_trace": [float(v) for v in run.loss_trace],
        "grad_norm_trace": [float(v) for v in run.grad_norm_trace],
    }
    return record, warnings, trace


def _run_task(args):
    cfg, task = args
    return run_single(cfg, *task)


def run_grid(cfg: ExperimentConfig, jobs: int = 1):
    """All (method, n, kappa, repeat) cells; returns (records, summaries,
    warnings).  Records come back sorted by run_id whatever the worker
    count, which must be >= 1."""
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    tasks = [
        (method, n, kappa, r)
        for method in cfg.methods
        for n in cfg.n_grid
        for kappa in cfg.kappa_grid
        for r in range(cfg.repeats)
    ]
    if jobs > 1 and len(tasks) > 1:
        # imported here: on one worker, leaving multiprocessing unloaded
        # took import cnce.experiments from 130 to 110 ms (2-core VM)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_task, [(cfg, t) for t in tasks],
                                    chunksize=1))
    else:
        results = [run_single(cfg, *t) for t in tasks]
    records = sorted((rec for rec, _ in results), key=lambda r: r.run_id)
    warnings = [w for _, ws in results for w in ws]
    return records, summarize(records), warnings


def _quantile(errors: np.ndarray, q: float) -> float:
    """np.quantile of sorted errors, except next to a failed run (error =
    inf), where numpy's interpolation gives NaN: there the quantile is the
    exact rank's value, or inf when it interpolates toward an inf."""
    pos = q * (len(errors) - 1)
    lo = int(pos)
    if pos == lo or np.isinf(errors[lo]):
        return float(errors[lo])
    if np.isinf(errors[lo + 1]):
        return float("inf")
    return float(np.quantile(errors, q))


def summarize(records) -> list:
    cells = {}
    for rec in records:
        cells.setdefault((rec.method, rec.n, rec.kappa), []).append(rec.error)
    out = []
    for (method, n, kappa) in sorted(cells):
        errors = np.sort(cells[(method, n, kappa)])
        q10, med, q90 = (_quantile(errors, q) for q in (0.1, 0.5, 0.9))
        out.append(QuantileSummary(method=method, n=n, kappa=kappa,
                                   median=med, q10=q10, q90=q90))
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


# (encode, decode) of a CSV cell, by ErrorRecord annotation
_CSV_CODECS = {
    "str": (str, str),
    "int": (str, int),
    "float": (lambda v: repr(float(v)), float),
    "float | None": (lambda v: "" if v is None else repr(float(v)),
                     lambda text: None if text == "" else float(text)),
    "bool": (lambda v: "true" if v else "false", _parse_bool),
}
_CSV_FIELDS = [(f.name, *_CSV_CODECS[f.type]) for f in fields(ErrorRecord)]


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([encode(getattr(r, name)) for name, encode, _ in _CSV_FIELDS])
    return buf.getvalue()


def records_from_csv(text: str) -> list:
    """Records of a results CSV; a header other than ``CSV_HEADER`` raises
    ``ParameterError`` naming the missing and unexpected columns, or saying
    that only their order differs, and a malformed row, or one whose model
    is no known kind, raises it naming its line."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if not header:
        raise ParameterError("csv has no header line")
    if header != CSV_HEADER:
        missing = [c for c in CSV_HEADER if c not in header]
        unexpected = [c for c in header if c not in CSV_HEADER]
        detail = (f"missing columns: {missing}, unexpected columns: {unexpected}"
                  if missing or unexpected else
                  f"columns repeated or out of order, expected {','.join(CSV_HEADER)}")
        raise ParameterError(f"csv schema mismatch; {detail}")
    out = []
    for row in reader:
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{len(row)} fields, expected {len(CSV_HEADER)}")
            values = {}
            for (name, _, decode), cell in zip(_CSV_FIELDS, row):
                try:
                    values[name] = decode(cell)
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
            # the model names the chart file that ``cnce report`` writes
            if values["model"] not in _CLASSES:
                raise ValueError(f"unknown model kind {values['model']!r}")
            out.append(ErrorRecord(**values))
        except ValueError as exc:
            raise ParameterError(f"csv line {reader.line_num}: {exc}") from None
    return out


def check_outputs(out_dir: str, names, force: bool = False):
    """Refuse an out_dir whose nearest existing path (out_dir itself or an
    ancestor) is not a directory, and any of its files ``names`` that exists
    unless force is set: what ``write_outputs`` checks before it creates
    out_dir and writes.  Creates nothing."""
    base = out_dir
    while not os.path.exists(base):
        base = os.path.dirname(base) or "."
    if not os.path.isdir(base):
        raise NotADirectoryError(f"{base} is not a directory")
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path) and not force:
            raise FileExistsError(f"{path} exists (pass --force to overwrite)")


def _json_ready(value):
    """value with each non-finite float, such as a failed cell's error,
    as None: JSON has no Infinity or NaN."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def write_outputs(out_dir: str, files: dict, force: bool = False) -> list:
    """Write each ``{file name: content}`` of files under out_dir, which it
    creates after ``check_outputs`` has passed every name, and return the
    paths.  A str is written as it is, any other content as sorted, indented
    JSON with each non-finite float as null.  Each file goes to a temporary
    file in out_dir that then replaces it, so an error part-way leaves the
    old file whole."""
    check_outputs(out_dir, files, force)
    os.makedirs(out_dir, exist_ok=True)
    texts = {name: content if isinstance(content, str) else
             json.dumps(_json_ready(content), sort_keys=True, indent=2,
                        allow_nan=False) + "\n"
             for name, content in files.items()}
    paths = []
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        paths.append(path)
    return paths


def persist(records, summaries, cfg_json: dict, out_dir: str,
            force: bool = False) -> list:
    """Write results.csv and summary.json under out_dir through
    ``write_outputs``, which refuses to clobber either unless force is set.
    Returns the paths written."""
    summary = {"config": cfg_json, "summaries": [asdict(s) for s in summaries]}
    return write_outputs(out_dir, {"results.csv": records_to_csv(records),
                                   "summary.json": summary}, force)


def load_records(csv_path: str) -> list:
    with open(csv_path) as fh:
        return records_from_csv(fh.read())


# ---------------------------------------------------------------------------
# small-noise expansion check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitRow:
    epsilon: float
    mc_loss: float
    sm_prediction: float
    residual: float
    flagged: bool


def limit_check(theta, eps_grid, mc_pairs: int, rng_seed: int) -> list:
    """Shared-randomness check that the contrastive loss approaches
    2 log 2 + (eps^2/2) * SM as the noise scale shrinks (Gaussian model).

    Each data point x gets one perturbation direction xi used at both signs
    (y = x +/- eps xi), which cancels the odd empirical terms exactly; the
    quadratic prediction uses the same (x, xi) draws, so the residual decays
    at the cubic-or-better rate rather than being swamped by Monte Carlo
    noise.  Rows whose residual is within 3 standard errors of zero are
    flagged as unresolved.
    """
    theta = np.asarray(theta, dtype=float)
    eps_grid = [_real(eps, "eps_grid entry") for eps in _sequence(eps_grid, "eps_grid")]
    mc_pairs, rng_seed = _integer(mc_pairs, "mc_pairs"), _integer(rng_seed, "seed")
    if mc_pairs < 1:
        raise ParameterError("mc_pairs must be >= 1")
    p = len(theta)
    dim = int(round((np.sqrt(8 * p + 1) - 1) / 2))
    if dim * (dim + 1) // 2 != p:
        raise ParameterError("theta is not a packed upper triangle")
    model = GaussianPrecisionModel(dim)
    lam = model.unpack(theta)

    x = model.sample(theta, mc_pairs, rng_from(stable_hash(rng_seed, "x")))
    xi = rng_from(stable_hash(rng_seed, "xi")).standard_normal((mc_pairs, dim))
    fx = model.log_phi(theta, x)
    grad_dot_xi = np.einsum("ij,ij->i", -np.dot(x, lam), xi)  # d log phi / du
    xi_h_xi = -np.einsum("ij,jk,ik->i", xi, lam, xi)
    proj = xi_h_xi + 0.5 * grad_dot_xi**2  # per-pair quadratic coefficient * 2
    sm_stat = float(np.mean(proj))

    rows = []
    for eps in eps_grid:
        up = np.logaddexp(0.0, -(fx - model.log_phi(theta, x + eps * xi)))
        dn = np.logaddexp(0.0, -(fx - model.log_phi(theta, x - eps * xi)))
        per_pair = up + dn - TWO_LOG2 - 0.5 * eps**2 * proj
        mc_loss = float(np.mean(up + dn))
        residual = float(np.mean(per_pair))
        sem = float(np.std(per_pair) / np.sqrt(mc_pairs))
        # unresolved when the residual is within Monte Carlo noise or below
        # the rounding floor of the cancellation (terms are O(2 log 2))
        unresolved = eps != 0.0 and (abs(residual) < 3.0 * sem
                                     or abs(residual) < 1e-14)
        rows.append(LimitRow(
            epsilon=eps,
            mc_loss=mc_loss,
            sm_prediction=TWO_LOG2 + 0.5 * eps**2 * sm_stat,
            residual=residual,
            flagged=unresolved,
        ))
    return rows


# ---------------------------------------------------------------------------
# config (de)serialisation
# ---------------------------------------------------------------------------

# schema-1 optimizer keys of removed options: the polish, plateau and
# backtracking phases, the multi-start loop, and the random starts' spread
# and Adam's step and betas, now constants.  Accepted, warned about and
# dropped, so that every config and summary.json written so far still runs
_OPT_DEPRECATED = {"step_rule", "polish_iters", "plateau_window", "plateau_rtol",
                   "restarts", "init_scale", "adam_step", "adam_betas"}


def check_config(obj, keys: set, required, where: str, schema: bool = True):
    """The checks of every ``cnce`` config object: a JSON object with no key
    outside ``keys`` and every key of ``required``; a whole config file
    (``schema``) also holds ``"schema": 1``."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object")
    for key in obj:
        if key not in keys and not (schema and key == "schema"):
            raise ParameterError(f"unknown key {key!r} in {where}")
    if schema and obj.get("schema") != 1:
        raise ParameterError("missing or unsupported 'schema' (expected 1)")
    for key in required:
        if key not in obj:
            raise ParameterError(f"missing key {key!r} in {where}")


def _from_json(cls, obj, where: str, schema: bool = False,
               deprecated: set = frozenset(), **readers):
    """The config dataclass cls from the JSON object obj, whose keys are its
    fields: an unknown key is refused, a field with no default is required,
    each key of ``readers`` is read by its function, and a ``deprecated``
    key is dropped with a warning."""
    names = {f.name for f in fields(cls)}
    check_config(obj, names | deprecated,
                 [f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING],
                 where, schema)
    dropped = sorted(deprecated.intersection(obj))
    if dropped:
        logging.getLogger(__name__).warning(
            "%s keys %s are deprecated and ignored: the options they set were "
            "removed", where, ", ".join(dropped))
    args = {k: v for k, v in obj.items() if k in names}
    args.update((k, read(obj[k])) for k, read in readers.items() if k in obj)
    return cls(**args)


def _model_from_json(obj):
    """The model of class ``_CLASSES[obj["kind"]]`` with the rest of obj."""
    check_config(obj, obj, ["kind"], "model", schema=False)  # kind's class checks keys
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _CLASSES:
        raise ParameterError(f"unknown model kind {kind!r}")
    return _from_json(_CLASSES[kind], {k: v for k, v in obj.items() if k != "kind"},
                      "model")


def config_from_json(obj: dict) -> ExperimentConfig:
    return _from_json(
        ExperimentConfig, obj, "experiment config", schema=True,
        model=_model_from_json,
        optimizer=lambda o: _from_json(OptimizerConfig, o, "optimizer",
                                       deprecated=_OPT_DEPRECATED),
        epsilon_schedule=lambda o: _from_json(EpsilonSchedule, o, "epsilon_schedule",
                                              deprecated={"growth"}))


def config_to_json(cfg: ExperimentConfig) -> dict:
    obj = asdict(cfg)
    obj["model"] = {"kind": cfg.model.kind, **obj["model"]}
    return {"schema": 1, **obj}
