"""Synthetic-study harness: seeded estimation runs over (method, N, kappa)
grids, error metrics with the model-specific ambiguity handling, quantile
summaries, result persistence, and the small-noise expansion check.

Determinism contract: every run derives its generator from
``stable_hash(master_seed, model kind, method, n, kappa, repeat)`` and
sub-streams from named child hashes, so results are independent of execution
order and worker count, and re-running a config reproduces the output files
byte for byte, for one numpy/OpenBLAS build and allocation pattern: OpenBLAS
can round a product of the same array differently at another memory
alignment, which moves an error in its last digits.  Wall-clock time is
deliberately not persisted (the wall_ms column is written as 0) to keep that
guarantee; timings live on the in-memory optimiser traces.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ParameterError, _integer, _real, convert_fields
from .kernels import fit_marginal, sample_conditional, sample_marginal
from .losses import (
    TWO_LOG2,
    cnce_objective,
    mle_fit,
    nce_log_normaliser,
    nce_objective,
    score_matching_objective,
)
from .models import GAUSSIAN, RING, ModelSpec, build_model, default_spec
from .optimize import EpsilonSchedule, EstimationRun, OptimizerConfig, adapt_epsilon, minimize
from .seeding import rng_from, stable_hash

METHODS = ("cnce", "nce", "mle", "score_matching")


@dataclass(frozen=True)
class ExperimentConfig:
    """A (method, N, kappa) grid of estimation runs, and the schema of a
    ``cnce experiment`` config, which writes ``schedule`` as
    ``epsilon_schedule`` and may give ``ring_mu`` as the model's ``mu``.
    An int takes an integral float (2.0 is 2), a float any finite real,
    and neither a bool or a string.

    - ``model`` (``ModelSpec``) and ``methods`` (a non-empty tuple of the
      model's ``methods``): required.
    - ``n_grid``, ``kappa_grid`` (tuples of int, required): non-empty,
      strictly ascending, >= 1; with ``"nce"``, every n >= dim + 1.
    - ``repeats`` (int, 20, >= 1), ``master_seed`` (int, 0) and ``ring_mu``
      (float, 4.0, the ring model's known shell radius).
    - ``epsilon``: ``"auto"`` (default), which ``adapt_epsilon`` picks on
      ``schedule`` per run, or CNCE's fixed noise scale, a float > 0 and,
      with ``"cnce"``, at most the model kernel's ``epsilon_cap`` (1 for
      Bernoulli's flip probability).
    - ``optimizer``, ``schedule``: an ``OptimizerConfig`` and an
      ``EpsilonSchedule``, their defaults by default.
    """

    model: ModelSpec
    methods: tuple
    n_grid: tuple
    kappa_grid: tuple
    repeats: int = 20
    master_seed: int = 0
    epsilon: object = "auto"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    ring_mu: float = 4.0

    def __post_init__(self):
        convert_fields(self)
        object.__setattr__(self, "methods", tuple(self.methods))
        for name in ("n_grid", "kappa_grid"):
            grid = tuple(_integer(v, f"{name} entry") for v in getattr(self, name))
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
        model = self.build_model()
        for m in self.methods:
            if m not in model.methods:
                raise ParameterError(
                    f"method {m!r} unsupported for {self.model.kind}"
                )
        if len(set(self.methods)) < len(self.methods):
            raise ParameterError(f"methods must not repeat: {list(self.methods)}")
        if "nce" in self.methods and any(n < self.model.dim + 1 for n in self.n_grid):
            # the moment-matched noise needs a covariance fit
            raise ParameterError("nce needs every n >= dim + 1")
        cap = model.kernel.epsilon_cap
        if ("cnce" in self.methods and self.epsilon != "auto" and cap is not None
                and self.epsilon > cap):
            raise ParameterError(
                f"epsilon must be <= {cap}, the cap of the {self.model.kind} kernel")

    def build_model(self):
        if self.model.kind == RING:
            return build_model(self.model, mu=self.ring_mu)
        return build_model(self.model)


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
    wall_ms: float


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
    if theta_hat.shape != theta_true.shape or theta_hat.shape != (model.spec.param_count,):
        raise ParameterError("parameter vectors disagree in shape")
    return model.error(theta_hat, theta_true)


# ---------------------------------------------------------------------------
# single estimation runs
# ---------------------------------------------------------------------------

def _run_id(model_kind, method, n, kappa, repeat) -> str:
    return f"{model_kind}-{method}-n{n:09d}-k{kappa:05d}-r{repeat:04d}"


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
    model = cfg.build_model()
    theta_true = model.random_params(rng_from(stable_hash(seed, "params")))
    x = model.sample(theta_true, n, rng_from(stable_hash(seed, "data")))
    theta0 = model.init_theta(rng_from(stable_hash(seed, "init")),
                              cfg.optimizer.init_scale)

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
                    epsilon, capped = adapt_epsilon(
                        model, theta0, x, cfg.schedule, kappa,
                        stable_hash(seed, "epsilon"))
                    if capped:
                        warnings.append("epsilon ladder capped")
                else:
                    epsilon = cfg.epsilon
                kernel = model.kernel.for_data(epsilon, x)
                noise = sample_conditional(kernel, x, kappa, stable_hash(seed, "noise"))
                objective = cnce_objective(model, x, noise)
            elif method == "nce":
                marginal = fit_marginal(x)
                noise = sample_marginal(marginal, kappa * n,
                                        stable_hash(seed, "nce_noise"))
                objective = nce_objective(model, x, noise, marginal)
                # where log phi is affine (Newton), the trailing log-normaliser
                # c starts at its optimum for theta0: from c = 0, 8-10 nats
                # off, the noise terms saturate and the line search
                # backtracks.  Adam (Laplace ICA) keeps c = 0: there this
                # start cut iterations by 14% but raised the error geometric
                # mean by 5% (ica_grid seeds 1-24)
                c0 = (nce_log_normaliser(model, theta0, noise, marginal)
                      if model.affine else 0.0)
                start = np.concatenate([theta0, [c0]])
            elif method == "score_matching":
                objective = score_matching_objective(model, x)
            else:
                raise ParameterError(f"unknown method {method!r}")
            run = minimize(objective, start, cfg.optimizer)
            theta_hat = run.theta[:model.spec.param_count]
        error = estimation_error(model, theta_hat, theta_true)
    except Exception as exc:  # a cell's failure must not end the grid
        warnings.append(f"cell failed: {type(exc).__name__}: {exc}")
        run = EstimationRun(theta=np.full(model.spec.param_count, np.nan))
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
        wall_ms=0.0,
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
    count."""
    tasks = [
        (method, n, kappa, r)
        for method in cfg.methods
        for n in cfg.n_grid
        for kappa in cfg.kappa_grid
        for r in range(cfg.repeats)
    ]
    if jobs > 1 and len(tasks) > 1:
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
    """Records of a results CSV; a malformed row raises ``ParameterError``
    naming its line."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != CSV_HEADER:
        missing = [c for c in CSV_HEADER if c not in header]
        raise ParameterError(f"csv schema mismatch; missing columns: {missing}")
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
            out.append(ErrorRecord(**values))
        except ValueError as exc:
            raise ParameterError(f"csv line {reader.line_num}: {exc}") from None
    return out


def summary_to_json(cfg_json: dict, summaries) -> str:
    payload = {"config": cfg_json, "summaries": [asdict(s) for s in summaries]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def persist(records, summaries, cfg_json: dict, out_dir: str,
            force: bool = False) -> list:
    """Write results.csv and summary.json under out_dir; refuses to clobber
    existing files unless force is set.  Returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "summary.json")
    for path in (csv_path, json_path):
        if os.path.exists(path) and not force:
            raise FileExistsError(f"{path} exists (use force to overwrite)")
    with open(csv_path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
    with open(json_path, "w") as fh:
        fh.write(summary_to_json(cfg_json, summaries))
    return [csv_path, json_path]


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
    eps_grid = [_real(eps, "eps_grid entry") for eps in eps_grid]
    mc_pairs, rng_seed = _integer(mc_pairs, "mc_pairs"), _integer(rng_seed, "seed")
    if mc_pairs < 1:
        raise ParameterError("mc_pairs must be >= 1")
    p = len(theta)
    dim = int(round((np.sqrt(8 * p + 1) - 1) / 2))
    if dim * (dim + 1) // 2 != p:
        raise ParameterError("theta is not a packed upper triangle")
    model = build_model(ModelSpec(GAUSSIAN, dim))
    lam = model.unpack(theta)

    x = model.sample(theta, mc_pairs, rng_from(stable_hash(rng_seed, "x")))
    xi = rng_from(stable_hash(rng_seed, "xi")).standard_normal((mc_pairs, dim))
    fx = model.log_phi(theta, x)
    grad_dot_xi = np.einsum("ij,ij->i", model.grad_u(theta, x), xi)
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

# the JSON keys are the dataclass fields, ``schedule`` written as
# ``epsilon_schedule``, plus the schema version
_CONFIG_KEYS = ({f.name for f in fields(ExperimentConfig)} - {"schedule"}
                | {"schema", "epsilon_schedule"})
_MODEL_KEYS = {f.name for f in fields(ModelSpec)}
_OPT_KEYS = {f.name for f in fields(OptimizerConfig)}
# schema-1 keys of the removed polish, plateau and backtracking phases and
# of the removed multi-start loop: accepted and ignored, so that existing
# configs keep running
_OPT_DEPRECATED = {"step_rule", "polish_iters", "plateau_window", "plateau_rtol",
                   "restarts"}
_SCHED_KEYS = {f.name for f in fields(EpsilonSchedule)}


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ParameterError(f"unknown key {key!r} in {where}")


def optimizer_from_json(obj: dict) -> OptimizerConfig:
    _check_keys(obj, _OPT_KEYS | _OPT_DEPRECATED, "optimizer")
    ignored = sorted(_OPT_DEPRECATED.intersection(obj))
    if ignored:
        logging.getLogger(__name__).warning(
            "optimizer keys %s are deprecated and ignored: the options they "
            "set were removed", ", ".join(ignored))
    return OptimizerConfig(**{k: v for k, v in obj.items() if k in _OPT_KEYS})


def schedule_from_json(obj: dict) -> EpsilonSchedule:
    _check_keys(obj, _SCHED_KEYS, "epsilon_schedule")
    return EpsilonSchedule(**obj)


def config_from_json(obj: dict) -> ExperimentConfig:
    _check_keys(obj, _CONFIG_KEYS, "experiment config")
    if obj.get("schema") != 1:
        raise ParameterError("missing or unsupported 'schema' (expected 1)")
    for key in ("model", "methods", "n_grid", "kappa_grid"):
        if key not in obj:
            raise ParameterError(f"missing key {key!r} in experiment config")
    _check_keys(obj["model"], _MODEL_KEYS | {"mu"}, "model")
    model_obj = dict(obj["model"])
    if "kind" not in model_obj:
        raise ParameterError("missing key 'kind' in model")
    rest = {k: v for k, v in obj.items()
            if k not in ("schema", "model", "optimizer", "epsilon_schedule")}
    if "mu" in model_obj:  # the model's mu wins over a top-level ring_mu
        rest["ring_mu"] = model_obj.pop("mu")
    if "dim" not in model_obj:
        model_obj["dim"] = default_spec(model_obj["kind"]).dim
    return ExperimentConfig(
        model=ModelSpec(**model_obj),
        optimizer=optimizer_from_json(obj.get("optimizer", {})),
        schedule=schedule_from_json(obj.get("epsilon_schedule", {})),
        **rest,
    )


def config_to_json(cfg: ExperimentConfig) -> dict:
    obj = asdict(cfg)
    obj["epsilon_schedule"] = obj.pop("schedule")
    return {"schema": 1, **obj}
