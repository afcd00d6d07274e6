"""Synthetic-study harness: seeded estimation runs over (method, N, kappa)
grids, error metrics with the model-specific ambiguity handling, quantile
summaries, result persistence, and the small-noise expansion check.

Determinism contract: every run derives its generator from
``stable_hash(master_seed, model kind, method, n, kappa, repeat)`` and
sub-streams from named child hashes, so results are independent of execution
order and worker count, and re-running a config reproduces the output files
byte for byte.  Wall-clock time is deliberately not persisted (the wall_ms
column is written as 0) to keep that guarantee; timings live on the in-memory
optimiser traces.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import OptimizationError, ParameterError, UnsupportedModelError
from .kernels import fit_marginal, kernel_for_data, sample_conditional, sample_marginal
from .losses import (
    TWO_LOG2,
    cnce_objective,
    mle_fit,
    nce_objective,
    score_matching_objective,
)
from .models import (
    BERNOULLI,
    GAUSSIAN,
    ICA,
    LOGNORMAL,
    RING,
    ModelSpec,
    build_model,
    spec_from_json,
    spec_to_json,
)
from .optimize import EpsilonSchedule, OptimizerConfig, adapt_epsilon, minimize
from .seeding import rng_from, stable_hash

METHODS = ("cnce", "nce", "mle", "score_matching")

# nce needs continuous moment-matched noise; mle has no ring baseline;
# score matching needs grad_u / laplacian_u.
_VALID_METHODS = {
    GAUSSIAN: ("cnce", "nce", "mle", "score_matching"),
    ICA: ("cnce", "nce", "mle"),
    RING: ("cnce", "nce", "score_matching"),
    LOGNORMAL: ("cnce", "nce", "mle", "score_matching"),
    BERNOULLI: ("cnce", "mle"),
}

CSV_HEADER = ("run_id", "model", "method", "n", "kappa", "epsilon", "seed",
              "error", "sq_error", "converged", "iters", "wall_ms")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    methods: tuple
    n_grid: tuple
    kappa_grid: tuple
    repeats: int = 20
    master_seed: int = 0
    epsilon: object = "auto"  # "auto" or a fixed global scale
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    ring_mu: float = 4.0

    def __post_init__(self):
        if self.repeats < 1:
            raise ParameterError("repeats must be >= 1")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ParameterError("n_grid must be strictly ascending")
        if not self.kappa_grid or not all(
                isinstance(k, numbers.Integral) and k >= 1 for k in self.kappa_grid):
            raise ParameterError("kappa_grid must be non-empty, integers >= 1")
        if list(self.kappa_grid) != sorted(set(self.kappa_grid)):
            raise ParameterError("kappa_grid must be strictly ascending")
        if not self.methods:
            raise ParameterError("methods must be non-empty")
        for m in self.methods:
            if m not in _VALID_METHODS[self.model.kind]:
                raise ParameterError(
                    f"method {m!r} unsupported for {self.model.kind}"
                )
        if "nce" in self.methods and any(n < self.model.dim + 1 for n in self.n_grid):
            # the moment-matched noise needs a covariance fit
            raise ParameterError("nce needs every n >= dim + 1")
        if self.epsilon != "auto" and float(self.epsilon) <= 0:
            raise ParameterError("epsilon must be 'auto' or > 0")

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
    """Distance between estimated and true parameters with the paper-specific
    disambiguations: signed row permutations for ICA, scale normalisation for
    the Bernoulli weights, precision-only absolute error for the log-normal
    model."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_hat.shape != theta_true.shape or theta_hat.shape != (model.spec.param_count,):
        raise ParameterError("parameter packings disagree")
    kind = model.spec.kind
    if kind in (GAUSSIAN, RING):
        return float(np.linalg.norm(theta_hat - theta_true))
    if kind == ICA:
        return _ica_error(model.unpack(theta_hat), model.unpack(theta_true))
    if kind == BERNOULLI:
        return float(np.linalg.norm(theta_hat / theta_hat.sum() - theta_true))
    if kind == LOGNORMAL:
        return float(abs(theta_hat[0] - theta_true[0]))
    raise UnsupportedModelError(kind)


def _ica_error(b_hat: np.ndarray, b_true: np.ndarray) -> float:
    """Minimum Euclidean distance over all signed row permutations.  Signs
    decouple per assigned row, so only the d! permutations are enumerated."""
    d = len(b_true)
    cost = np.empty((d, d))
    for p in range(d):
        for q in range(d):
            cost[p, q] = min(np.sum((b_hat[p] - b_true[q]) ** 2),
                             np.sum((b_hat[p] + b_true[q]) ** 2))
    best = min(
        cost[list(perm), range(d)].sum()
        for perm in itertools.permutations(range(d))
    )
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# single estimation runs
# ---------------------------------------------------------------------------

def _run_id(model_kind, method, n, kappa, repeat) -> str:
    return f"{model_kind}-{method}-n{n:09d}-k{kappa:05d}-r{repeat:04d}"


def run_single(cfg: ExperimentConfig, method: str, n: int, kappa: int,
               repeat: int, collect_trace: bool = False):
    """One (method, n, kappa, repeat) cell.  Returns (ErrorRecord, warnings)
    or, with collect_trace, (ErrorRecord, warnings, trace dict).  Optimiser
    blow-ups are recorded as non-converged runs, never raised."""
    seed = stable_hash(cfg.master_seed, cfg.model.kind, method, n, kappa, repeat)
    model = cfg.build_model()
    theta_true = model.random_params(rng_from(stable_hash(seed, "params")))
    x = model.sample(theta_true, n, rng_from(stable_hash(seed, "data")))
    theta0 = model.init_raw(rng_from(stable_hash(seed, "init")),
                            cfg.optimizer.init_scale)

    warnings: list[str] = []
    epsilon = None
    iters = 0
    converged = True
    run = None
    try:
        if method == "cnce":
            kernel_kind = ("bernoulli_flip" if cfg.model.kind == BERNOULLI
                           else "gaussian_perturb")
            if cfg.epsilon == "auto":
                epsilon, capped = adapt_epsilon(
                    model, theta0, x, kernel_kind, cfg.schedule, kappa,
                    stable_hash(seed, "epsilon"))
                if capped:
                    warnings.append("epsilon ladder capped")
            else:
                epsilon = float(cfg.epsilon)
            kernel = kernel_for_data(kernel_kind, epsilon, x)
            pairing = sample_conditional(kernel, x, kappa, stable_hash(seed, "noise"))
            run = minimize(cnce_objective(model, x, pairing), theta0,
                           cfg.optimizer, stable_hash(seed, "opt"))
            theta_hat = model.from_raw(run.theta)
            iters, converged = run.iters, run.converged
        elif method == "nce":
            marginal = fit_marginal(x)
            noise = sample_marginal(marginal, kappa * n, stable_hash(seed, "nce_noise"))
            raw0 = np.concatenate([theta0, [0.0]])
            run = minimize(nce_objective(model, x, noise, marginal), raw0,
                           cfg.optimizer, stable_hash(seed, "opt"))
            theta_hat = model.from_raw(run.theta[:-1])
            iters, converged = run.iters, run.converged
        elif method == "mle":
            res = mle_fit(model, x, rng_seed=stable_hash(seed, "mle"))
            theta_hat = res.theta_hat
            iters, converged = res.iters, res.converged
        elif method == "score_matching":
            run = minimize(score_matching_objective(model, x), theta0,
                           cfg.optimizer, stable_hash(seed, "opt"))
            theta_hat = model.from_raw(run.theta)
            iters, converged = run.iters, run.converged
        else:
            raise ParameterError(f"unknown method {method!r}")
        error = estimation_error(model, theta_hat, theta_true)
    except OptimizationError as exc:
        converged = False
        warnings.append(f"optimiser failure: {exc}")
        theta_hat = np.full(model.spec.param_count, np.nan)
        error = float("inf")
        if exc.run is not None:
            iters = exc.run.iters
            candidate = model.from_raw(exc.run.theta)
            if np.all(np.isfinite(candidate)):
                theta_hat = candidate
                error = estimation_error(model, theta_hat, theta_true)

    if not converged:
        warnings.append("not converged")
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
        converged=converged,
        iters=iters,
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
        "converged": converged,
        "iters": iters,
        "loss_trace": [] if run is None else [float(v) for v in run.loss_trace],
        "grad_norm_trace": [] if run is None else
                           [float(v) for v in run.grad_norm_trace],
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


def summarize(records) -> list:
    cells = {}
    for rec in records:
        cells.setdefault((rec.method, rec.n, rec.kappa), []).append(rec.error)
    out = []
    for (method, n, kappa) in sorted(cells):
        q10, med, q90 = np.quantile(cells[(method, n, kappa)], [0.1, 0.5, 0.9])
        out.append(QuantileSummary(method=method, n=n, kappa=kappa,
                                   median=float(med), q10=float(q10),
                                   q90=float(q90)))
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([
            r.run_id, r.model, r.method, r.n, r.kappa,
            "" if r.epsilon is None else repr(float(r.epsilon)),
            r.seed, repr(float(r.error)), repr(float(r.sq_error)),
            "true" if r.converged else "false", r.iters, repr(float(r.wall_ms)),
        ])
    return buf.getvalue()


def records_from_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != CSV_HEADER:
        missing = [c for c in CSV_HEADER if c not in header]
        raise ParameterError(f"csv schema mismatch; missing columns: {missing}")
    out = []
    for row in reader:
        out.append(ErrorRecord(
            run_id=row[0], model=row[1], method=row[2], n=int(row[3]),
            kappa=int(row[4]),
            epsilon=None if row[5] == "" else float(row[5]),
            seed=int(row[6]), error=float(row[7]), sq_error=float(row[8]),
            converged=row[9] == "true", iters=int(row[10]),
            wall_ms=float(row[11]),
        ))
    return out


def summary_to_json(cfg_json: dict, summaries) -> str:
    payload = {
        "config": cfg_json,
        "summaries": [
            {"method": s.method, "n": s.n, "kappa": s.kappa,
             "median": s.median, "q10": s.q10, "q90": s.q90}
            for s in summaries
        ],
    }
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
    p = len(theta)
    dim = int(round((np.sqrt(8 * p + 1) - 1) / 2))
    if dim * (dim + 1) // 2 != p:
        raise ParameterError("theta is not a packed symmetric matrix")
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
        eps = float(eps)
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

_CONFIG_KEYS = {"schema", "model", "methods", "n_grid", "kappa_grid", "repeats",
                "master_seed", "epsilon", "optimizer", "epsilon_schedule",
                "ring_mu"}
_MODEL_KEYS = {"kind", "dim"}
_OPT_KEYS = {"max_iters", "grad_tol", "step_rule", "init_scale", "restarts",
             "adam_step", "adam_betas", "polish_iters", "plateau_window",
             "plateau_rtol"}
_SCHED_KEYS = {"epsilon_0", "growth", "delta", "epsilon_max"}


def _check_keys(obj: dict, allowed: set, where: str):
    for key in obj:
        if key not in allowed:
            raise ParameterError(f"unknown key {key!r} in {where}")


def optimizer_from_json(obj: dict) -> OptimizerConfig:
    _check_keys(obj, _OPT_KEYS, "optimizer")
    kwargs = dict(obj)
    if "adam_betas" in kwargs:
        kwargs["adam_betas"] = tuple(kwargs["adam_betas"])
    return OptimizerConfig(**kwargs)


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
    model_obj = dict(obj["model"])
    _check_keys(model_obj, _MODEL_KEYS | {"mu"}, "model")
    ring_mu = float(model_obj.pop("mu", obj.get("ring_mu", 4.0)))
    if "dim" not in model_obj:
        from .models import _DEFAULT_DIM

        model_obj["dim"] = _DEFAULT_DIM[model_obj["kind"]]
    spec = spec_from_json(model_obj)
    epsilon = obj.get("epsilon", "auto")
    if epsilon != "auto":
        epsilon = float(epsilon)
    return ExperimentConfig(
        model=spec,
        methods=tuple(obj["methods"]),
        n_grid=tuple(int(n) for n in obj["n_grid"]),
        kappa_grid=tuple(int(k) for k in obj["kappa_grid"]),
        repeats=int(obj.get("repeats", 20)),
        master_seed=int(obj.get("master_seed", 0)),
        epsilon=epsilon,
        optimizer=optimizer_from_json(obj.get("optimizer", {})),
        schedule=schedule_from_json(obj.get("epsilon_schedule", {})),
        ring_mu=ring_mu,
    )


def config_to_json(cfg: ExperimentConfig) -> dict:
    opt = cfg.optimizer
    sched = cfg.schedule
    return {
        "schema": 1,
        "model": spec_to_json(cfg.model),
        "methods": list(cfg.methods),
        "n_grid": list(cfg.n_grid),
        "kappa_grid": list(cfg.kappa_grid),
        "repeats": cfg.repeats,
        "master_seed": cfg.master_seed,
        "epsilon": cfg.epsilon,
        "optimizer": {
            "max_iters": opt.max_iters, "grad_tol": opt.grad_tol,
            "step_rule": opt.step_rule, "init_scale": opt.init_scale,
            "restarts": opt.restarts, "adam_step": opt.adam_step,
            "adam_betas": list(opt.adam_betas), "polish_iters": opt.polish_iters,
            "plateau_window": opt.plateau_window,
            "plateau_rtol": opt.plateau_rtol,
        },
        "epsilon_schedule": {
            "epsilon_0": sched.epsilon_0, "growth": sched.growth,
            "delta": sched.delta, "epsilon_max": sched.epsilon_max,
        },
        "ring_mu": cfg.ring_mu,
    }
