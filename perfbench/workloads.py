"""Workload definitions for the cnce benchmark.

Each workload is a list of experiment configs in the ``cnce experiment``
JSON schema.  Every config's ``master_seed`` is derived from the benchmark
seed, so one ``--seed`` fixes all inputs and an unseen seed gives fresh ones.

Why these three:

- ``affine_grid``: the four models whose log phi is affine in the
  parameters, with every method each supports.  Adam iterations on the
  cached-feature objective dominate cell time, and the epsilon ladder runs
  for every CNCE cell.
- ``ica_grid``: the one non-affine model.  Every objective call re-evaluates
  the model through the generic NCE route and the error metric enumerates
  the d! permutations.  Optimisations of the affine fast path bypass it.
  One untimed ICA-CNCE probe cell runs beside it.
- ``cli_jobs2``: the ``cnce experiment`` command with two worker processes,
  which covers the process pool, persistence and the largest pair matrices.
  Each optimisation gets a fixed budget of Adam steps: how many steps a
  cell needs to converge varies with the seed, and with eight cells on two
  workers that variance, not the code, would set the grid's wall time.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("affine_grid", "ica_grid", "cli_jobs2")

# model kind -> methods, for the affine workload
_AFFINE = (
    ("gaussian_precision", ("cnce", "nce", "score_matching", "mle")),
    ("ring", ("cnce", "nce", "score_matching")),
    ("lognormal_ext", ("cnce", "nce", "score_matching")),
    ("bernoulli", ("cnce", "mle")),
)

# tiny shapes and a short optimiser budget, so the harness runs in seconds
_SMOKE_OPTIMIZER = {"max_iters": 30, "polish_iters": 5}
_CLI_OPTIMIZER = {"max_iters": 300, "polish_iters": 0}


def master_seed(seed: int, workload: str, kind: str) -> int:
    digest = hashlib.sha256(f"{workload}/{kind}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _config(workload, seed, kind, methods, n_grid, kappa, repeats, smoke,
            optimizer=None):
    cfg = {
        "schema": 1,
        "model": {"kind": kind},
        "methods": list(methods),
        "n_grid": list(n_grid),
        "kappa_grid": [kappa],
        "repeats": repeats,
        "master_seed": master_seed(seed, workload, kind),
        "epsilon": "auto",
    }
    if smoke:
        optimizer = _SMOKE_OPTIMIZER
    if optimizer is not None:
        cfg["optimizer"] = dict(optimizer)
    return cfg


def build(workload: str, seed: int, smoke: bool = False) -> dict:
    """The workload's timed configs, its untimed probe configs and the
    worker count it runs with."""
    if workload == "affine_grid":
        n_grid, kappa = ((60, 120), 3) if smoke else ((1000, 4000), 10)
        configs = [_config(workload, seed, kind, methods, n_grid, kappa, 1, smoke)
                   for kind, methods in _AFFINE]
        return {"configs": configs, "probes": [], "jobs": 1}
    if workload == "ica_grid":
        n_grid, kappa = ((60, 120), 3) if smoke else ((500, 2000), 5)
        timed = _config(workload, seed, "ica_laplace", ("nce", "mle"), n_grid,
                        kappa, 1, smoke)
        # CNCE on ICA is probed once, outside the timed grid: it crashes at
        # the parent commit and its fix must not read as a slowdown
        probe = _config(workload, seed, "ica_laplace", ("cnce",), n_grid[:1],
                        kappa, 1, smoke)
        return {"configs": [timed], "probes": [probe], "jobs": 1}
    if workload == "cli_jobs2":
        n_grid, kappa = ((60, 120), 3) if smoke else ((2000, 8000), 10)
        cfg = _config(workload, seed, "gaussian_precision",
                      ("cnce", "nce", "score_matching", "mle"), n_grid, kappa,
                      1, smoke, _CLI_OPTIMIZER)
        return {"configs": [cfg], "probes": [], "jobs": 2}
    raise ValueError(f"unknown workload {workload!r}")


def expected_run_ids(cfg: dict) -> list:
    kind = cfg["model"]["kind"]
    return sorted(
        f"{kind}-{method}-n{n:09d}-k{kappa:05d}-r{r:04d}"
        for method in cfg["methods"]
        for n in cfg["n_grid"]
        for kappa in cfg["kappa_grid"]
        for r in range(cfg["repeats"])
    )
