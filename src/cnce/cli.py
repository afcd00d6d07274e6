"""Command-line front end.

Subcommands: ``estimate`` (one synthetic estimation run), ``experiment``
(a full grid with CSV/JSON/SVG outputs), ``limit-check`` (the small-noise
expansion table) and ``report`` (render an existing results CSV to SVG).

Exit codes: 0 success, 1 usage or config error, 2 completed with warnings:
a run that did not converge, or a noise-scale ladder that reached the
schedule's ``epsilon_max`` without meeting its gap ``delta`` (raise either
to act on it).  A run whose loss turned non-finite is one that did not
converge, with the warning "not converged (nonfinite)".  A ladder that ends
at its kernel's own cap, the flip kernel at probability 1, is no warning.
All outputs are deterministic functions of (config, seed): no timing or
environment state is written.

The keys of an ``experiment`` config are the fields of ``ExperimentConfig``,
``OptimizerConfig`` and ``EpsilonSchedule``, whose docstrings give each
field's type, default and range.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter

import numpy as np

from .errors import CnceError, ParameterError
from .experiments import (
    config_from_json,
    config_to_json,
    limit_check,
    load_records,
    persist,
    run_grid,
    run_single,
    _check_keys,
)
from .models import GAUSSIAN, build_model, default_spec
from .svgplot import chart_series_for_model, render_loglog

_ESTIMATE_KEYS = {"schema", "model", "method", "n", "kappa", "epsilon", "seed",
                  "optimizer", "epsilon_schedule", "ring_mu"}
_LIMIT_KEYS = {"schema", "eps_grid", "mc_pairs", "seed", "precision"}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParameterError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}")


def _guard_outputs(paths, force: bool):
    for path in paths:
        if os.path.exists(path) and not force:
            raise FileExistsError(f"{path} exists (pass --force to overwrite)")


def cmd_estimate(args) -> int:
    obj = _load_config(args.config)
    _check_keys(obj, _ESTIMATE_KEYS, "estimate config")
    if obj.get("schema") != 1:
        raise ParameterError("missing or unsupported 'schema' (expected 1)")
    for key in ("model", "method", "n", "kappa"):
        if key not in obj:
            raise ParameterError(f"missing key {key!r} in estimate config")
    grid = {
        "schema": 1,
        "model": obj["model"],
        "methods": [obj["method"]],
        "n_grid": [obj["n"]],
        "kappa_grid": [obj["kappa"]],
        "repeats": 1,
        "master_seed": obj.get("seed", 0) if args.seed is None else args.seed,
    }
    grid.update((key, obj[key]) for key in
                ("epsilon", "optimizer", "epsilon_schedule", "ring_mu") if key in obj)
    cfg = config_from_json(grid)
    record, warnings, trace = run_single(cfg, obj["method"], cfg.n_grid[0],
                                         cfg.kappa_grid[0], 0, collect_trace=True)

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, f"{record.run_id}.json")
    _guard_outputs([trace_path], args.force)
    with open(trace_path, "w") as fh:
        json.dump(trace, fh, sort_keys=True, indent=2)
        fh.write("\n")

    print(f"run_id:    {record.run_id}")
    print(f"theta_hat: {np.array2string(np.asarray(trace['theta_hat']), precision=6)}")
    print(f"error:     {record.error:.6g}")
    if record.epsilon is not None:
        print(f"epsilon:   {record.epsilon:.6g}")
    print(f"converged: {record.converged}")
    print(f"stop:      {trace['stop']}")
    print(f"trace:     {trace_path}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 2 if warnings else 0


def _svg_paths(models, out_dir: str) -> dict:
    """The chart path of each model, or of an empty report for none."""
    if not models:
        return {None: os.path.join(out_dir, "report.svg")}
    return {model: os.path.join(out_dir, f"{model}.svg") for model in sorted(models)}


def _write_report_svgs(records, paths: dict) -> list:
    for model, path in paths.items():
        series = chart_series_for_model([r for r in records if r.model == model])
        title = "estimation error" if model is None else f"{model}: estimation error"
        with open(path, "w") as fh:
            fh.write(render_loglog(series, title, "sample size N", "squared error"))
    return list(paths.values())


def cmd_experiment(args) -> int:
    cfg = config_from_json(_load_config(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    svgs = _svg_paths([cfg.model.kind], args.out)
    _guard_outputs([os.path.join(args.out, "results.csv"),
                    os.path.join(args.out, "summary.json"), *svgs.values()],
                   args.force)
    records, summaries, warnings = run_grid(cfg, jobs=args.jobs)
    paths = persist(records, summaries, config_to_json(cfg), args.out,
                    force=args.force)
    paths += _write_report_svgs(records, svgs)
    for s in summaries:
        print(f"{s.method} n={s.n} kappa={s.kappa}: "
              f"median {s.median:.6g} [q10 {s.q10:.6g}, q90 {s.q90:.6g}]")
    for p in paths:
        print(f"wrote {p}")
    if warnings:
        print(f"{len(warnings)} warnings:", file=sys.stderr)
        for text, count in Counter(warnings).most_common():
            print(f"  {count}\u00d7 {text}", file=sys.stderr)
        return 2
    return 0


def cmd_limit_check(args) -> int:
    obj = _load_config(args.config)
    _check_keys(obj, _LIMIT_KEYS, "limit-check config")
    if obj.get("schema") != 1:
        raise ParameterError("missing or unsupported 'schema' (expected 1)")
    if "precision" in obj:
        theta = obj["precision"]
    else:
        model = build_model(default_spec(GAUSSIAN))
        theta = model.pack(np.eye(model.spec.dim))
    rows = limit_check(theta, obj.get("eps_grid", [0.04, 0.02, 0.01]),
                       obj.get("mc_pairs", 1_000_000),
                       obj.get("seed", 0) if args.seed is None else args.seed)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "limit_check.json")
    _guard_outputs([path], args.force)
    with open(path, "w") as fh:
        json.dump([dataclasses.asdict(r) for r in rows], fh, sort_keys=True, indent=2)
        fh.write("\n")

    print(f"{'epsilon':>10} {'mc_loss':>16} {'sm_prediction':>16} "
          f"{'residual':>14} flagged")
    for r in rows:
        print(f"{r.epsilon:>10.4g} {r.mc_loss:>16.10f} "
              f"{r.sm_prediction:>16.10f} {r.residual:>14.4e} {r.flagged}")
    print(f"wrote {path}")
    return 2 if any(r.flagged for r in rows) else 0


def cmd_report(args) -> int:
    records = load_records(args.csv)
    os.makedirs(args.out, exist_ok=True)
    svgs = _svg_paths({r.model for r in records}, args.out)
    _guard_outputs(svgs.values(), args.force)
    for p in _write_report_svgs(records, svgs):
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnce",
        description="conditional noise-contrastive estimation toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")

    p = sub.add_parser("estimate", help="run one estimation")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", help="run a (method, N, kappa) grid")
    common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("limit-check", help="small-noise expansion table")
    common(p)
    p.set_defaults(func=cmd_limit_check)

    p = sub.add_parser("report", help="render a results CSV to SVG charts")
    p.add_argument("--csv", required=True, help="results.csv path")
    common(p, config=False)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (CnceError, FileExistsError, FileNotFoundError, KeyError,
            TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
