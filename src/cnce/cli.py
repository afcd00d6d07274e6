"""Command-line front end.

Subcommands: ``estimate`` (one synthetic estimation run), ``experiment``
(a full grid with CSV/JSON/SVG outputs), ``limit-check`` (the small-noise
expansion table) and ``report`` (render an existing results CSV to SVG).
``report`` accepts only rows whose model is a known kind, which names its
chart file, and the chart it draws from an ``experiment``'s
``results.csv`` equals that ``experiment``'s chart byte for byte.  The
three commands that read a ``--config`` take ``--seed``, which overrides
the config's seed; ``report`` reads no config and takes none.

Exit codes: 0 success, 1 usage or config error, 2 completed with warnings:
a run that did not converge, or a noise-scale ladder that reached the
schedule's ``epsilon_max`` without meeting its gap ``delta`` (raise either
to act on it).  A run whose loss is non-finite at its start did not
converge, with the warning "not converged (nonfinite)"; one whose loss
turns non-finite later warns "not converged (step_collapse)" and hands on
its last finite point.  A ladder that ends at its kernel's own cap, the
flip kernel at probability 1, is no warning.
All outputs are deterministic functions of (config, seed) for one
numpy/OpenBLAS build and allocation pattern: no timing or environment state
is written.  The command runs at one BLAS thread unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set,
and its outputs do not depend on that count at the shapes checked; the
determinism contract in ``experiments`` gives them, and the wider shapes
(a Gaussian at dim 7 or 8, say) whose outputs do.  The ``--out``
directory is created only when the command writes, so a command that fails
before then leaves none behind.  An existing output file is refused (exit
1) unless ``--force`` is given: by ``estimate``, ``experiment`` and
``limit-check`` before they compute, and by ``report``, whose file names
come from the CSV's models, once it has drawn its charts.  Each output
file is written whole to a temporary file and then moved into place, and
a JSON output writes a non-finite number, such as a failed cell's error,
as ``null``.

The keys of an ``experiment`` config are the fields of ``ExperimentConfig``,
``OptimizerConfig`` and ``EpsilonSchedule``, whose docstrings give each
field's type, default and range; those of its ``model`` are ``kind`` and
the fields of the model class named by ``kind`` (``models``).  The keys of
removed options, such as Adam's step and betas, removed with Adam, are
accepted with a warning and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter

import numpy as np

from .errors import CnceError, ParameterError, _real, _sequence
from .experiments import (
    _run_id,
    check_config,
    check_outputs,
    config_from_json,
    config_to_json,
    limit_check,
    load_records,
    persist,
    run_grid,
    run_single,
    summarize,
    write_outputs,
)
from .models import GaussianPrecisionModel
from .svgplot import chart_series_for_model, render_loglog

_ESTIMATE_KEYS = {"model", "method", "n", "kappa", "epsilon", "seed", "optimizer",
                  "epsilon_schedule"}
_LIMIT_KEYS = {"eps_grid", "mc_pairs", "seed", "precision"}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}")


def cmd_estimate(args) -> int:
    obj = _load_config(args.config)
    check_config(obj, _ESTIMATE_KEYS, ("model", "method", "n", "kappa"),
                 "estimate config")
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
                ("epsilon", "optimizer", "epsilon_schedule") if key in obj)
    cfg = config_from_json(grid)
    n, kappa = cfg.n_grid[0], cfg.kappa_grid[0]
    name = f"{_run_id(cfg.model.kind, obj['method'], n, kappa, 0)}.json"
    check_outputs(args.out, [name], args.force)
    record, warnings, trace = run_single(cfg, obj["method"], n, kappa, 0,
                                         collect_trace=True)
    (trace_path,) = write_outputs(args.out, {name: trace}, args.force)

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


def _chart(title: str, summaries) -> str:
    return render_loglog(chart_series_for_model(summaries), title,
                         "sample size N", "squared error")


def cmd_experiment(args) -> int:
    cfg = config_from_json(_load_config(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    kind = cfg.model.kind
    check_outputs(args.out, ["results.csv", "summary.json", f"{kind}.svg"],
                  args.force)
    records, summaries, warnings = run_grid(cfg, jobs=args.jobs)
    paths = persist(records, summaries, config_to_json(cfg), args.out,
                    force=args.force)
    paths += write_outputs(args.out, {
        f"{kind}.svg": _chart(f"{kind}: estimation error", summaries)}, args.force)
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
    check_config(obj, _LIMIT_KEYS, (), "limit-check config")
    if "precision" in obj:
        theta = [_real(v, "precision entry")
                 for v in _sequence(obj["precision"], "precision")]
    else:
        model = GaussianPrecisionModel()
        theta = model.pack(np.eye(model.dim))
    check_outputs(args.out, ["limit_check.json"], args.force)
    rows = limit_check(theta, obj.get("eps_grid", [0.04, 0.02, 0.01]),
                       obj.get("mc_pairs", 1_000_000),
                       obj.get("seed", 0) if args.seed is None else args.seed)
    (path,) = write_outputs(args.out, {
        "limit_check.json": [dataclasses.asdict(r) for r in rows]}, args.force)

    print(f"{'epsilon':>10} {'mc_loss':>16} {'sm_prediction':>16} "
          f"{'residual':>14} flagged")
    for r in rows:
        print(f"{r.epsilon:>10.4g} {r.mc_loss:>16.10f} "
              f"{r.sm_prediction:>16.10f} {r.residual:>14.4e} {r.flagged}")
    print(f"wrote {path}")
    return 2 if any(r.flagged for r in rows) else 0


def cmd_report(args) -> int:
    records = load_records(args.csv)
    charts = {f"{model}.svg": _chart(f"{model}: estimation error",
                                     summarize([r for r in records if r.model == model]))
              for model in sorted({r.model for r in records})}
    if not charts:  # a CSV of no records still gets its empty chart
        charts = {"report.svg": _chart("estimation error", [])}
    for p in write_outputs(args.out, charts, args.force):
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
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
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
    except (CnceError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
