"""Child process of the cnce benchmark: runs in-process grids through the
public API, so that each measurement starts from a fresh interpreter.

    python3 perfbench/grid.py setup SPEC.json
    python3 perfbench/grid.py grid  SPEC.json OUT.json
    python3 perfbench/grid.py probe SPEC.json OUT.json

``setup`` imports what the workload uses and validates its configs, then
exits; the parent times it.  ``grid`` runs ``run_grid(jobs=1)`` over every
timed cell and writes the wall and CPU time of the grid, both also in
units of ``reference_s``, and the records as ``results.csv`` text.
``probe`` runs each probe cell once, catching any exception, and writes
one outcome per cell.  SPEC.json holds the output of
``workloads.build``; ``cnce`` must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time


def _load(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import cnce.experiments as ex

    if spec["jobs"] > 1:
        import cnce.cli  # noqa: F401  the CLI workload enters here
    return spec, [ex.config_from_json(c) for c in spec["configs"]]


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def reference_s() -> float:
    """Time of a fixed computation that is not the program's: interpreter
    work and numpy ufuncs on 2e4-element arrays, the two kinds of work a
    cell spends its time on, and no BLAS call, so that the program's thread
    settings cannot change it.

    The machines this benchmark was tuned on run the same code up to half
    slower for seconds to minutes at a time.  Timed between cells, this
    gives each cell's time in units of the machine's speed at that moment,
    which varies far less from run to run than the time itself."""
    import numpy as np

    g = np.random.default_rng(0).standard_normal(20_000)
    out = np.empty_like(g)
    t0 = time.perf_counter()
    acc = 0
    for j in range(400_000):
        acc += j * j
    for _ in range(300):
        np.abs(g, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
    return time.perf_counter() - t0


def _grid(spec_path, out_path):
    """The grid is run one cell per ``run_grid`` call, with the reference
    timed between cells.  Cell seeds depend only on the cell, so the
    records are those of one ``run_grid`` call per config."""
    from dataclasses import replace

    from cnce.experiments import records_to_csv, run_grid

    _, configs = _load(spec_path)
    totals = {"grid_s": 0.0, "cpu_s": 0.0, "grid_ref": 0.0, "cpu_ref": 0.0}
    records = []
    ref = reference_s()
    for cfg in configs:
        cfg_records = []
        for method in cfg.methods:
            for n in cfg.n_grid:
                for kappa in cfg.kappa_grid:
                    cell = replace(cfg, methods=(method,), n_grid=(n,),
                                   kappa_grid=(kappa,))
                    cpu0 = _cpu_s()
                    t0 = time.perf_counter()
                    recs, _, _ = run_grid(cell, jobs=1)
                    wall = time.perf_counter() - t0
                    cpu = _cpu_s() - cpu0
                    ref_next = reference_s()
                    speed = (ref + ref_next) / 2
                    ref = ref_next
                    totals["grid_s"] += wall
                    totals["cpu_s"] += cpu
                    totals["grid_ref"] += wall / speed
                    totals["cpu_ref"] += cpu / speed
                    cfg_records.extend(recs)
        records.extend(sorted(cfg_records, key=lambda r: r.run_id))
    with open(out_path, "w") as fh:
        json.dump({**totals, "csv": records_to_csv(records)}, fh)


def _probe(spec_path, out_path):
    import cnce.experiments as ex

    with open(spec_path) as fh:
        spec = json.load(fh)
    cells = []
    for obj in spec["probes"]:
        cfg = ex.config_from_json(obj)
        for method in cfg.methods:
            for n in cfg.n_grid:
                for kappa in cfg.kappa_grid:
                    for r in range(cfg.repeats):
                        cell = {"cell": f"{cfg.model.kind}-{method}-n{n}-k{kappa}-r{r}"}
                        try:
                            record, _ = ex.run_single(cfg, method, n, kappa, r)
                        except Exception as exc:  # the probe records any crash
                            cell.update(ok=False, exception=type(exc).__name__,
                                        message=str(exc)[:200])
                        else:
                            cell.update(ok=math.isfinite(record.error),
                                        error=record.error)
                        cells.append(cell)
    with open(out_path, "w") as fh:
        json.dump({"cells": cells}, fh)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        _load(argv[1])
    elif mode == "grid":
        _grid(argv[1], argv[2])
    elif mode == "probe":
        _probe(argv[1], argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
