"""The cnce benchmark: one command for every grid workload, end-to-end
metrics with tracing off and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload affine_grid --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports ``cnce`` from
``src/`` and writes only under ``.perfbench_out/``.  The workloads are
defined, with the reason for each, in ``workloads.py``.  ``BENCHMARK.json``
lists the ones steady enough to gate a change; ``cli_jobs2`` is not among
them, because with two workers on two cores its wall time swings with
BLAS thread contention.

Each pass over the grid runs in a fresh process.  ``affine_grid`` and
``ica_grid`` run one ``run_grid(jobs=1)`` call per cell in ``grid.py``;
``cli_jobs2`` runs ``python3 -m cnce.cli experiment --jobs 2``, with the
reference timed before and after it.  Passes repeat, on the same inputs,
while the next one still fits in ``--seconds``.

End-to-end metrics (``--trace 0``), each the median over the run's passes:

- ``setup_s``: a fresh interpreter importing what the workload uses and
  validating its configs, up to the first cell; the median of seven,
  scaled to a fixed machine speed like the grid time below: times
  ``REF_NOMINAL_S`` over the median reference time.
- ``grid_ref``: wall time of the grid in units of ``grid.reference_s``, a
  fixed computation that is not the program's, timed between cells; each
  cell's time is divided by the mean of the reference times around it.
  The 2-core machine this was tuned on runs the same code up to 1.9 times
  slower for seconds to minutes at a time: over five seeds the grid time
  in seconds spread by 13 to 35% of its median, the normalised one by 5
  to 9%.
- ``cpu_ref``: user plus system CPU time of the grid, normalised the same
  way; pool workers are included.
- ``peak_rss_mb``: peak resident set of the largest process.
- Printed with them but not gated: ``setup_wall_s``, ``grid_s`` and
  ``cpu_s``, unscaled, in seconds,
  ``failed_frac``, ``converged_frac`` and ``err_gmean``, the geometric mean
  of the estimation error over completed cells.

With ``--trace 1`` the grid runs once untraced and once with the tracer of
``tracehook/`` installed, and the per-layer metrics are printed; their
definitions are in ``per_layer_metrics``.  ``trace.overhead_s`` is the
traced ``grid_s`` minus the untraced one.

Output checks, any of which sets ``"correct": false``: every expected
``run_id`` is present once; every completed cell has a finite error; every
run of the grid in this process, traced or not, gives byte-identical
results (``results.csv`` and ``summary.json`` for the CLI); and they match
the digest an earlier run of the same source with the same seed left under
``.perfbench_out/digests``.  The ICA-CNCE probe of ``ica_grid`` runs once,
untimed and untraced; its crash counts as a failed cell, not as wrong
output.

The environment (cores, BLAS library and threads, thread variables as
found, versions, commit) is printed as the ``env:`` line and kept with
the result.  The benchmark sets no thread variable.  ``--smoke`` runs tiny
shapes in seconds, to check the harness itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from grid import reference_s  # noqa: E402

RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
SETUP_REPEATS = 7
# reference_s() at the usual speed of the 2-core machine the bounds were set on
REF_NOMINAL_S = 0.05
# printed beside the BENCHMARK.json metrics, left out of the JSON result line
RAW_UNITS = {"setup_wall_s": "s", "grid_s": "s", "cpu_s": "s"}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked through its own
    API; None when it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(trace_dir=None) -> dict:
    env = dict(os.environ)
    paths = [SRC]
    if trace_dir is not None:
        paths.insert(0, os.path.join(HERE, "tracehook"))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(cmd, env, log_path, deadline) -> dict:
    """Run cmd in its own session; returns wall time, CPU time and peak RSS
    of the process and the descendants it waited for.  Past the deadline
    the whole session is killed."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                killed = True
            time.sleep(0.005)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not killed:
        try:  # pool workers left behind by a crash
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "log": log_path}


def _log_tail(path, lines=5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().splitlines()[-lines:])


class Run:
    """One invocation: a workload at a seed, in its own directory."""

    def __init__(self, args):
        self.workload = args.workload
        self.spec = workloads.build(args.workload, args.seed, args.smoke)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        tag = f"{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"
        self.dir = os.path.join(OUT, "runs", f"{tag}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.spec_path = os.path.join(self.dir, "spec.json")
        with open(self.spec_path, "w") as fh:
            json.dump(self.spec, fh, indent=1)
        self.problems = []
        self.n_passes = 0

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self, repeats) -> tuple:
        """Median wall time of a fresh set-up, raw and scaled to the machine
        speed at which ``reference_s`` takes ``REF_NOMINAL_S``; the reference
        is timed before each set-up."""
        walls, refs = [], []
        for i in range(repeats):
            refs.append(reference_s())
            res = run_child([sys.executable, os.path.join(HERE, "grid.py"), "setup",
                             self.spec_path], child_env(), self.path(f"setup{i}.log"),
                            self.deadline)
            if res["code"] != 0:
                self.problems.append(f"setup failed: {_log_tail(res['log'])}")
            walls.append(res["wall"])
        wall = statistics.median(walls)
        return wall, wall * REF_NOMINAL_S / statistics.median(refs)

    def grid_pass(self, trace_dir=None) -> dict:
        """Run the grid once; returns its timings and its outputs as text."""
        self.n_passes += 1
        name = f"pass{self.n_passes}"
        env = child_env(trace_dir)
        if self.spec["jobs"] == 1:
            out_json = self.path(f"{name}.json")
            res = run_child([sys.executable, os.path.join(HERE, "grid.py"), "grid",
                             self.spec_path, out_json], env, self.path(f"{name}.log"),
                            self.deadline)
            if res["code"] != 0 or not os.path.exists(out_json):
                self.problems.append(f"{name} exited {res['code']}: {_log_tail(res['log'])}")
                return None
            with open(out_json) as fh:
                out = json.load(fh)
            return {**out, "rss_mb": res["rss_mb"], "wall": res["wall"], "summary": None}
        (cfg,) = self.spec["configs"]
        out_dir = self.path(name)
        os.makedirs(out_dir)
        cfg_path = self.path(f"{name}-config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        ref_before = reference_s()
        res = run_child([sys.executable, "-m", "cnce.cli", "experiment", "--config",
                         cfg_path, "--out", out_dir, "--jobs", str(self.spec["jobs"])],
                        env, self.path(f"{name}.log"), self.deadline)
        speed = (ref_before + reference_s()) / 2
        # exit code 2 means completed with warnings (non-convergence)
        if res["code"] not in (0, 2):
            self.problems.append(f"{name} exited {res['code']}: {_log_tail(res['log'])}")
            return None
        outputs = {}
        for fname in ("results.csv", "summary.json", f"{cfg['model']['kind']}.svg"):
            try:
                with open(os.path.join(out_dir, fname)) as fh:
                    outputs[fname] = fh.read()
            except FileNotFoundError:
                self.problems.append(f"{name}: the CLI wrote no {fname}")
                return None
        try:
            summary = json.loads(outputs["summary.json"])
            n_cells = len(cfg["methods"]) * len(cfg["n_grid"]) * len(cfg["kappa_grid"])
            if len(summary["summaries"]) != n_cells:
                self.problems.append(f"{name}: summary.json has "
                                     f"{len(summary['summaries'])} summaries, not {n_cells}")
        except (ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"{name}: summary.json unreadable: {exc}")
        if not outputs[f"{cfg['model']['kind']}.svg"].lstrip().startswith("<"):
            self.problems.append(f"{name}: the SVG report is not SVG")
        shutil.rmtree(out_dir)
        return {"grid_s": res["wall"], "cpu_s": res["cpu"],
                "grid_ref": res["wall"] / speed, "cpu_ref": res["cpu"] / speed,
                "rss_mb": res["rss_mb"], "wall": res["wall"],
                "csv": outputs["results.csv"], "summary": outputs["summary.json"]}

    def probes(self) -> list:
        if not self.spec["probes"]:
            return []
        out_json = self.path("probe.json")
        res = run_child([sys.executable, os.path.join(HERE, "grid.py"), "probe",
                         self.spec_path, out_json], child_env(), self.path("probe.log"),
                        self.deadline)
        if res["code"] != 0 or not os.path.exists(out_json):
            self.problems.append(f"probe exited {res['code']}: {_log_tail(res['log'])}")
            return [{"ok": False} for obj in self.spec["probes"]
                    for _ in workloads.expected_run_ids(obj)]
        with open(out_json) as fh:
            cells = json.load(fh)["cells"]
        for cell in cells:
            if "exception" not in cell and not cell["ok"]:
                self.problems.append(f"probe {cell['cell']}: non-finite error")
        return cells


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def parse_records(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def check_records(run: Run, rows) -> None:
    expected = sorted(rid for cfg in run.spec["configs"]
                      for rid in workloads.expected_run_ids(cfg))
    got = sorted(r["run_id"] for r in rows)
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        run.problems.append(f"run_ids differ: missing {missing[:3]}, unexpected {extra[:3]}"
                            f"{', duplicated' if len(got) != len(set(got)) else ''}")
    bad = [r["run_id"] for r in rows if not math.isfinite(float(r["error"]))]
    if bad:
        run.problems.append(f"non-finite error in {len(bad)} cells, e.g. {bad[0]}")


def check_identical(run: Run, passes) -> None:
    first = passes[0]
    for i, p in enumerate(passes[1:], start=2):
        if p["csv"] != first["csv"] or p["summary"] != first["summary"]:
            run.problems.append(f"pass {i} results differ from pass 1")


def check_digest(run: Run, first, src_sha) -> None:
    """Results must repeat byte for byte across runs of one source tree on
    the same inputs."""
    digest = {"results": hashlib.sha256(first["csv"].encode()).hexdigest(),
              "summary": None if first["summary"] is None
              else hashlib.sha256(first["summary"].encode()).hexdigest()}
    spec_sha = hashlib.sha256(json.dumps(run.spec, sort_keys=True).encode()).hexdigest()
    store = os.path.join(OUT, "digests", src_sha[:16])
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{run.workload}-{spec_sha[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            if json.load(fh) != digest:
                run.problems.append("results differ from an earlier run of this "
                                    "source with the same seed")
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(digest, fh)
    os.replace(tmp, path)


def outcome_metrics(rows, probes) -> dict:
    errors = [float(r["error"]) for r in rows]
    finite = [e for e in errors if math.isfinite(e) and e > 0]
    attempted = len(rows) + len(probes)
    failed = (len(errors) - len([e for e in errors if math.isfinite(e)])
              + sum(not p["ok"] for p in probes))
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "converged_frac": (sum(r["converged"] == "true" for r in rows) / len(rows)
                           if rows else 0.0),
        "err_gmean": (math.exp(statistics.fmean(math.log(e) for e in finite))
                      if finite else None),
    }


def _read_spans(trace_dir) -> list:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.jsonl"))):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def per_layer_metrics(spans, untraced, traced, jobs) -> dict:
    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["t1"] - s["t0"] for s in named(name))

    minimize = named("optimize.minimize")
    iters = sum(s["iters"] for s in minimize if "iters" in s)
    obj_calls = sum(s["obj_calls"] for s in minimize)
    obj_s = sum(s["obj_s"] for s in minimize)
    ladder = named("optimize.adapt_epsilon")
    cells = [s["t1"] - s["t0"] for s in named("experiments.run_single")]
    return {
        # solver work
        "optimize.iters": iters,
        "losses.obj_calls": obj_calls,
        "optimize.evals_per_iter": obj_calls / iters if iters else 0.0,
        "losses.obj_s": obj_s,
        "losses.obj_ms_per_call": 1e3 * obj_s / obj_calls if obj_calls else 0.0,
        "optimize.self_s": busy("optimize.minimize") - obj_s,
        # noise-scale ladder
        "optimize.eps_ladder_s": busy("optimize.adapt_epsilon"),
        "optimize.eps_ladder_rungs": sum(s["parent"] == "optimize.adapt_epsilon"
                                         for s in named("optimize.ladder_rung")),
        "optimize.eps_capped": sum(bool(s.get("capped")) for s in ladder),
        # data, noise and objective construction
        "models.sample_s": busy("models.sample"),
        "kernels.noise_s": busy("kernels.noise"),
        "kernels.noise_mb_computed": sum(s.get("mb", 0.0) for s in named("kernels.noise")),
        "losses.build_s": busy("losses.build"),
        "losses.pair_mb_computed": sum(s.get("mb", 0.0) for s in named("losses.build")),
        # baselines, error metric and cells
        "losses.mle_s": busy("losses.mle_fit"),
        "experiments.error_s": busy("experiments.estimation_error"),
        "experiments.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "experiments.pool_cpu_per_wall": traced["cpu_s"] / (jobs * traced["grid_s"]),
        "trace.overhead_s": traced["grid_s"] - untraced["grid_s"],
    }


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]}
            for key in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed; every config's master_seed derives from it")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measure for this long: the grid runs again while it fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for a quick check")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cnce", "__init__.py")):
        print(f"error: no cnce sources under {SRC}", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    run = Run(args)

    metrics = {}
    if args.trace:
        untraced = run.grid_pass()
        trace_dir = run.path("trace")
        os.makedirs(trace_dir)
        traced = run.grid_pass(trace_dir)
        passes = [p for p in (untraced, traced) if p is not None]
        if len(passes) == 2:
            metrics.update(per_layer_metrics(_read_spans(trace_dir), untraced, traced,
                                             run.spec["jobs"]))
    else:
        metrics["setup_wall_s"], metrics["setup_s"] = run.setup(
            2 if args.smoke else SETUP_REPEATS)
        t0 = time.monotonic()
        passes = []
        while True:
            p = run.grid_pass()
            if p is None:
                break
            passes.append(p)
            next_pass = statistics.median(q["wall"] for q in passes)
            now = time.monotonic()
            if (now - t0 + next_pass > args.seconds
                    or now + 1.5 * next_pass > run.deadline):
                break
        if passes:
            metrics["grid_s"] = statistics.median(p["grid_s"] for p in passes)
            metrics["cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
            metrics["grid_ref"] = statistics.median(p["grid_ref"] for p in passes)
            metrics["cpu_ref"] = statistics.median(p["cpu_ref"] for p in passes)
            metrics["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in passes)

    probes = run.probes()
    expected = sum(len(workloads.expected_run_ids(c)) for c in run.spec["configs"])
    if passes:
        rows = parse_records(passes[0]["csv"])
        check_records(run, rows)
        check_identical(run, passes)
        check_digest(run, passes[0], env["src_sha256"])
        outcome = outcome_metrics(rows, probes)
    else:
        outcome = outcome_metrics([], probes)
        outcome["attempted"] += expected
        outcome["failed"] += expected
        outcome["failed_frac"] = outcome["failed"] / outcome["attempted"]
    metrics.update((k, outcome[k]) for k in ("failed_frac", "converged_frac", "err_gmean")
                   if outcome[k] is not None)

    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]
    units = {**RAW_UNITS, **specs["end_to_end"], **specs["per_layer"]}
    for name in wanted:
        if name not in metrics:
            run.problems.append(f"metric {name} was not measured")
    print("grid_s per pass: " + " ".join(f"{p['grid_s']:.3f}" for p in passes))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units.get(name, '')}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    for p in probes:
        if not p["ok"]:
            print(f"probe failed: {p.get('cell')} {p.get('exception', '')} "
                  f"{p.get('message', '')}")
    result = {
        "correct": not run.problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }
    with open(run.path("result.json"), "w") as fh:
        json.dump({"env": env, "args": vars(args),
                   "passes": [{k: p[k] for k in ("grid_s", "cpu_s", "grid_ref", "cpu_ref",
                                                 "rss_mb", "wall")}
                              for p in passes],
                   "problems": run.problems, "probes": probes, **result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
