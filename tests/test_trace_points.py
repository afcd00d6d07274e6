"""The benchmark's tracer wraps names of the package at the module
attributes ``run_single`` calls them through (``perfbench/tracehook``).
A rename there drops a per-layer metric without an error, so this runs a
tiny traced grid, one cell per method, and checks that every span the
per-layer metrics read is written."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_writes_every_layer_span(tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "schema": 1, "model": {"kind": "gaussian_precision", "dim": 2},
        "methods": ["cnce", "nce", "score_matching", "mle"],
        "n_grid": [200], "kappa_grid": [3], "repeats": 1, "master_seed": 5}))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(trace_dir), PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench", "tracehook")]))
    out = subprocess.run(
        [sys.executable, "-m", "cnce.cli", "experiment", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    spans = [json.loads(line) for path in trace_dir.iterdir()
             for line in path.read_text().splitlines()]
    names = {span["name"] for span in spans}
    assert {"experiments.run_single", "models.sample", "optimize.adapt_epsilon",
            "optimize.ladder_rung", "kernels.noise", "losses.build",
            "optimize.minimize", "losses.mle_fit",
            "experiments.estimation_error"} <= names
    cells = {span["cell"] for span in spans if span["name"] == "experiments.run_single"}
    assert len(cells) == 4
    # the conditional noise and the NCE noise are both measured
    noise = [s for s in spans if s["name"] == "kernels.noise"]
    assert len(noise) == 2 and all(s["mb"] > 0 for s in noise)
