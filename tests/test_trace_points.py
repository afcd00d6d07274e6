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


def _traced_grid(tmp_path, name, **overrides):
    """Spans of one traced ``cnce experiment`` of a Gaussian grid."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({
        "schema": 1, "model": {"kind": "gaussian_precision", "dim": 2},
        "methods": ["cnce", "nce", "score_matching", "mle"],
        "n_grid": [200], "kappa_grid": [3], "repeats": 1, "master_seed": 5,
        **overrides}))
    trace_dir = tmp_path / f"{name}_trace"
    trace_dir.mkdir()
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(trace_dir), PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench", "tracehook")]))
    out = subprocess.run(
        [sys.executable, "-m", "cnce.cli", "experiment", "--config", str(config),
         "--out", str(tmp_path / f"{name}_out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for path in trace_dir.iterdir()
            for line in path.read_text().splitlines()]


def test_tracer_writes_every_layer_span(tmp_path):
    spans = _traced_grid(tmp_path, "auto")
    names = {span["name"] for span in spans}
    assert {"experiments.run_single", "models.sample", "optimize.adapt_epsilon",
            "optimize.ladder_rung", "kernels.noise", "losses.build",
            "optimize.minimize", "losses.mle_fit",
            "experiments.estimation_error"} <= names
    cells = {span["cell"] for span in spans if span["name"] == "experiments.run_single"}
    assert len(cells) == 4
    # an auto-epsilon CNCE cell draws its noise inside the ladder, whose
    # rungs are measured; the NCE noise is measured on its own
    cnce_cell = "gaussian_precision-cnce-n200-k3-r0"
    cnce_names = {s["name"] for s in spans if s["cell"] == cnce_cell}
    assert "optimize.ladder_rung" in cnce_names
    assert "kernels.noise" not in cnce_names
    noise = [s for s in spans if s["name"] == "kernels.noise"]
    assert [s["cell"] for s in noise] == ["gaussian_precision-nce-n200-k3-r0"]
    assert noise[0]["mb"] > 0
    # a fixed-epsilon CNCE cell measures its conditional noise
    fixed = _traced_grid(tmp_path, "fixed", methods=["cnce"], epsilon=0.2)
    noise = [s for s in fixed if s["name"] == "kernels.noise"]
    assert [s["cell"] for s in noise] == [cnce_cell] and noise[0]["mb"] > 0
    assert "optimize.adapt_epsilon" not in {s["name"] for s in fixed}
