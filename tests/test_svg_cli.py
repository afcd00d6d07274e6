"""SVG rendering determinism and the command-line surface (exit codes,
config validation, output files)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cnce.cli import main
from cnce.svgplot import Series, chart_series_for_model, render_loglog
from cnce.experiments import ErrorRecord, records_to_csv


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def bernoulli_config(**kw):
    cfg = {
        "schema": 1,
        "model": {"kind": "bernoulli", "dim": 1},
        "method": "cnce",
        "n": 400,
        "kappa": 2,
        "seed": 5,
        "optimizer": {"max_iters": 500, "polish_iters": 60},
    }
    cfg.update(kw)
    return cfg


def experiment_config(**kw):
    cfg = {
        "schema": 1,
        "model": {"kind": "bernoulli"},
        "methods": ["cnce", "mle"],
        "n_grid": [200, 400],
        "kappa_grid": [2],
        "repeats": 2,
        "master_seed": 11,
        "optimizer": {"max_iters": 120, "polish_iters": 20,
                      "plateau_window": 20, "plateau_rtol": 1e-12},
    }
    cfg.update(kw)
    return cfg


# ---------------------------------------------------------------------------
# SVG writer
# ---------------------------------------------------------------------------

def test_svg_deterministic_bytes():
    series = [
        Series("a", (100, 1000, 10000), (0.5, 0.1, 0.02), "#1f77b4"),
        Series("a q10", (100, 1000, 10000), (0.2, 0.05, 0.01), "#1f77b4",
               dashed=True, in_legend=False),
    ]
    one = render_loglog(series, "t", "x", "y")
    two = render_loglog(series, "t", "x", "y")
    assert one == two
    assert one.startswith("<?xml")
    assert 'version="1.1"' in one
    assert one.count("<polyline") == 2
    assert one.count("stroke-dasharray") >= 1


def test_svg_empty_has_axes_no_series():
    doc = render_loglog([], "empty", "x", "y")
    assert "<polyline" not in doc
    assert doc.count("<line") >= 4  # grid lines for both axes
    assert "</svg>" in doc


def test_svg_skips_nonpositive_points():
    series = [Series("a", (10, 100), (0.0, float("inf")), "#000000")]
    doc = render_loglog(series, "t", "x", "y")
    assert "<polyline" not in doc


def test_chart_series_layout():
    records = []
    for i, (n, err) in enumerate([(100, 0.5), (100, 0.7), (1000, 0.2), (1000, 0.3)]):
        records.append(ErrorRecord(
            run_id=f"g-cnce-n{n:09d}-k{2:05d}-r{i:04d}", model="g",
            method="cnce", n=n, kappa=2, epsilon=0.1, seed=0, error=err,
            sq_error=err**2, converged=True, iters=1, wall_ms=0.0))
    series = chart_series_for_model(records)
    assert len(series) == 3  # solid median + dashed q10 + dashed q90
    assert sum(s.in_legend for s in series) == 1
    assert sum(s.dashed for s in series) == 2


# ---------------------------------------------------------------------------
# cnce estimate
# ---------------------------------------------------------------------------

def test_estimate_deterministic(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", bernoulli_config())
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
    first = capsys.readouterr().out
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
    second = capsys.readouterr().out
    assert first.replace("o1", "oX") == second.replace("o2", "oX")
    trace = json.load(open(next((tmp_path / "o1").glob("*.json"))))
    assert trace["converged"] is True
    assert len(trace["loss_trace"]) == trace["iters"]


def test_estimate_ring_mle_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json",
                     bernoulli_config(model={"kind": "ring", "dim": 5},
                                      method="mle"))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "unsupported" in err and "ring" in err


def test_estimate_unknown_key_named(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", bernoulli_config(bogus_knob=3))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_estimate_missing_schema(tmp_path, capsys):
    cfg = bernoulli_config()
    del cfg["schema"]
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "schema" in capsys.readouterr().err


def test_estimate_nonconvergence_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json",
                     bernoulli_config(optimizer={"max_iters": 2,
                                                 "polish_iters": 0}))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    out = capsys.readouterr().out
    assert "theta_hat" in out  # estimate still emitted


def test_estimate_bernoulli_quality(tmp_path, capsys):
    errors = []
    for seed in (1, 2, 3):
        cfg = write_json(tmp_path / f"c{seed}.json",
                         bernoulli_config(n=100_000, kappa=2, seed=seed,
                                          optimizer={"max_iters": 400,
                                                     "polish_iters": 40,
                                                     "plateau_window": 25,
                                                     "plateau_rtol": 1e-13}))
        code = main(["estimate", "--config", cfg, "--out",
                     str(tmp_path / f"o{seed}")])
        assert code in (0, 2)
        capsys.readouterr()
        trace = json.load(open(next((tmp_path / f"o{seed}").glob("*.json"))))
        errors.append(trace["error"])
    assert np.median(errors) < 0.02


# ---------------------------------------------------------------------------
# cnce experiment
# ---------------------------------------------------------------------------

def test_experiment_outputs_and_cardinality(tmp_path):
    cfg = write_json(tmp_path / "e.json", experiment_config())
    out = tmp_path / "out"
    code = main(["experiment", "--config", cfg, "--out", str(out)])
    assert code in (0, 2)
    csv_text = open(out / "results.csv").read()
    assert len(csv_text.splitlines()) == 1 + 2 * 2 * 1 * 2
    summary = json.load(open(out / "summary.json"))
    assert {s["method"] for s in summary["summaries"]} == {"cnce", "mle"}
    assert (out / "bernoulli.svg").exists()


def test_experiment_force_guard(tmp_path, capsys):
    cfg = write_json(tmp_path / "e.json", experiment_config(repeats=1))
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) in (0, 2)
    capsys.readouterr()
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 1
    assert "exists" in capsys.readouterr().err
    assert main(["experiment", "--config", cfg, "--out", str(out),
                 "--force"]) in (0, 2)


def test_experiment_seed_override_changes_results(tmp_path):
    cfg = write_json(tmp_path / "e.json", experiment_config(
        repeats=1, ring_mu=3.5, epsilon_schedule={"epsilon_0": 0.07, "delta": 0.1}))
    main(["experiment", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["experiment", "--config", cfg, "--out", str(tmp_path / "b"),
          "--seed", "999"])
    a = open(tmp_path / "a" / "results.csv").read()
    b = open(tmp_path / "b" / "results.csv").read()
    assert a != b
    # the override changes the seed and nothing else of the config
    kept = json.load(open(tmp_path / "a" / "summary.json"))["config"]
    got = json.load(open(tmp_path / "b" / "summary.json"))["config"]
    assert (kept["master_seed"], got["master_seed"]) == (11, 999)
    assert got["ring_mu"] == 3.5
    assert got["optimizer"]["max_iters"] == 120
    assert got["optimizer"]["plateau_window"] == 20
    assert got["epsilon_schedule"]["epsilon_0"] == 0.07
    assert got["epsilon_schedule"]["delta"] == 0.1
    assert {**got, "master_seed": 11} == kept


# ---------------------------------------------------------------------------
# cnce report
# ---------------------------------------------------------------------------

def test_report_from_header_only_csv(tmp_path):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(records_to_csv([]))
    out = tmp_path / "rep"
    assert main(["report", "--csv", str(csv_path), "--out", str(out)]) == 0
    doc = open(out / "report.svg").read()
    assert "<polyline" not in doc and "</svg>" in doc


def test_report_schema_mismatch_lists_columns(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("run_id,model\n")
    assert main(["report", "--csv", str(csv_path), "--out",
                 str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert "missing columns" in err and "sq_error" in err


def test_report_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "e.json", experiment_config(repeats=1))
    out = tmp_path / "out"
    main(["experiment", "--config", cfg, "--out", str(out)])
    main(["report", "--csv", str(out / "results.csv"), "--out",
          str(tmp_path / "r1")])
    main(["report", "--csv", str(out / "results.csv"), "--out",
          str(tmp_path / "r2")])
    a = open(tmp_path / "r1" / "bernoulli.svg", "rb").read()
    b = open(tmp_path / "r2" / "bernoulli.svg", "rb").read()
    assert a == b
    assert a == open(out / "bernoulli.svg", "rb").read()


# ---------------------------------------------------------------------------
# cnce limit-check
# ---------------------------------------------------------------------------

def test_limit_check_cli(tmp_path, capsys):
    cfg = write_json(tmp_path / "l.json",
                     {"schema": 1, "eps_grid": [0.0, 0.08], "mc_pairs": 50_000,
                      "seed": 3})
    out = tmp_path / "lc"
    assert main(["limit-check", "--config", cfg, "--out", str(out)]) == 0
    rows = json.load(open(out / "limit_check.json"))
    assert rows[0]["residual"] == 0.0
    assert not rows[1]["flagged"]
    assert "mc_loss" in capsys.readouterr().out


def test_usage_error_exit_1(capsys):
    assert main(["estimate", "--out", "x"]) == 1  # missing --config
    assert main(["no-such-command"]) == 1


def test_cli_import_does_not_load_scipy_optimize():
    # importing scipy.optimize would add ~0.3 s to the CLI's ~0.5 s import
    # (2-core VM); the optimiser needs numpy.linalg only
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cnce.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
