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
    captured = capsys.readouterr()
    assert "theta_hat" in captured.out  # estimate still emitted
    assert "stop:      max_iters" in captured.out
    assert "not converged (max_iters)" in captured.err


def test_non_integral_config_numbers_exit_1(tmp_path, capsys):
    # "kappa": 2.7 used to run kappa = 2, and "epsilon": true eps = 1.0;
    # now both are config errors
    integer, real = "must be an integer", "must be a finite real number"
    cases = [("estimate", bernoulli_config(kappa=2.7), integer),
             ("estimate", bernoulli_config(n=True), integer),
             ("estimate", bernoulli_config(seed=5.5), integer),
             ("experiment", experiment_config(kappa_grid=[2.7]), integer),
             ("experiment", experiment_config(repeats=True), integer),
             ("estimate", bernoulli_config(epsilon=True), real),
             ("experiment", experiment_config(epsilon_schedule={"epsilon_0": True}), real),
             ("limit-check", {"schema": 1, "eps_grid": [True, 0.02]}, real)]
    for i, (command, obj, message) in enumerate(cases):
        cfg = write_json(tmp_path / f"c{i}.json", obj)
        out = tmp_path / f"o{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


def test_config_shape_errors_exit_1(tmp_path, capsys):
    # a config section that is not a JSON object, and a repeated method
    cases = [("experiment", [], "experiment config must be a JSON object"),
             ("estimate", [], "estimate config must be a JSON object"),
             ("limit-check", [], "limit-check config must be a JSON object"),
             ("experiment", experiment_config(model=[]), "model must be a JSON object"),
             ("estimate", bernoulli_config(optimizer=[]),
              "optimizer must be a JSON object"),
             ("experiment", experiment_config(epsilon_schedule=[]),
              "epsilon_schedule must be a JSON object"),
             ("experiment", experiment_config(methods=["mle", "mle"]),
              "methods must not repeat")]
    for i, (command, obj, message) in enumerate(cases):
        cfg = write_json(tmp_path / f"c{i}.json", obj)
        out = tmp_path / f"o{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


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


def test_experiment_ica_nce_and_mle_exits_0(tmp_path, capsys):
    # the Laplace ICA objectives are kinked, so Adam never meets grad_tol;
    # the statistical stop makes their cells converge
    cfg = write_json(tmp_path / "e.json", {
        "schema": 1, "model": {"kind": "ica_laplace"}, "methods": ["nce", "mle"],
        "n_grid": [500], "kappa_grid": [5], "repeats": 2, "master_seed": 3})
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    assert "warnings" not in capsys.readouterr().err
    rows = open(out / "results.csv").read().splitlines()[1:]
    assert len(rows) == 4 and all(",true," in row for row in rows)


def test_experiment_counts_warnings_per_kind(tmp_path, capsys):
    # no flip probability up to the schedule's epsilon_max of 0.5 moves the
    # loss 1.3 nats from 2 log 2, and two iterations are too few: each of
    # the 4 cells warns twice
    cfg = write_json(tmp_path / "e.json", experiment_config(
        methods=["cnce"], optimizer={"max_iters": 2},
        epsilon_schedule={"delta": 1.3, "epsilon_max": 0.5}))
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["8 warnings:", "  4\u00d7 epsilon ladder capped",
                   "  4\u00d7 not converged (max_iters)"]


def test_experiment_force_guard(tmp_path, capsys):
    cfg = write_json(tmp_path / "e.json", experiment_config(repeats=1))
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) in (0, 2)
    capsys.readouterr()
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 1
    assert "exists" in capsys.readouterr().err
    assert main(["experiment", "--config", cfg, "--out", str(out),
                 "--force"]) in (0, 2)


def test_stale_chart_stops_experiment_and_report_before_any_output(tmp_path, capsys):
    # a stale chart must stop the grid before it runs: written results would
    # block the rerun.  report checks every chart before it writes the first
    cfg = write_json(tmp_path / "e.json", experiment_config(repeats=1))
    out = tmp_path / "out"
    out.mkdir()
    (out / "bernoulli.svg").write_text("stale")
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 1
    assert "bernoulli.svg exists" in capsys.readouterr().err
    assert os.listdir(out) == ["bernoulli.svg"]

    recs = [ErrorRecord(run_id=f"{model}-r", model=model, method="cnce", n=10,
                        kappa=1, epsilon=0.1, seed=2, error=0.5, sq_error=0.25,
                        converged=True, iters=3, wall_ms=0.0)
            for model in ("bernoulli", "ring")]
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(records_to_csv(recs))
    rep = tmp_path / "rep"
    rep.mkdir()
    (rep / "ring.svg").write_text("stale")
    assert main(["report", "--csv", str(csv_path), "--out", str(rep)]) == 1
    assert "ring.svg exists" in capsys.readouterr().err
    assert os.listdir(rep) == ["ring.svg"]
    assert main(["report", "--csv", str(csv_path), "--out", str(rep), "--force"]) == 0
    assert sorted(os.listdir(rep)) == ["bernoulli.svg", "ring.svg"]


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
    assert got["optimizer"]["adam_step"] == 0.05
    assert "plateau_window" not in got["optimizer"]  # deprecated, not written
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


def test_report_malformed_row_exit_1(tmp_path, capsys):
    # a short row, a converged flag that is neither true nor false, and a
    # number that does not parse: each is an error naming the line
    rec = ErrorRecord(run_id="a", model="ring", method="nce", n=10, kappa=1,
                      epsilon=None, seed=2, error=0.5, sq_error=0.25,
                      converged=True, iters=3, wall_ms=0.0)
    text = records_to_csv([rec, rec])
    header, first, second = text.splitlines()
    for i, bad in enumerate((second.rsplit(",", 3)[0],
                             second.replace(",true,", ",True,"),
                             second.replace(",0.5,", ",half,"))):
        csv_path = tmp_path / f"bad{i}.csv"
        csv_path.write_text("\n".join([header, first, bad]) + "\n")
        assert main(["report", "--csv", str(csv_path), "--out",
                     str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith("error: csv line 3:")


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


_ONE_CELL_PER_METHOD = """
import sys, cnce, cnce.cli
from cnce.experiments import ExperimentConfig, run_single
from cnce.models import KINDS, build_model, default_spec
from cnce.optimize import OptimizerConfig

for kind in KINDS:
    spec = default_spec(kind)
    methods = build_model(spec).methods
    cfg = ExperimentConfig(model=spec, methods=methods, n_grid=(40,),
                           kappa_grid=(2,), repeats=1,
                           optimizer=OptimizerConfig(max_iters=20))
    for method in methods:
        run_single(cfg, method, 40, 2, 0)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_and_one_cell_per_method_load_no_scipy():
    # importing scipy.special alone takes ~0.3 s, more than half of a
    # fresh process's start-up (2-core VM); the package needs numpy only
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _ONE_CELL_PER_METHOD],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"
