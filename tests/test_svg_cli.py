"""SVG rendering determinism and the command-line surface (exit codes,
config validation, output files)."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cnce.cli
import cnce.experiments
from cnce.cli import main
from cnce.svgplot import Series, chart_series_for_model, render_loglog
from cnce.experiments import ErrorRecord, QuantileSummary, records_to_csv, summarize


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
        "optimizer": {"max_iters": 500},
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
        "optimizer": {"max_iters": 120},
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
            sq_error=err**2, converged=True, iters=1))
    series = chart_series_for_model(summarize(records))
    assert len(series) == 3  # solid median + dashed q10 + dashed q90
    assert sum(s.in_legend for s in series) == 1
    assert sum(s.dashed for s in series) == 2


def quantile_summaries(groups):
    """Summaries of the first `groups` of 16 (method, kappa) groups at three
    N, listed in reverse so the chart has to sort them."""
    keys = [(method, kappa) for kappa in (2, 5, 10, 20)
            for method in ("cnce", "nce", "score_matching", "mle")]
    out = []
    for j, (method, kappa) in enumerate(keys[:groups]):
        for n in (500, 2000, 8000):
            median = (j + 1) / n**0.5
            out.append(QuantileSummary(method=method, n=n, kappa=kappa, median=median,
                                       q10=0.6 * median, q90=1.7 * median))
    return out[::-1]


def golden_charts():
    charts = {"empty": render_loglog([], "estimation error", "sample size N",
                                     "squared error")}
    for groups in range(1, 9):
        charts[f"groups{groups}"] = render_loglog(
            chart_series_for_model(quantile_summaries(groups)),
            "gaussian_precision: estimation error", "sample size N", "squared error")
    charts["escaped"] = render_loglog(
        [Series("a <&> b", (10, 100), (0.5, 0.05), "#1f77b4")],
        "<t&t>", "x <&>", "y & <y>")
    nan, inf = float("nan"), float("inf")
    charts["skipped"] = render_loglog([
        Series("kept", (100, 0, 1000, -5, 10000, 1e5), (0.3, 0.2, nan, 0.1, 0.01, inf),
               "#d62728"),
        Series("dashed", (100, 1000, 10000), (0.2, 0.05, 0.003), "#2ca02c",
               dashed=True),
        Series("hidden", (200, 2000), (0.1, 0.02), "#9467bd", dashed=True,
               in_legend=False),
        Series("no points", (0, 10), (1.0, -inf), "#000000"),
    ], "skipped points", "N", "error")
    return charts


# sha256 of each golden chart's UTF-8 bytes, captured from the svgplot these
# charts were first drawn with: a rewrite of the writer must keep every byte
GOLDEN_SHA256 = {
    "empty": "050b48d359403b013b617601ccdd913724ce24002c26b20c501f16fc40ed25f4",
    "groups1": "8eff2692574d55af4889f02583edbd76ed591e7dc08e9912a0466751e8772390",
    "groups2": "89ee2a78921383e33ef1329a304f602336d1b7d4522ca88b62d0fbaef62ee3e3",
    "groups3": "ea295225dd8a733b96631fc1ab65631357941fc648aa50c1a7bb2dc62ca68204",
    "groups4": "8886a2f2e2b96205ec497469039ae549e7d742d82823c31b5271ee93f4061f11",
    "groups5": "fd096a842faea87037e8546316b123822d5416772f83e96033f24b01b4b03ac4",
    "groups6": "d78e97200e87f4a1e4e034452536cfdcac7a260877b605ecff50cce0a44f63a0",
    "groups7": "55c0603b2793fe0243a4f8f77b042b9e7613c8bfbe1ea96fd51bfc5445a03aa9",
    "groups8": "e15c6b7dbcebf03faa4cce71f875a14d3a84ad8ccc90979cc00c17b2cd4707d2",
    "escaped": "90acf48dc506766318f1a917df1e97c14b2b27742344988c75a05e31433c6af3",
    "skipped": "4c2fe4aae428468d5661d4de6caca80efeb31ee80a29b43aa3b0cda96e68d3f0",
}


def test_svg_golden_bytes():
    digests = {name: hashlib.sha256(doc.encode()).hexdigest()
               for name, doc in golden_charts().items()}
    assert digests == GOLDEN_SHA256


def test_chart_colours_distinct_for_16_groups():
    series = chart_series_for_model(quantile_summaries(16))
    medians = [s for s in series if s.in_legend]
    assert len(medians) == 16 and len({s.color for s in medians}) == 16
    # each group's quantile lines take its median's colour
    assert all(s.color == series[3 * (i // 3)].color for i, s in enumerate(series))


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
    # at a flip probability of 1 the noise is 1 - x and the closed-form
    # start is the CNCE minimiser; at 0.8 Newton needs 3 iterations
    cfg = write_json(tmp_path / "c.json",
                     bernoulli_config(epsilon=0.8, optimizer={"max_iters": 2}))
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


_READERS = {"experiment": (experiment_config(), "n_grid"),
            "estimate": (bernoulli_config(), "kappa"),
            "limit-check": ({"schema": 1, "mc_pairs": 100}, None)}


@pytest.mark.parametrize("command", sorted(_READERS))
def test_config_reader_errors_exit_1(command, tmp_path, capsys):
    # every command's config goes through the same checks, in the same order
    valid, required = _READERS[command]
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"schema": 1,')
    cases = [(str(bad_json), "error: config is not valid JSON"),
             (write_json(tmp_path / "s.json", dict(valid, schema=2)),
              "error: missing or unsupported 'schema' (expected 1)"),
             (write_json(tmp_path / "u.json", dict(valid, schema=2, extra=1)),
              f"error: unknown key 'extra' in {command} config")]
    if required is not None:
        missing = {k: v for k, v in valid.items() if k != required}
        cases.append((write_json(tmp_path / "m.json", missing),
                      f"error: missing key {required!r} in {command} config"))
    out = tmp_path / "out"
    for path, message in cases:
        assert main([command, "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not os.path.exists(out)


def test_estimate_bernoulli_quality(tmp_path, capsys):
    errors = []
    for seed in (1, 2, 3):
        cfg = write_json(tmp_path / f"c{seed}.json",
                         bernoulli_config(n=100_000, kappa=2, seed=seed,
                                          optimizer={"max_iters": 400}))
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
    # the Laplace ICA objectives are kinked, so BFGS never meets grad_tol;
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
                        converged=True, iters=3)
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
        model={"kind": "ring", "dim": 2, "mu": 3.5}, methods=["cnce"], repeats=1,
        epsilon_schedule={"epsilon_0": 0.07, "delta": 0.1}))
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
    assert got["model"] == {"kind": "ring", "dim": 2, "mu": 3.5}
    assert "ring_mu" not in got
    assert got["optimizer"]["max_iters"] == 120
    assert set(got["optimizer"]) == {"max_iters", "grad_tol"}
    assert "plateau_window" not in got["optimizer"]  # a removed key is never written
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
    # a results.csv with a trailing wall_ms column, the format before the
    # column went: the unexpected column is named, and nothing is written
    header = records_to_csv([]).rstrip("\n")
    csv_path.write_text(f"{header},wall_ms\n")
    assert main(["report", "--csv", str(csv_path), "--out",
                 str(tmp_path / "rep")]) == 1
    assert "unexpected columns: ['wall_ms']" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.csv"]


def test_report_malformed_row_exit_1(tmp_path, capsys):
    # a short row, a converged flag that is neither true nor false, a
    # number that does not parse and a model that is no known kind (its
    # chart would be written outside --out): each is an error naming the
    # line, and nothing is written
    rec = ErrorRecord(run_id="a", model="ring", method="nce", n=10, kappa=1,
                      epsilon=None, seed=2, error=0.5, sq_error=0.25,
                      converged=True, iters=3)
    text = records_to_csv([rec, rec])
    header, first, second = text.splitlines()
    bad_rows = (second.rsplit(",", 3)[0],
                second.replace(",true,", ",True,"),
                second.replace(",0.5,", ",half,"),
                second.replace(",ring,", ",../escaped,"))
    for i, bad in enumerate(bad_rows):
        csv_path = tmp_path / f"bad{i}.csv"
        csv_path.write_text("\n".join([header, first, bad]) + "\n")
        assert main(["report", "--csv", str(csv_path), "--out",
                     str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith("error: csv line 3:")
    assert sorted(os.listdir(tmp_path)) == [f"bad{i}.csv" for i in range(len(bad_rows))]


def test_unreadable_csv_or_config_exit_1(tmp_path, capsys):
    # an empty CSV has no header line, a directory is no file and a missing
    # file is none: each is an error line and exit 1, not a traceback
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    folder = tmp_path / "folder"
    folder.mkdir()
    out = str(tmp_path / "rep")
    for argv in (["report", "--csv", str(empty), "--out", out],
                 ["report", "--csv", str(folder), "--out", out],
                 ["experiment", "--config", str(folder), "--out", out],
                 ["estimate", "--config", str(folder), "--out", out],
                 ["estimate", "--config", str(tmp_path / "missing.json"), "--out", out]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "report.svg"))


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


def test_limit_check_precision_key(tmp_path, capsys):
    # the default precision is the 5 x 5 identity; another one, here 2 x 2,
    # moves every loss
    base = {"schema": 1, "eps_grid": [0.04], "mc_pairs": 2000, "seed": 3}
    identity = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]
    texts = []
    for i, extra in enumerate(({}, {"precision": identity},
                               {"precision": [2.0, 0.5, 1.0]})):
        cfg = write_json(tmp_path / f"l{i}.json", dict(base, **extra))
        assert main(["limit-check", "--config", cfg, "--out",
                     str(tmp_path / f"o{i}")]) in (0, 2)
        texts.append(open(tmp_path / f"o{i}" / "limit_check.json").read())
    capsys.readouterr()
    assert texts[0] == texts[1] != texts[2]
    assert json.loads(texts[2])[0]["mc_loss"] != json.loads(texts[0])[0]["mc_loss"]


def test_limit_check_config_values_are_checked_by_name(tmp_path, capsys):
    # ["1", 0, "1"] and [true, 0, true] once ran as the precision [1, 0, 1],
    # and a bare eps_grid number failed with "'float' object is not iterable"
    real = "must be a finite real number"
    cases = [({"precision": ["1", 0, "1"]}, "precision entry " + real),
             ({"precision": [True, 0, True]}, "precision entry " + real),
             ({"precision": "1 0 1"}, "precision must be a list"),
             ({"eps_grid": 0.5}, "eps_grid must be a list"),
             ({"eps_grid": ["0.5"]}, "eps_grid entry " + real)]
    for i, (extra, message) in enumerate(cases):
        cfg = write_json(tmp_path / f"l{i}.json", {"schema": 1, "mc_pairs": 100, **extra})
        out = tmp_path / f"o{i}"
        assert main(["limit-check", "--config", cfg, "--out", str(out)]) == 1, extra
        assert message in capsys.readouterr().err, extra
        assert not os.path.exists(out)


def test_experiment_jobs_below_one_exit_1(tmp_path, capsys):
    cfg = write_json(tmp_path / "e.json", experiment_config(repeats=1))
    for jobs in ("0", "-4"):
        out = tmp_path / f"o{jobs}"
        assert main(["experiment", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()  # --out is created only when a file is written


def test_experiment_out_at_a_regular_file_exits_1_before_any_cell(
        tmp_path, capsys, monkeypatch):
    cfg = write_json(tmp_path / "e.json", experiment_config(repeats=1))
    (tmp_path / "file").write_text("kept")

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cnce.experiments, "run_single", no_cell)
    for out in ("file", os.path.join("file", "sub")):
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / out)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'file'} is not a directory\n"
    assert (tmp_path / "file").read_text() == "kept"


def test_estimate_and_limit_check_refuse_an_existing_output_before_computing(
        tmp_path, capsys, monkeypatch):
    # a second run into the same --out stops before the fit or the Monte
    # Carlo table, and the first run's outputs are kept
    est = write_json(tmp_path / "c.json", bernoulli_config())
    lc = write_json(tmp_path / "l.json",
                    {"schema": 1, "eps_grid": [0.04], "mc_pairs": 2000, "seed": 3})
    out = tmp_path / "out"
    assert main(["estimate", "--config", est, "--out", str(out)]) == 0
    assert main(["limit-check", "--config", lc, "--out", str(out)]) in (0, 2)
    capsys.readouterr()
    kept = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(kept) == 2

    def no_work(*args, **kwargs):
        raise AssertionError("computed before refusing the output")

    monkeypatch.setattr(cnce.cli, "run_single", no_work)
    monkeypatch.setattr(cnce.cli, "limit_check", no_work)
    for command, cfg in (("estimate", est), ("limit-check", lc)):
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "exists (pass --force to overwrite)" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == kept


def test_usage_error_exit_1(capsys):
    assert main(["estimate", "--out", "x"]) == 1  # missing --config
    assert main(["no-such-command"]) == 1
    # report reads no config, so it takes no --seed
    assert main(["report", "--csv", "x", "--out", "y", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


_ONE_CELL_PER_METHOD = """
import sys, cnce, cnce.cli
from cnce.experiments import ExperimentConfig, run_grid
from cnce.models import _CLASSES
from cnce.optimize import OptimizerConfig

for cls in _CLASSES.values():
    cfg = ExperimentConfig(model=cls(), methods=cls.methods, n_grid=(40,),
                           kappa_grid=(2,), repeats=1,
                           optimizer=OptimizerConfig(max_iters=20))
    run_grid(cfg, jobs=1)  # one cell per method
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
"""


def test_cli_and_one_cell_per_method_load_no_scipy():
    # importing scipy.special alone takes ~0.3 s, more than half of a
    # fresh process's start-up (2-core VM); the package needs numpy only.
    # Nor does a grid on one worker load multiprocessing, which only the
    # process pool needs
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _ONE_CELL_PER_METHOD],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split("\n") == ["[]", "[]", ""]
