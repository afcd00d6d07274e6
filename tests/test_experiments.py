"""Harness: error metrics with ambiguity handling, seed hashing, grid
determinism, persistence round-trips, and the small-noise expansion table."""

import dataclasses
import itertools
import json
import multiprocessing
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnce import (
    EpsilonSchedule,
    ExperimentConfig,
    OptimizerConfig,
    ParameterError,
    RingModel,
    estimation_error,
    limit_check,
    persist,
    load_records,
    fit_marginal,
    log_density_marginal,
    minimize,
    run_grid,
    run_single,
    sample_conditional,
    sample_marginal,
    stable_hash,
    summarize,
)
from cnce.experiments import (
    CSV_HEADER,
    METHODS,
    ErrorRecord,
    config_from_json,
    config_to_json,
    newton_start,
    records_from_csv,
    records_to_csv,
    write_outputs,
)
from cnce.losses import cnce_objective, nce_log_normaliser, nce_objective
from cnce.models import BERNOULLI, GAUSSIAN, ICA, KINDS, LOGNORMAL, RING
from cnce.optimize import adapt_epsilon
from cnce.seeding import rng_from

from test_models import make


def small_config(kind=BERNOULLI, methods=("cnce",), repeats=2, **kw):
    defaults = dict(
        model=make(kind),
        methods=methods,
        n_grid=(200, 400),
        kappa_grid=(2,),
        repeats=repeats,
        master_seed=7,
        optimizer=OptimizerConfig(max_iters=150),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_error_zero_at_truth(kind):
    model = make(kind)
    theta = model.random_params(rng_from(1, kind))
    assert estimation_error(model, theta, theta) == 0.0


def test_error_gaussian_is_euclidean():
    model = make(GAUSSIAN)
    a = model.random_params(rng_from(2))
    b = a + 0.1
    assert estimation_error(model, b, a) == pytest.approx(np.linalg.norm(b - a))


def test_error_ica_signed_permutation_exact_zero():
    model = make(ICA)
    b_true = model.unpack(model.random_params(rng_from(3)))
    perm = [2, 0, 3, 1]
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    b_hat = signs[:, None] * b_true[perm]
    assert estimation_error(model, model.pack(b_hat), model.pack(b_true)) == 0.0


def test_error_ica_matches_bruteforce_384():
    model = make(ICA)
    rng = rng_from(4)
    b_true = model.unpack(model.random_params(rng))
    b_hat = b_true + 0.3 * rng.standard_normal((4, 4))
    fast = estimation_error(model, model.pack(b_hat), model.pack(b_true))
    best = np.inf
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((-1.0, 1.0), repeat=4):
            cand = np.diag(signs) @ b_hat[list(perm)]
            best = min(best, np.linalg.norm(cand - b_true))
    assert fast == pytest.approx(best, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.integers(0, 2**31 - 1))
def test_error_bernoulli_scale_invariant(c, seed):
    # the weights' redundant scale is an offset added to the log-weights
    model = make(BERNOULLI)
    rng = rng_from(seed, "bern")
    truth = model.random_params(rng)
    hat = rng.standard_normal(2)
    base = estimation_error(model, hat, truth)
    for shifted in ((hat + c, truth), (hat, truth + c)):
        assert estimation_error(model, *shifted) == pytest.approx(base, rel=1e-12)


def test_error_lognormal_is_the_precision_gap():
    # the default Euclidean norm of a one-entry vector: |delta precision|
    model = make(LOGNORMAL)
    for hat, truth in (([1.5], [1.2]), ([0.7], [1.9]), ([1.2], [1.2])):
        assert estimation_error(model, np.array(hat), np.array(truth)) == abs(
            hat[0] - truth[0])


def test_error_packing_mismatch():
    model = make(RING)
    with pytest.raises(ParameterError):
        estimation_error(model, np.ones(2), np.ones(1))


# ---------------------------------------------------------------------------
# seed hashing
# ---------------------------------------------------------------------------

def test_stable_hash_documented_encoding():
    # independent re-implementation of the documented byte layout
    def mix(z):
        mask = (1 << 64) - 1
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    buf = b"i" + struct.pack("<Q", 5) + b"s" + struct.pack("<I", 4) + b"cnce"
    buf += b"\x00" * (8 - len(buf) % 8)
    state = 0
    for i in range(0, len(buf), 8):
        state = mix(state ^ struct.unpack_from("<Q", buf, i)[0])
    assert stable_hash(5, "cnce") == state


def test_stable_hash_sensitivity():
    base = stable_hash(0, "gaussian_precision", "cnce", 1000, 10, 0)
    assert stable_hash(0, "gaussian_precision", "cnce", 1000, 10, 1) != base
    assert stable_hash(0, "gaussian_precision", "nce", 1000, 10, 0) != base
    assert stable_hash(1, "gaussian_precision", "cnce", 1000, 10, 0) != base
    assert 0 <= base < 2**64


def test_stable_hash_rejects_floats():
    for part in (1.5, True):  # a bool is an int subclass, refused as ambiguous
        with pytest.raises(TypeError):
            stable_hash(part)


# ---------------------------------------------------------------------------
# grid runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_config_accepts_exactly_the_model_methods(kind):
    supported = make(kind).methods
    assert set(supported) <= set(METHODS)
    for method in METHODS:
        if method in supported:
            small_config(kind=kind, methods=(method,))
        else:
            with pytest.raises(ParameterError):
                small_config(kind=kind, methods=(method,))


def test_config_validation():
    with pytest.raises(ParameterError):
        small_config(n_grid=(400, 200))
    with pytest.raises(ParameterError):
        small_config(kind=RING, methods=("mle",))
    with pytest.raises(ParameterError):
        small_config(kind=BERNOULLI, methods=("nce",))
    with pytest.raises(ParameterError):
        small_config(repeats=0)
    for n_grid in ((), (0, 200), (-5,)):
        with pytest.raises(ParameterError):
            small_config(n_grid=n_grid)
    for kappa_grid in ((), (0,), (2, 2), (3, 2), (2.5,)):
        with pytest.raises(ParameterError):
            small_config(kappa_grid=kappa_grid)
    with pytest.raises(ParameterError):
        small_config(kind=GAUSSIAN, methods=("cnce", "nce"), n_grid=(5, 200))
    with pytest.raises(ParameterError, match="mle needs every n >= dim"):
        small_config(kind=GAUSSIAN, methods=("cnce", "mle"), n_grid=(4, 200))
    small_config(kind=GAUSSIAN, methods=("cnce", "nce"), n_grid=(6,),
                 kappa_grid=(1, np.int64(3)))
    small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(5,))
    # integers are checked, not truncated: [2.7] must not run kappa = 2
    base = config_to_json(small_config())
    # and reals must be numbers: true must not run epsilon = 1.0
    integer, real = "must be an integer", "must be a finite real number"
    owners = {"optimizer": OptimizerConfig, "epsilon_schedule": EpsilonSchedule}

    def construct(key, value):
        """The direct constructor call that owns the JSON key."""
        if key == "model":
            return make(**value)
        if key in owners:
            return owners[key](**value)
        return small_config(**{key: value})

    for key, value, message in (
            ("kappa_grid", [2.7], integer), ("kappa_grid", [True], integer),
            ("n_grid", [200, 400.5], integer), ("n_grid", ["200"], integer),
            ("n_grid", [100.5], integer),
            ("repeats", 1.5, integer), ("repeats", False, integer),
            ("master_seed", 7.25, integer), ("master_seed", float("nan"), integer),
            ("optimizer", {"max_iters": 2.7}, integer),
            ("model", {"kind": "gaussian_precision", "dim": 2.5}, integer),
            ("epsilon", True, real), ("epsilon", "0.5", real),
            ("epsilon", float("inf"), real),
            ("epsilon", 0.0, "epsilon must be 'auto' or > 0"),
            ("epsilon", -0.5, "epsilon must be 'auto' or > 0"),
            ("methods", [], "methods must be non-empty"),
            # a string or a number where a list belongs is refused by name,
            # not split into characters or iterated
            ("methods", "cnce", "methods must be a list"),
            ("n_grid", "12", "n_grid must be a list"),
            ("kappa_grid", 5, "kappa_grid must be a list"),
            ("model", {"kind": "ring", "mu": False}, real),
            ("model", {"kind": "ring", "dim": 2, "mu": "3.0"}, real),
            ("epsilon_schedule", {"epsilon_0": True}, real),
            ("epsilon_schedule", {"delta": "0.1"}, real),
            ("epsilon_schedule", {"epsilon_max": float("nan")}, real),
            ("epsilon_schedule", {"epsilon_0": 0.0}, "epsilon_0 must be > 0"),
            # a first rung above the last would be dropped unread
            ("epsilon_schedule", {"epsilon_0": 8.0, "epsilon_max": 4.0},
             "epsilon_max must be >= epsilon_0"),
            ("optimizer", {"grad_tol": True}, real),
            # a repeated method would run every cell twice
            ("methods", ["mle", "mle"], "methods must not repeat"),
            # a flip probability above 1 would fail every CNCE cell
            ("epsilon", 1.5, "epsilon must be <= 1.0")):
        for build in (lambda: config_from_json(dict(base, **{key: value})),
                      lambda: construct(key, value)):
            with pytest.raises(ParameterError) as err:
                build()
            assert message in str(err.value), (key, value)
    # the cap binds CNCE's fixed noise scale only
    small_config(epsilon=1.0)
    small_config(methods=("mle",), epsilon=1.5)
    small_config(kind=GAUSSIAN, epsilon=1.5)
    for exact in (config_from_json(dict(base, kappa_grid=[2.0], repeats=2.0)),
                  small_config(kappa_grid=(2.0,), repeats=2.0)):
        assert exact.kappa_grid == (2,) and exact.repeats == 2
        assert type(exact.kappa_grid[0]) is int and type(exact.repeats) is int


def test_config_refuses_a_first_rung_above_the_kernel_cap():
    # the ladder would drop such an epsilon_0 unread and start at the cap
    high = EpsilonSchedule(epsilon_0=2.0)
    assert high.ladder(1.0) == [1.0]
    base = config_to_json(small_config())
    for build in (lambda: small_config(epsilon_schedule=high),
                  lambda: config_from_json(dict(base, epsilon_schedule={"epsilon_0": 2.0}))):
        with pytest.raises(ParameterError, match=r"epsilon_0 must be <= 1\.0, the cap"):
            build()
    # the cap itself is a rung, and the schedule binds only auto CNCE
    small_config(epsilon_schedule=EpsilonSchedule(epsilon_0=1.0))
    small_config(epsilon_schedule=high, epsilon=0.5)
    small_config(methods=("mle",), epsilon_schedule=high)
    small_config(kind=GAUSSIAN, epsilon_schedule=high)


def test_run_grid_cardinality_and_order():
    cfg = small_config(methods=("cnce", "mle"), repeats=3)
    records, summaries, _ = run_grid(cfg)
    assert len(records) == 2 * 2 * 1 * 3
    assert [r.run_id for r in records] == sorted(r.run_id for r in records)
    assert len(summaries) == 4
    for s in summaries:
        assert s.q10 <= s.median <= s.q90


def test_run_grid_bit_identical_reruns():
    cfg = small_config(repeats=1)
    a = run_grid(cfg)[0]
    b = run_grid(cfg)[0]
    assert a == b
    assert records_to_csv(a) == records_to_csv(b)


def test_run_grid_jobs_agree():
    for cfg in (small_config(methods=("cnce", "mle"), repeats=2),
                # the ring's long one-column products: 40 000 CNCE pairs and
                # 44 000 NCE rows
                small_config(kind=RING, methods=("cnce", "nce"), n_grid=(4000,),
                             kappa_grid=(10,), repeats=1)):
        serial = run_grid(cfg, jobs=1)[0]
        parallel = run_grid(cfg, jobs=4)[0]
        assert records_to_csv(serial) == records_to_csv(parallel)


@pytest.mark.parametrize("jobs", (1, 2))
def test_run_grid_isolates_a_failing_cell(jobs, monkeypatch):
    # worker processes see the patched module only when forked from this one
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork-started workers to inherit the patch")
    import cnce.experiments

    cfg = small_config(kind=GAUSSIAN, methods=("nce",), repeats=1)
    clean = run_grid(cfg, jobs=1)[0]
    build = cnce.experiments.nce_objective

    def flaky(model, x, noise, log_q):
        if len(x) == 400:
            raise ValueError("injected")
        return build(model, x, noise, log_q)

    monkeypatch.setattr(cnce.experiments, "nce_objective", flaky)
    records, summaries, warnings = run_grid(cfg, jobs=jobs)
    assert [r.run_id for r in records] == [r.run_id for r in clean]
    assert [(s.n, s.median) for s in summaries] == [(200, clean[0].error),
                                                     (400, float("inf"))]
    failed, kept = records[1], records[0]
    assert failed.n == 400 and kept == clean[0]
    assert failed.error == float("inf") and failed.sq_error == float("inf")
    assert not failed.converged
    # one warning for the failed cell, none for the clean one
    assert warnings == ["cell failed: ValueError: injected"]
    text = records_to_csv(records)
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert records_from_csv(text) == records


def test_run_grid_rejects_fewer_than_one_job():
    for jobs in (0, -4):
        with pytest.raises(ParameterError, match="jobs must be >= 1"):
            run_grid(small_config(repeats=1), jobs=jobs)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_failed_cell_writes_valid_json(tmp_path, monkeypatch):
    # a failed cell's error is inf and its estimate NaN: JSON has neither,
    # so they are written as null
    import cnce.experiments

    cfg = small_config(kind=GAUSSIAN, methods=("nce",), repeats=1)
    build = cnce.experiments.nce_objective

    def flaky(model, x, noise, log_q):
        if len(x) == 400:
            raise ValueError("injected")
        return build(model, x, noise, log_q)

    monkeypatch.setattr(cnce.experiments, "nce_objective", flaky)
    records, summaries, _ = run_grid(cfg)
    _, json_path = persist(records, summaries, config_to_json(cfg), str(tmp_path))
    text = open(json_path).read()
    failed = json.loads(text, parse_constant=_reject_constant)["summaries"][1]
    assert failed["n"] == 400 and failed["median"] is None
    trace = run_single(cfg, "nce", 400, 2, 0, collect_trace=True)[2]
    (trace_path,) = write_outputs(str(tmp_path), {"trace.json": trace})
    got = json.loads(open(trace_path).read(), parse_constant=_reject_constant)
    assert got["error"] is None and set(got["theta_hat"]) == {None}


def test_write_outputs_keeps_the_old_file_when_a_write_fails(tmp_path, monkeypatch):
    write_outputs(str(tmp_path), {"a.csv": "old\n", "b.json": {"x": 1.5}})
    assert open(tmp_path / "b.json").read() == '{\n  "x": 1.5\n}\n'
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails part-way
        write_outputs(str(tmp_path), {"a.csv": "new\n" * 10_000 + "\ud800"},
                      force=True)

    def failing_replace(src, dst):
        raise OSError("injected")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        write_outputs(str(tmp_path), {"a.csv": "new\n"}, force=True)
    assert open(tmp_path / "a.csv").read() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.json"]


def test_run_grid_keeps_a_nonfinite_nce_cell(monkeypatch):
    # the failed run's theta carries NCE's trailing c; the cell must still
    # be recorded, not end the grid
    import cnce.experiments

    build = cnce.experiments.nce_objective

    def poisoned(model, x, noise, log_q):
        objective = build(model, x, noise, log_q)
        return lambda raw: (np.nan,) + tuple(objective(raw)[1:])

    monkeypatch.setattr(cnce.experiments, "nce_objective", poisoned)
    cfg = small_config(kind=GAUSSIAN, methods=("nce", "mle"), n_grid=(200,),
                       repeats=1)
    records, _, warnings = run_grid(cfg)
    assert [r.method for r in records] == ["mle", "nce"]
    nce = records[1]
    assert not nce.converged and np.isfinite(nce.error)
    assert "not converged (nonfinite)" in warnings


def test_run_single_records_the_best_point_of_a_run_that_turns_nonfinite(
        monkeypatch):
    # ICA NCE runs Adam; its loss turns NaN after 300 calls, well before the
    # statistical stop.  The cell records the error of the best point Adam
    # visited, not that of the start
    import cnce.experiments

    build, minimize = cnce.experiments.nce_objective, cnce.experiments.minimize
    runs = []

    def poisoned(model, x, noise, log_q):
        objective, calls = build(model, x, noise, log_q), []

        def fn(raw):
            calls.append(raw)
            out = objective(raw)
            return out if len(calls) <= 300 else (np.nan,) + tuple(out[1:])

        return fn

    def recorded_minimize(objective, raw0, cfg):
        runs.append((raw0, minimize(objective, raw0, cfg)))
        return runs[-1][1]

    monkeypatch.setattr(cnce.experiments, "nce_objective", poisoned)
    monkeypatch.setattr(cnce.experiments, "minimize", recorded_minimize)
    cfg = small_config(kind=ICA, methods=("nce",), n_grid=(500,), kappa_grid=(5,),
                       master_seed=3, optimizer=OptimizerConfig())
    record, warnings, trace = run_single(cfg, "nce", 500, 5, 0, collect_trace=True)
    ((raw0, run),) = runs
    assert (run.stop, run.iters) == ("nonfinite", 300)
    assert not record.converged and "not converged (nonfinite)" in warnings
    model = cfg.model
    p = model.param_count
    theta_hat = run.theta[:p]
    assert trace["theta_hat"] == list(theta_hat)
    assert record.error == estimation_error(model, theta_hat, trace["theta_true"])
    start_error = estimation_error(model, raw0[:p], trace["theta_true"])
    assert record.error < start_error


def test_run_single_ica_mle_maps_a_nonfinite_run_back_from_whitening(monkeypatch):
    # non-finite at the start: the run hands on its start, which the MLE
    # must map out of the whitened coordinates to the drawn B0
    import cnce.losses

    objective = cnce.losses.ica_mle_objective

    def poisoned(model, x):
        fn = objective(model, x)
        return lambda raw: (np.nan,) + tuple(fn(raw)[1:])

    monkeypatch.setattr(cnce.losses, "ica_mle_objective", poisoned)
    cfg = small_config(kind=ICA, methods=("mle",), n_grid=(500,), kappa_grid=(5,),
                       master_seed=3)
    record, warnings, trace = run_single(cfg, "mle", 500, 5, 0, collect_trace=True)
    assert (trace["stop"], trace["iters"]) == ("nonfinite", 0)
    assert not record.converged and "not converged (nonfinite)" in warnings
    seed = stable_hash(3, ICA, "mle", 500, 5, 0)
    b0 = cfg.model.init_theta(
        rng_from(stable_hash(stable_hash(seed, "mle"), "ica_mle_init")))
    assert np.allclose(trace["theta_hat"], b0, rtol=1e-12, atol=1e-14)
    assert record.error == estimation_error(cfg.model, trace["theta_hat"],
                                            trace["theta_true"])


@pytest.mark.parametrize("kind", [GAUSSIAN, RING, LOGNORMAL, ICA])
def test_run_single_starts_nce_c_at_its_log_normaliser_where_newton_runs(
        kind, monkeypatch):
    import cnce.experiments
    from cnce.losses import nce_log_normaliser

    build, minimize = cnce.experiments.nce_objective, cnce.experiments.minimize
    seen = {}

    def recorded_build(model, x, noise, log_q):
        seen["args"] = (model, noise, log_q)
        return build(model, x, noise, log_q)

    def recorded_minimize(objective, raw0, cfg):
        seen["raw0"] = raw0
        return minimize(objective, raw0, cfg)

    monkeypatch.setattr(cnce.experiments, "nce_objective", recorded_build)
    monkeypatch.setattr(cnce.experiments, "minimize", recorded_minimize)
    cfg = small_config(kind=kind, methods=("nce",), n_grid=(200,), repeats=1,
                       optimizer=OptimizerConfig(max_iters=3))
    run_single(cfg, "nce", 200, 2, 0)
    model, noise, log_q = seen["args"]
    *theta0, c0 = seen["raw0"]
    if kind == ICA:  # the Adam route starts c at 0
        assert c0 == 0.0
    else:
        assert c0 == nce_log_normaliser(model, np.array(theta0), noise,
                                        log_q[-len(noise):])


# every affine model with each contrastive method it supports
CONTRASTIVE_CASES = [(kind, method) for kind in (GAUSSIAN, RING, LOGNORMAL, BERNOULLI)
                     for method in ("cnce", "nce") if method in make(kind).methods]


@pytest.fixture
def minimize_starts(monkeypatch):
    """The start of every ``minimize`` call that ``run_single`` makes."""
    import cnce.experiments

    minimize_ = cnce.experiments.minimize
    starts = []

    def recorded_minimize(objective, start, cfg):
        starts.append(start)
        return minimize_(objective, start, cfg)

    monkeypatch.setattr(cnce.experiments, "minimize", recorded_minimize)
    return starts


@pytest.mark.parametrize("kind", KINDS)
def test_newton_start_is_the_closed_form_estimate_of_an_affine_model(kind):
    model = make(kind)
    x = model.sample(model.random_params(rng_from(81, kind)), 300, rng_from(82, kind))
    theta0 = model.init_theta(rng_from(83, kind))
    start = newton_start(model, x, theta0)
    if not model.affine:  # Adam keeps the random start
        assert start is theta0
    elif "mle" in model.methods:
        assert np.array_equal(start, model.mle(x))
    else:  # the ring: the score-matching minimiser, -b / a for its one parameter
        a, b, _ = model.score_quadratic(x)
        assert start == pytest.approx(-b / a[0], rel=1e-14)
        assert start[0] > 0


def test_newton_start_falls_back_to_theta0_below_dim_gaussian_points():
    model = make(GAUSSIAN)
    theta0 = model.init_theta(rng_from(84))
    for n in (2, 3, 4):
        x = model.sample(model.random_params(rng_from(85)), n, rng_from(86, n))
        assert newton_start(model, x, theta0) is theta0
    x = model.sample(model.random_params(rng_from(85)), 5, rng_from(87))
    assert newton_start(model, x, theta0) is not theta0


@pytest.mark.parametrize("bit", (0.0, 1.0))
def test_newton_start_falls_back_to_theta0_on_single_valued_bernoulli_data(bit):
    # the MLE gives the value the data never take a log-weight of -inf
    model = make(BERNOULLI)
    x = np.full((40, 1), bit)
    assert not np.all(np.isfinite(model.mle(x)))
    theta0 = model.init_theta(rng_from(88))
    assert newton_start(model, x, theta0) is theta0


def test_newton_start_falls_back_to_theta0_on_a_singular_ring_quadratic():
    # every point on the shell: A = mean (r - mu)^2 = 0 has no inverse
    model = make(RING)
    x = np.zeros((10, model.dim))
    x[:, 0] = model.mu
    theta0 = model.init_theta(rng_from(89))
    assert newton_start(model, x, theta0) is theta0


@pytest.mark.parametrize("kind,method", CONTRASTIVE_CASES)
def test_contrastive_fits_from_the_closed_form_start_and_from_theta0_agree(
        kind, method):
    # the loss is convex in theta, so both starts reach the one minimiser,
    # each within what grad_tol resolves.  Near it the loss is quadratic
    # with Hessian H = V diag(lam) V', a stop at |g|_inf <= grad_tol lies
    # within |g|_2 / lam_k <= sqrt(p) grad_tol / lam_k of it along v_k and
    # within p grad_tol^2 / (2 lam_min) of its loss; a direction H does
    # not see (the Bernoulli offset) is left free
    model = make(kind)
    cfg = OptimizerConfig()
    n, kappa = 1000, 10
    x = model.sample(model.random_params(rng_from(91, kind)), n, rng_from(92, kind))
    theta0 = model.init_theta(rng_from(93, kind))
    start = newton_start(model, x, theta0)
    assert not np.array_equal(start, theta0)
    if method == "cnce":
        epsilon, _, _ = adapt_epsilon(model, theta0, x, EpsilonSchedule(), kappa, 94)
        noise = sample_conditional(model.kernel.for_data(epsilon, x), x, kappa, 95)
        objective = cnce_objective(model, x, noise)
        starts = (start, theta0)
    else:
        marginal = fit_marginal(x)
        noise = sample_marginal(marginal, kappa * n, 96)
        log_q_noise = log_density_marginal(marginal, noise)
        objective = nce_objective(model, x, noise, np.concatenate(
            [log_density_marginal(marginal, x), log_q_noise]))
        starts = [np.append(s, nce_log_normaliser(model, s, noise, log_q_noise))
                  for s in (start, theta0)]
    closed, random = (minimize(objective, s, cfg) for s in starts)
    assert closed.stop == random.stop == "grad_tol"
    lam, vec = np.linalg.eigh(objective(closed.theta)[2]())
    seen = lam > 1e-12 * lam[-1]
    p = len(closed.theta)
    bound = 2.0 * np.sqrt(p) * cfg.grad_tol / lam[seen]
    assert np.all(np.abs(vec[:, seen].T @ (closed.theta - random.theta)) <= bound)
    f_closed, f_random = closed.loss_trace[-1], random.loss_trace[-1]
    assert abs(f_closed - f_random) <= (p * cfg.grad_tol**2 / lam[seen].min()
                                        + 16 * np.spacing(f_closed))


@pytest.mark.parametrize("kind,method", CONTRASTIVE_CASES + [(ICA, "cnce"), (ICA, "nce")])
def test_run_single_starts_at_newton_start_and_picks_epsilon_at_theta0(
        kind, method, minimize_starts):
    # the closed-form start moves where the fit starts, not the noise scale
    cfg = small_config(kind=kind, methods=(method,), n_grid=(300,), repeats=1,
                       kappa_grid=(5,), optimizer=OptimizerConfig(max_iters=3))
    record, _ = run_single(cfg, method, 300, 5, 0)
    seed = stable_hash(cfg.master_seed, kind, method, 300, 5, 0)
    model = cfg.model
    x = model.sample(model.random_params(rng_from(stable_hash(seed, "params"))), 300,
                     rng_from(stable_hash(seed, "data")))
    theta0 = model.init_theta(rng_from(stable_hash(seed, "init")))
    (start,) = minimize_starts
    assert record.seed == seed
    assert np.array_equal(start[:model.param_count], newton_start(model, x, theta0))
    if method == "cnce":
        assert record.epsilon == adapt_epsilon(model, theta0, x, cfg.epsilon_schedule,
                                               5, stable_hash(seed, "noise"))[0]


def test_run_single_fits_a_gaussian_below_dim_points_from_theta0(minimize_starts):
    # the MLE of 3 points in 5 dims is singular: CNCE starts at theta0 and
    # converges, and a config with the MLE is refused
    cfg = small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(3,), repeats=1,
                       kappa_grid=(5,), optimizer=OptimizerConfig())
    record, warnings = run_single(cfg, "cnce", 3, 5, 0)
    seed = stable_hash(cfg.master_seed, GAUSSIAN, "cnce", 3, 5, 0)
    (start,) = minimize_starts
    assert np.array_equal(start, cfg.model.init_theta(rng_from(stable_hash(seed, "init"))))
    assert record.converged and warnings == []
    with pytest.raises(ParameterError, match="mle needs every n >= dim"):
        small_config(kind=GAUSSIAN, methods=("cnce", "mle"), n_grid=(3,))


def test_run_single_fields():
    cfg = small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(300,))
    record, warnings = run_single(cfg, "cnce", 300, 2, 0)
    assert record.model == GAUSSIAN
    assert record.epsilon is not None and record.epsilon > 0
    assert record.sq_error == record.error**2
    assert not hasattr(record, "wall_ms")  # a record carries no time
    assert record.seed == stable_hash(7, GAUSSIAN, "cnce", 300, 2, 0)


def test_run_single_reports_the_stop_reason():
    cfg = small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(300,),
                       optimizer=OptimizerConfig(max_iters=2))
    record, warnings, trace = run_single(cfg, "cnce", 300, 2, 0, collect_trace=True)
    assert not record.converged
    assert "not converged (max_iters)" in warnings
    assert trace["stop"] == "max_iters"
    done = small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(300,))
    record, warnings, trace = run_single(done, "cnce", 300, 2, 0, collect_trace=True)
    assert record.converged and warnings == [] and trace["stop"] == "grad_tol"


def test_run_single_ica_cells_stop_on_the_sampling_error():
    cfg = small_config(kind=ICA, methods=("nce", "mle"), n_grid=(500,),
                       kappa_grid=(5,), optimizer=OptimizerConfig())
    for method in ("nce", "mle"):
        record, warnings, trace = run_single(cfg, method, 500, 5, 0,
                                             collect_trace=True)
        assert record.converged and warnings == [], method
        assert trace["stop"] == "stat_tol"
        assert record.iters < 2000


def test_run_single_ica_mle_follows_the_grid_optimizer():
    # the ICA MLE once ran the default optimiser whatever the grid set:
    # 852 iterations in this cell, where max_iters is 50
    cfg = small_config(kind=ICA, methods=("mle",), n_grid=(500,), kappa_grid=(5,),
                       master_seed=3, optimizer=OptimizerConfig(max_iters=50))
    record, warnings, trace = run_single(cfg, "mle", 500, 5, 0, collect_trace=True)
    assert record.iters == 50 and trace["stop"] == "max_iters"
    assert "not converged (max_iters)" in warnings


def test_run_single_ica_mle_starts_at_its_init_theta_draw():
    # one Adam entry hands the start back, mapped out of the whitened
    # coordinates: the model's init_theta draw from the cell's mle stream
    cfg = small_config(kind=ICA, methods=("mle",), n_grid=(500,), kappa_grid=(5,),
                       optimizer=OptimizerConfig(max_iters=1))
    _, _, trace = run_single(cfg, "mle", 500, 5, 0, collect_trace=True)
    seed = stable_hash(cfg.master_seed, ICA, "mle", 500, 5, 0)
    b0 = cfg.model.init_theta(
        rng_from(stable_hash(stable_hash(seed, "mle"), "ica_mle_init")))
    assert trace["iters"] == 1
    assert np.allclose(trace["theta_hat"], b0, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("kind", (GAUSSIAN, RING, LOGNORMAL))
def test_run_single_score_matching_lands_on_the_quadratic_minimiser(kind):
    # the cell's data, drawn as run_single draws them, give the exact
    # quadratic theta'A theta / 2 + b'theta + c, with A positive definite
    cfg = small_config(kind=kind, methods=("score_matching",), n_grid=(300,))
    record, warnings, trace = run_single(cfg, "score_matching", 300, 2, 0,
                                         collect_trace=True)
    assert (trace["stop"], record.converged, warnings) == ("grad_tol", True, [])
    assert record.epsilon is None
    model = cfg.model
    seed = stable_hash(7, kind, "score_matching", 300, 2, 0)
    theta_true = model.random_params(rng_from(stable_hash(seed, "params")))
    a, b, _ = model.score_quadratic(
        model.sample(theta_true, 300, rng_from(stable_hash(seed, "data"))))
    np.testing.assert_allclose(trace["theta_hat"], np.linalg.solve(a, -b),
                               rtol=1e-10, atol=0)


def test_run_single_mle_has_no_epsilon():
    cfg = small_config(kind=GAUSSIAN, methods=("mle",), n_grid=(300,))
    record, _ = run_single(cfg, "mle", 300, 2, 0)
    assert record.epsilon is None
    assert record.converged
    assert record.iters == 0  # closed form


def test_run_single_ica_mle_reports_iters(monkeypatch):
    import cnce.losses
    import cnce.optimize

    runs, built = [], []
    minimize, objective = cnce.optimize.minimize, cnce.losses.ica_mle_objective

    def counted_minimize(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    def counted_objective(*args, **kwargs):
        built.append(1)
        return objective(*args, **kwargs)

    # the MLE looks both up at the module attributes on every call
    monkeypatch.setattr(cnce.optimize, "minimize", counted_minimize)
    monkeypatch.setattr(cnce.losses, "ica_mle_objective", counted_objective)
    cfg = small_config(kind=ICA, methods=("mle",), n_grid=(300,))
    record, _ = run_single(cfg, "mle", 300, 2, 0)
    assert len(runs) == len(built) == 1
    assert record.iters == runs[0].iters > 0


def test_run_single_fixed_epsilon():
    cfg = small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(300,),
                       epsilon=0.7)
    record, _ = run_single(cfg, "cnce", 300, 2, 0)
    assert record.epsilon == 0.7


@pytest.mark.parametrize("kind", (GAUSSIAN, BERNOULLI))
@pytest.mark.parametrize("epsilon", ("auto", 0.4))
def test_run_single_cnce_draws_its_noise_once(kind, epsilon, monkeypatch):
    # the ladder's draw is the fit's: an auto cell scans the rungs on the
    # draw it fits on, and a fixed one draws once for the fit
    model = make(kind)
    calls = []
    draw = model.kernel.draw

    def counted(self, *args):
        calls.append(1)
        return draw(self, *args)

    monkeypatch.setattr(model.kernel, "draw", counted)
    cfg = small_config(kind=kind, n_grid=(300,), kappa_grid=(5,), repeats=1,
                       epsilon=epsilon)
    record, _ = run_single(cfg, "cnce", 300, 5, 0)
    assert np.isfinite(record.error)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", [k for k in KINDS if "cnce" in make(k).methods])
def test_run_single_auto_epsilon_row_equals_the_fixed_row_at_its_pick(kind):
    # an auto row and a fixed-epsilon row at the scale it picked fit on the
    # same noise from the same start
    for repeat in (0, 1):
        auto = small_config(kind=kind, n_grid=(300,), kappa_grid=(5,))
        record, _ = run_single(auto, "cnce", 300, 5, repeat)
        fixed = dataclasses.replace(auto, epsilon=record.epsilon)
        again, _ = run_single(fixed, "cnce", 300, 5, repeat)
        assert np.isfinite(record.error)
        assert again == record  # error, iters and converged included


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _dummy_record():
    return ErrorRecord(
        run_id="bernoulli-cnce-n000000200-k00002-r0000", model="bernoulli",
        method="cnce", n=200, kappa=2, epsilon=0.2, seed=123, error=0.5,
        sq_error=0.25, converged=True, iters=17)


def test_csv_header_exact():
    text = records_to_csv([])
    assert text == "run_id,model,method,n,kappa,epsilon,seed,error,sq_error,converged,iters\n"


def test_csv_single_row_roundtrip():
    rec = _dummy_record()
    text = records_to_csv([rec])
    assert len(text.splitlines()) == 2
    assert records_from_csv(text) == [rec]


def test_csv_roundtrip_special_values():
    rec = ErrorRecord(run_id="a", model="ring", method="nce", n=10, kappa=1,
                      epsilon=None, seed=2**63 + 5, error=float("inf"),
                      sq_error=float("inf"), converged=False, iters=0)
    assert records_from_csv(records_to_csv([rec])) == [rec]


def test_csv_schema_mismatch():
    with pytest.raises(ParameterError) as err:
        records_from_csv("run_id,model,method\n")
    assert "missing columns" in str(err.value)
    # the header of a CSV written with a trailing wall_ms time column
    with pytest.raises(ParameterError) as err:
        records_from_csv(",".join(CSV_HEADER) + ",wall_ms\n")
    assert "missing columns: [], unexpected columns: ['wall_ms']" in str(err.value)
    swapped = CSV_HEADER[1::-1] + CSV_HEADER[2:]
    with pytest.raises(ParameterError, match="columns repeated or out of order"):
        records_from_csv(",".join(swapped) + "\n")


def test_persist_roundtrip_and_force(tmp_path):
    cfg = small_config(repeats=1)
    records, summaries, _ = run_grid(cfg)
    out = tmp_path / "exp"
    paths = persist(records, summaries, config_to_json(cfg), str(out))
    assert load_records(paths[0]) == records
    with pytest.raises(FileExistsError, match="exists"):
        persist(records, summaries, config_to_json(cfg), str(out))
    persist(records, summaries, config_to_json(cfg), str(out), force=True)


def test_config_json_roundtrip():
    cfg = small_config(kind=RING, methods=("cnce", "nce"), epsilon=1.25)
    again = config_from_json(config_to_json(cfg))
    assert again == cfg
    # the ring's mu is a field of the model, and is written there alone
    cfg = small_config(model=RingModel(dim=3, mu=2.5), methods=("cnce", "nce"))
    obj = config_to_json(cfg)
    assert obj["model"] == {"kind": RING, "dim": 3, "mu": 2.5}
    assert not {"ring_mu", "mu"} & set(obj)
    again = config_from_json(obj)
    assert again == cfg and again.model.mu == 2.5
    assert again != small_config(kind=RING, methods=("cnce", "nce"))


def test_config_json_accepts_and_drops_the_removed_optimizer_keys(caplog):
    obj = config_to_json(small_config())
    assert not {"step_rule", "polish_iters", "plateau_window", "plateau_rtol",
                "restarts", "init_scale", "adam_step", "adam_betas"} & set(obj["optimizer"])
    assert "growth" not in obj["epsilon_schedule"]
    old = dict(obj, optimizer={**obj["optimizer"], "step_rule": "adaptive_moment",
                               "polish_iters": 20, "plateau_window": 20,
                               "plateau_rtol": 1e-12, "restarts": 3,
                               "init_scale": 0.3, "adam_step": 0.05,
                               "adam_betas": [0.9, 0.999]},
               epsilon_schedule={**obj["epsilon_schedule"], "growth": 2.0})
    with caplog.at_level("WARNING", logger="cnce.experiments"):
        assert config_from_json(old) == config_from_json(obj)
    # one warning per object that holds a removed key
    assert len(caplog.records) == 2
    optimizer, schedule = (r.getMessage() for r in caplog.records)
    assert "deprecated" in optimizer and "polish_iters" in optimizer
    for key in ("restarts", "init_scale", "adam_step", "adam_betas"):
        assert key in optimizer
    assert "deprecated" in schedule and "epsilon_schedule keys growth" in schedule


def test_config_json_unknown_key():
    obj = config_to_json(small_config())
    obj["typo_key"] = 1
    with pytest.raises(ParameterError) as err:
        config_from_json(obj)
    assert "typo_key" in str(err.value)
    # a model takes its class's defaults for the fields it leaves out
    del obj["typo_key"]
    obj["model"] = {"kind": RING}
    assert config_from_json(obj).model == RingModel(dim=5, mu=4.0)
    # a model takes only its own class's fields: mu is the ring's alone, and
    # there is no top-level ring_mu
    for key, value, message in (
            ("model", {"kind": GAUSSIAN, "dim": 2, "mu": 2.5}, "unknown key 'mu' in model"),
            ("model", {"kind": BERNOULLI, "mu": 3.0}, "unknown key 'mu' in model"),
            ("ring_mu", 7.0, "unknown key 'ring_mu' in experiment config")):
        with pytest.raises(ParameterError, match=message):
            config_from_json(dict(obj, **{key: value}))
    # and it must name a known kind
    obj["model"] = {"kind": "typo_kind"}
    with pytest.raises(ParameterError, match="unknown model kind 'typo_kind'"):
        config_from_json(obj)
    # the model must be an object that names its kind
    for model, message in (({"dim": 2}, "missing key 'kind' in model"),
                           ({}, "missing key 'kind' in model"),
                           ("ring", "model must be a JSON object"),
                           ([["kind", "ring"]], "model must be a JSON object")):
        obj["model"] = model
        with pytest.raises(ParameterError, match=message):
            config_from_json(obj)


# ---------------------------------------------------------------------------
# quantile summaries
# ---------------------------------------------------------------------------

def _one_cell(errors):
    return [
        ErrorRecord(run_id=f"m-c-n{0:09d}-k{1:05d}-r{i:04d}", model="m",
                    method="c", n=0, kappa=1, epsilon=None, seed=0, error=e,
                    sq_error=e * e, converged=True, iters=0)
        for i, e in enumerate(errors)
    ]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 10), min_size=1, max_size=40))
def test_summary_quantile_ordering(errors):
    (cell,) = summarize(_one_cell(errors))
    assert cell.q10 <= cell.median <= cell.q90
    # cells without failed runs keep numpy's quantiles bit for bit
    assert [cell.q10, cell.median, cell.q90] == list(
        np.quantile(errors, [0.1, 0.5, 0.9]))


@pytest.mark.parametrize("errors,expected", [
    ([1.0, 2.0, float("inf")], (1.2, 2.0, float("inf"))),
    ([float("inf"), 2.0, 1.0], (1.2, 2.0, float("inf"))),
    ([1.0, float("inf")], (float("inf"),) * 3),
    ([float("inf")], (float("inf"),) * 3),
    ([float("inf"), float("inf"), 3.0], (float("inf"),) * 3),
])
def test_summary_quantiles_rank_failed_runs_last(errors, expected):
    # numpy's interpolation gives NaN (and a RuntimeWarning) next to an inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (cell,) = summarize(_one_cell(errors))
    assert (cell.q10, cell.median, cell.q90) == pytest.approx(expected, rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 10) | st.just(float("inf")), min_size=1, max_size=40))
def test_summary_quantiles_with_failures_follow_a_huge_stand_in(errors):
    # with 1e300 standing in for a failed run, a quantile that interpolates
    # toward it lands above every finite error; that quantile must be inf,
    # and any other must equal numpy's
    (cell,) = summarize(_one_cell(errors))
    stand_in = [1e300 if e == float("inf") else e for e in errors]
    for got, ref in zip((cell.q10, cell.median, cell.q90),
                        np.quantile(stand_in, [0.1, 0.5, 0.9])):
        assert got == (float("inf") if ref > 10 else ref)


# ---------------------------------------------------------------------------
# small-noise expansion table
# ---------------------------------------------------------------------------

def test_limit_check_zero_eps_row_exact():
    model = make(GAUSSIAN)
    rows = limit_check(model.pack(np.eye(5)), [0.0], 5_000, 3)
    (row,) = rows
    assert row.mc_loss == pytest.approx(2 * np.log(2), rel=1e-15)
    assert row.residual == 0.0
    assert not row.flagged


def test_limit_check_residual_decay():
    model = make(GAUSSIAN)
    rows = limit_check(model.pack(np.eye(5)), [0.08, 0.04], 200_000, 5)
    assert abs(rows[0].residual) / abs(rows[1].residual) >= 6.0
    for row in rows:
        assert row.sm_prediction == pytest.approx(
            2 * np.log(2) - 1.25 * row.epsilon**2, rel=0.01)


def test_limit_check_flags_unresolvable():
    model = make(GAUSSIAN)
    rows = limit_check(model.pack(np.eye(5)), [1e-5], 2_000, 7)
    assert rows[0].flagged


def test_limit_check_rejects_bad_packing():
    with pytest.raises(ParameterError):
        limit_check(np.ones(7), [0.1], 100, 0)
    # no pairs used to give NaN rows with numpy RuntimeWarnings
    with pytest.raises(ParameterError, match="mc_pairs must be >= 1"):
        limit_check(np.ones(1), [0.1], 0, 0)
