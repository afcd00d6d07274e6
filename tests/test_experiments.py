"""Harness: error metrics with ambiguity handling, seed hashing, grid
determinism, persistence round-trips, and the small-noise expansion table."""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnce import (
    ExperimentConfig,
    OptimizerConfig,
    ParameterError,
    build_model,
    default_spec,
    estimation_error,
    limit_check,
    persist,
    load_records,
    run_grid,
    run_single,
    stable_hash,
    summarize,
)
from cnce.experiments import (
    CSV_HEADER,
    ErrorRecord,
    config_from_json,
    config_to_json,
    records_from_csv,
    records_to_csv,
)
from cnce.models import BERNOULLI, GAUSSIAN, ICA, KINDS, LOGNORMAL, RING, ModelSpec
from cnce.seeding import rng_from

from test_models import make


def small_config(kind=BERNOULLI, methods=("cnce",), repeats=2, **kw):
    defaults = dict(
        model=default_spec(kind),
        methods=methods,
        n_grid=(200, 400),
        kappa_grid=(2,),
        repeats=repeats,
        master_seed=7,
        optimizer=OptimizerConfig(max_iters=150, polish_iters=20,
                                  plateau_window=20, plateau_rtol=1e-12),
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
@given(st.floats(0.05, 20.0), st.integers(0, 2**31 - 1))
def test_error_bernoulli_scale_invariant(c, seed):
    model = make(BERNOULLI)
    rng = rng_from(seed, "bern")
    truth = model.random_params(rng)
    hat = np.abs(rng.standard_normal(2)) + 0.05
    assert estimation_error(model, c * hat, truth) == pytest.approx(
        estimation_error(model, hat, truth), rel=1e-12)


def test_error_lognormal_ignores_constant():
    model = make(LOGNORMAL)
    truth = np.array([1.2, -5.0])
    hat = np.array([1.5, 123.0])
    assert estimation_error(model, hat, truth) == pytest.approx(0.3)


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
    with pytest.raises(TypeError):
        stable_hash(1.5)


# ---------------------------------------------------------------------------
# grid runs
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        small_config(n_grid=(400, 200))
    with pytest.raises(ParameterError):
        small_config(kind=RING, methods=("mle",))
    with pytest.raises(ParameterError):
        small_config(kind=BERNOULLI, methods=("nce",))
    with pytest.raises(ParameterError):
        small_config(repeats=0)
    for kappa_grid in ((), (0,), (2, 2), (3, 2), (2.5,)):
        with pytest.raises(ParameterError):
            small_config(kappa_grid=kappa_grid)
    with pytest.raises(ParameterError):
        small_config(kind=GAUSSIAN, methods=("cnce", "nce"), n_grid=(5, 200))
    small_config(kind=GAUSSIAN, methods=("cnce", "nce"), n_grid=(6,),
                 kappa_grid=(1, np.int64(3)))
    small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(5,))


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
    cfg = small_config(methods=("cnce", "mle"), repeats=2)
    serial = run_grid(cfg, jobs=1)[0]
    parallel = run_grid(cfg, jobs=4)[0]
    assert records_to_csv(serial) == records_to_csv(parallel)


def test_run_single_fields():
    cfg = small_config(kind=GAUSSIAN, methods=("cnce",), n_grid=(300,))
    record, warnings = run_single(cfg, "cnce", 300, 2, 0)
    assert record.model == GAUSSIAN
    assert record.epsilon is not None and record.epsilon > 0
    assert record.sq_error == record.error**2
    assert record.wall_ms == 0.0
    assert record.seed == stable_hash(7, GAUSSIAN, "cnce", 300, 2, 0)


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


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _dummy_record():
    return ErrorRecord(
        run_id="bernoulli-cnce-n000000200-k00002-r0000", model="bernoulli",
        method="cnce", n=200, kappa=2, epsilon=0.2, seed=123, error=0.5,
        sq_error=0.25, converged=True, iters=17, wall_ms=0.0)


def test_csv_header_exact():
    text = records_to_csv([])
    assert text == "run_id,model,method,n,kappa,epsilon,seed,error,sq_error,converged,iters,wall_ms\n"


def test_csv_single_row_roundtrip():
    rec = _dummy_record()
    text = records_to_csv([rec])
    assert len(text.splitlines()) == 2
    assert records_from_csv(text) == [rec]


def test_csv_roundtrip_special_values():
    rec = ErrorRecord(run_id="a", model="ring", method="nce", n=10, kappa=1,
                      epsilon=None, seed=2**63 + 5, error=float("inf"),
                      sq_error=float("inf"), converged=False, iters=0,
                      wall_ms=0.0)
    assert records_from_csv(records_to_csv([rec])) == [rec]


def test_csv_schema_mismatch():
    with pytest.raises(ParameterError) as err:
        records_from_csv("run_id,model,method\n")
    assert "missing columns" in str(err.value)


def test_persist_roundtrip_and_force(tmp_path):
    cfg = small_config(repeats=1)
    records, summaries, _ = run_grid(cfg)
    out = tmp_path / "exp"
    paths = persist(records, summaries, config_to_json(cfg), str(out))
    assert load_records(paths[0]) == records
    with pytest.raises(FileExistsError):
        persist(records, summaries, config_to_json(cfg), str(out))
    persist(records, summaries, config_to_json(cfg), str(out), force=True)


def test_config_json_roundtrip():
    cfg = small_config(kind=RING, methods=("cnce", "nce"), epsilon=1.25)
    again = config_from_json(config_to_json(cfg))
    assert again == cfg


def test_config_json_unknown_key():
    obj = config_to_json(small_config())
    obj["typo_key"] = 1
    with pytest.raises(ParameterError) as err:
        config_from_json(obj)
    assert "typo_key" in str(err.value)


# ---------------------------------------------------------------------------
# quantile summaries
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 10), min_size=1, max_size=40),
       st.integers(0, 2**31 - 1))
def test_summary_quantile_ordering(errors, seed):
    records = [
        ErrorRecord(run_id=f"m-c-n{0:09d}-k{1:05d}-r{i:04d}", model="m",
                    method="c", n=0, kappa=1, epsilon=None, seed=seed,
                    error=e, sq_error=e * e, converged=True, iters=0,
                    wall_ms=0.0)
        for i, e in enumerate(errors)
    ]
    (cell,) = summarize(records)
    assert cell.q10 <= cell.median <= cell.q90


# ---------------------------------------------------------------------------
# small-noise expansion table
# ---------------------------------------------------------------------------

def test_limit_check_zero_eps_row_exact():
    model = build_model(default_spec(GAUSSIAN))
    rows = limit_check(model.pack(np.eye(5)), [0.0], 5_000, 3)
    (row,) = rows
    assert row.mc_loss == pytest.approx(2 * np.log(2), rel=1e-15)
    assert row.residual == 0.0
    assert not row.flagged


def test_limit_check_residual_decay():
    model = build_model(default_spec(GAUSSIAN))
    rows = limit_check(model.pack(np.eye(5)), [0.08, 0.04], 200_000, 5)
    assert abs(rows[0].residual) / abs(rows[1].residual) >= 6.0
    for row in rows:
        assert row.sm_prediction == pytest.approx(
            2 * np.log(2) - 1.25 * row.epsilon**2, rel=0.01)


def test_limit_check_flags_unresolvable():
    model = build_model(default_spec(GAUSSIAN))
    rows = limit_check(model.pack(np.eye(5)), [1e-5], 2_000, 7)
    assert rows[0].flagged


def test_limit_check_rejects_bad_packing():
    with pytest.raises(ParameterError):
        limit_check(np.ones(7), [0.1], 100, 0)
