"""The BLAS thread count: ``import cnce`` defaults it to one unless a thread
variable is set, and the output bytes do not depend on it.  numpy reads the
count when it is first imported, so each check runs in a fresh process."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=SRC)
    return env


def _run(args, **preset):
    out = subprocess.run([sys.executable, *args], env=_env(**preset),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode in (0, 2), out.stderr  # 2: completed with warnings
    return out.stdout


_THREAD_VARS_AFTER_IMPORT = f"""
import json, os, cnce
print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))
"""


def test_import_defaults_to_one_blas_thread():
    after = json.loads(_run(["-c", _THREAD_VARS_AFTER_IMPORT]))
    assert after == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                     "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("preset", ({"OMP_NUM_THREADS": "2"},
                                    {"OPENBLAS_NUM_THREADS": "3"},
                                    {"GOTO_NUM_THREADS": "2"}))
def test_a_preset_thread_variable_is_left_alone(preset):
    after = json.loads(_run(["-c", _THREAD_VARS_AFTER_IMPORT], **preset))
    assert after == {v: preset.get(v) for v in THREAD_VARS}


_ONE_COLUMN_VJP = """
import numpy as np
from cnce.models import _AffineRows
rng = np.random.default_rng(0)
phi, w = rng.standard_normal((44_000, 1)), rng.standard_normal(44_000)
print(_AffineRows(phi, np.zeros(44_000)).vjp(w).tobytes().hex())
"""


def test_one_column_vjp_bits_do_not_depend_on_the_thread_count():
    # the ring's NCE rows at N = 4000: OpenBLAS splits a dot product that
    # long across its threads
    one, two = (_run(["-c", _ONE_COLUMN_VJP], OPENBLAS_NUM_THREADS=t)
                for t in ("1", "2"))
    assert one == two


def test_ring_grid_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # master seed 3 gives a thread-dependent last digit at both N unless
    # the one-column products are thread-free
    config = tmp_path / "ring.json"
    config.write_text(json.dumps({
        "schema": 1, "model": {"kind": "ring"}, "methods": ["cnce", "nce"],
        "n_grid": [1000, 4000], "kappa_grid": [10], "repeats": 1,
        "master_seed": 3}))
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        _run(["-m", "cnce.cli", "experiment", "--config", str(config),
              "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]


_AFFINE_GRIDS = """
import cnce.experiments as ex
from cnce.models import _CLASSES
for cls in _CLASSES.values():
    if cls.affine:
        cfg = ex.ExperimentConfig(
            model=cls(), methods=tuple(m for m in ("cnce", "nce") if m in cls.methods),
            n_grid=(1000, 4000), kappa_grid=(10,), repeats=1, master_seed=1)
        print(ex.records_to_csv(ex.run_grid(cfg)[0]))
"""


def test_affine_grid_bytes_do_not_depend_on_the_thread_count():
    # every affine model at its default dim, with cnce and nce where it has
    # them: the shapes the determinism docstring of ``experiments`` covers.
    # The two processes run side by side
    with ThreadPoolExecutor(2) as pool:
        one, two = pool.map(lambda t: _run(["-c", _AFFINE_GRIDS], OPENBLAS_NUM_THREADS=t),
                            ("1", "2"))
    assert one.count("-r0000,") == 14
    assert one == two
