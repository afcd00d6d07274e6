# Checks of the `cnce` command: its outputs, its exit codes, its refusals
# and the thread independence of its bytes.  Run it from the repository
# root as
#
#     bash .github/cli_checks.sh
#
# with the command taken from $CNCE, the installed `cnce` script by
# default; from a source checkout:
#
#     CNCE="python -m cnce.cli" PYTHONPATH=src bash .github/cli_checks.sh
set -e
cnce=${CNCE:-cnce}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo '{"schema": 1, "model": {"kind": "gaussian_precision", "dim": 2}, "methods": ["score_matching"], "n_grid": [200], "kappa_grid": [1], "repeats": 1}' > "$dir/config.json"
$cnce experiment --config "$dir/config.json" --out "$dir/out"
$cnce report --csv "$dir/out/results.csv" --out "$dir/report"
cmp "$dir/out/gaussian_precision.svg" "$dir/report/gaussian_precision.svg"
status=0
$cnce experiment --config "$dir/config.json" --out "$dir/jobs0" --jobs 0 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q '^error: ' "$dir/err"
test ! -e "$dir/jobs0"
: > "$dir/empty.csv"
status=0
$cnce report --csv "$dir/empty.csv" --out "$dir/empty" 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q '^error: ' "$dir/err"
echo '{"schema": 1, "model": {"kind": "ring", "dim": 2, "mu": 3.0}, "methods": ["score_matching"], "n_grid": [200], "kappa_grid": [1], "repeats": 1}' > "$dir/ring.json"
$cnce experiment --config "$dir/ring.json" --out "$dir/ring"
python -c 'import json, sys; assert json.load(open(sys.argv[1]))["config"]["model"]["mu"] == 3.0' "$dir/ring/summary.json"
echo '{"schema": 1, "model": {"kind": "ring", "dim": 2}, "ring_mu": 3.0, "methods": ["score_matching"], "n_grid": [200], "kappa_grid": [1], "repeats": 1}' > "$dir/ring_mu.json"
status=0
$cnce experiment --config "$dir/ring_mu.json" --out "$dir/ring_mu" 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q '^error: ' "$dir/err"
echo '{"schema": 1, "model": {"kind": "ring"}, "methods": ["cnce", "nce"], "n_grid": [1000, 4000], "kappa_grid": [10], "repeats": 1, "master_seed": 3}' > "$dir/threads.json"
OPENBLAS_NUM_THREADS=1 $cnce experiment --config "$dir/threads.json" --out "$dir/threads1"
OPENBLAS_NUM_THREADS=2 $cnce experiment --config "$dir/threads.json" --out "$dir/threads2"
cmp "$dir/threads1/results.csv" "$dir/threads2/results.csv"
# the keys of removed options, at their old defaults, are dropped with a
# warning and leave the results as they are without them
echo '{"schema": 1, "model": {"kind": "ring"}, "methods": ["cnce", "nce"], "n_grid": [1000, 4000], "kappa_grid": [10], "repeats": 1, "master_seed": 3, "optimizer": {"init_scale": 0.3, "adam_step": 0.05, "adam_betas": [0.9, 0.999]}, "epsilon_schedule": {"growth": 2.0}}' > "$dir/removed_keys.json"
OPENBLAS_NUM_THREADS=1 $cnce experiment --config "$dir/removed_keys.json" --out "$dir/removed_keys" 2> "$dir/err"
grep -q 'deprecated and ignored' "$dir/err"
cmp "$dir/threads1/results.csv" "$dir/removed_keys/results.csv"
echo '{"schema": 1, "model": {"kind": "gaussian_precision", "dim": 5}, "methods": ["cnce", "nce"], "n_grid": [1000, 4000], "kappa_grid": [10], "repeats": 1, "master_seed": 1}' > "$dir/gauss_threads.json"
OPENBLAS_NUM_THREADS=1 $cnce experiment --config "$dir/gauss_threads.json" --out "$dir/gauss_threads1"
OPENBLAS_NUM_THREADS=2 $cnce experiment --config "$dir/gauss_threads.json" --out "$dir/gauss_threads2"
cmp "$dir/gauss_threads1/results.csv" "$dir/gauss_threads2/results.csv"
# the log-normal's noise crosses zero, where its rows are +inf
echo '{"schema": 1, "model": {"kind": "lognormal_ext"}, "methods": ["cnce", "nce"], "n_grid": [1000, 4000, 8000], "kappa_grid": [10], "repeats": 2, "master_seed": 1}' > "$dir/lognormal_threads.json"
OPENBLAS_NUM_THREADS=1 $cnce experiment --config "$dir/lognormal_threads.json" --out "$dir/lognormal_threads1"
OPENBLAS_NUM_THREADS=2 $cnce experiment --config "$dir/lognormal_threads.json" --out "$dir/lognormal_threads2"
cmp "$dir/lognormal_threads1/results.csv" "$dir/lognormal_threads2/results.csv"
# Laplace ICA takes the BFGS route: every cell converges (exit 0), and its
# bytes do not depend on the thread count
echo '{"schema": 1, "model": {"kind": "ica_laplace"}, "methods": ["nce", "mle"], "n_grid": [500], "kappa_grid": [5], "repeats": 2, "master_seed": 11}' > "$dir/ica_threads.json"
OPENBLAS_NUM_THREADS=1 $cnce experiment --config "$dir/ica_threads.json" --out "$dir/ica_threads1"
OPENBLAS_NUM_THREADS=2 $cnce experiment --config "$dir/ica_threads.json" --out "$dir/ica_threads2"
cmp "$dir/ica_threads1/results.csv" "$dir/ica_threads2/results.csv"
# a first rung above the flip kernel's cap of 1 is refused, not dropped
echo '{"schema": 1, "model": {"kind": "bernoulli"}, "methods": ["cnce"], "n_grid": [200], "kappa_grid": [2], "repeats": 1, "epsilon_schedule": {"epsilon_0": 2.0}}' > "$dir/rung_cap.json"
status=0
$cnce experiment --config "$dir/rung_cap.json" --out "$dir/rung_cap" 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q '^error: .*epsilon_0' "$dir/err"
test ! -e "$dir/rung_cap"
# a Gaussian MLE below dim points is refused before any cell runs; CNCE
# fits there from its random start
echo '{"schema": 1, "model": {"kind": "gaussian_precision", "dim": 5}, "methods": ["cnce", "mle"], "n_grid": [4], "kappa_grid": [5], "repeats": 1, "master_seed": 1}' > "$dir/singular.json"
status=0
$cnce experiment --config "$dir/singular.json" --out "$dir/singular" 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q 'mle needs every n >= dim' "$dir/err"
test ! -e "$dir/singular"
echo '{"schema": 1, "model": {"kind": "gaussian_precision", "dim": 5}, "methods": ["cnce"], "n_grid": [4], "kappa_grid": [5], "repeats": 1, "master_seed": 1}' > "$dir/below_dim.json"
$cnce experiment --config "$dir/below_dim.json" --out "$dir/below_dim"
python -c 'import csv, sys; rows = [r for r in csv.DictReader(open(sys.argv[1])) if r["method"] == "cnce"]; assert [r["converged"] for r in rows] == ["true"]' "$dir/below_dim/results.csv"
# estimate and limit-check write their outputs, and a rerun into the same
# --out is refused (exit 1) with the first output unchanged
echo '{"schema": 1, "model": {"kind": "ring", "dim": 2}, "method": "cnce", "n": 200, "kappa": 2}' > "$dir/estimate.json"
$cnce estimate --config "$dir/estimate.json" --out "$dir/estimate"
trace="$dir/estimate/ring-cnce-n000000200-k00002-r0000.json"
cp "$trace" "$dir/trace_first.json"
status=0
$cnce estimate --config "$dir/estimate.json" --out "$dir/estimate" 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q 'exists (pass --force to overwrite)' "$dir/err"
cmp "$dir/trace_first.json" "$trace"
# the log-normal has one parameter, its precision
echo '{"schema": 1, "model": {"kind": "lognormal_ext"}, "method": "cnce", "n": 200, "kappa": 2}' > "$dir/lognormal_estimate.json"
$cnce estimate --config "$dir/lognormal_estimate.json" --out "$dir/lognormal_estimate"
python -c 'import json, sys; assert len(json.load(open(sys.argv[1]))["theta_hat"]) == 1' "$dir/lognormal_estimate/lognormal_ext-cnce-n000000200-k00002-r0000.json"
# the epsilon ladder hands the fit the noise of the scale it picks, so an
# auto-epsilon estimate equals the estimate at that fixed scale
echo '{"schema": 1, "model": {"kind": "ring", "dim": 2}, "method": "cnce", "n": 500, "kappa": 5, "epsilon": "auto"}' > "$dir/auto.json"
eps=$($cnce estimate --config "$dir/auto.json" --out "$dir/auto" | sed -n 's/^epsilon: *//p')
test -n "$eps"
echo "{\"schema\": 1, \"model\": {\"kind\": \"ring\", \"dim\": 2}, \"method\": \"cnce\", \"n\": 500, \"kappa\": 5, \"epsilon\": $eps}" > "$dir/fixed.json"
$cnce estimate --config "$dir/fixed.json" --out "$dir/fixed"
cmp "$dir/auto/ring-cnce-n000000500-k00005-r0000.json" "$dir/fixed/ring-cnce-n000000500-k00005-r0000.json"
echo '{"schema": 1, "mc_pairs": 20000}' > "$dir/limit.json"
status=0
$cnce limit-check --config "$dir/limit.json" --out "$dir/limit" || status=$?
test "$status" -eq 0 -o "$status" -eq 2
cp "$dir/limit/limit_check.json" "$dir/limit_first.json"
status=0
$cnce limit-check --config "$dir/limit.json" --out "$dir/limit" 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q 'exists (pass --force to overwrite)' "$dir/err"
cmp "$dir/limit_first.json" "$dir/limit/limit_check.json"
# a limit-check precision must be a list of numbers
echo '{"schema": 1, "precision": "1 0 1", "mc_pairs": 100}' > "$dir/precision.json"
status=0
$cnce limit-check --config "$dir/precision.json" --out "$dir/precision" 2> "$dir/err" || status=$?
test "$status" -eq 1
grep -q '^error: precision must be a list' "$dir/err"
test ! -e "$dir/precision"
# report reads no config, so it takes no --seed
status=0
$cnce report --csv "$dir/out/results.csv" --out "$dir/report_seed" --seed 1 2> "$dir/err" || status=$?
test "$status" -eq 1
test ! -e "$dir/report_seed"
