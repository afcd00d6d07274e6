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
echo '{"schema": 1, "model": {"kind": "gaussian_precision", "dim": 5}, "methods": ["cnce", "nce"], "n_grid": [1000, 4000], "kappa_grid": [10], "repeats": 1, "master_seed": 1}' > "$dir/gauss_threads.json"
OPENBLAS_NUM_THREADS=1 $cnce experiment --config "$dir/gauss_threads.json" --out "$dir/gauss_threads1"
OPENBLAS_NUM_THREADS=2 $cnce experiment --config "$dir/gauss_threads.json" --out "$dir/gauss_threads2"
cmp "$dir/gauss_threads1/results.csv" "$dir/gauss_threads2/results.csv"
# the log-normal's noise crosses zero, where its rows are +inf
echo '{"schema": 1, "model": {"kind": "lognormal_ext"}, "methods": ["cnce", "nce"], "n_grid": [1000, 4000, 8000], "kappa_grid": [10], "repeats": 2, "master_seed": 1}' > "$dir/lognormal_threads.json"
OPENBLAS_NUM_THREADS=1 $cnce experiment --config "$dir/lognormal_threads.json" --out "$dir/lognormal_threads1"
OPENBLAS_NUM_THREADS=2 $cnce experiment --config "$dir/lognormal_threads.json" --out "$dir/lognormal_threads2"
cmp "$dir/lognormal_threads1/results.csv" "$dir/lognormal_threads2/results.csv"
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
# report reads no config, so it takes no --seed
status=0
$cnce report --csv "$dir/out/results.csv" --out "$dir/report_seed" --seed 1 2> "$dir/err" || status=$?
test "$status" -eq 1
test ! -e "$dir/report_seed"
