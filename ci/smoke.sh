#!/usr/bin/env bash
# Smoke run of an installed twinbeams, from a directory outside the checkout
# and without PYTHONPATH: bundled configs, byte-identical repeat runs of every
# pipeline and of a chirped pump, block edges of the squeezing-matrix build,
# a bit-symmetric stored Gamma with no negative zero, heatmaps written from the stored matrix, an independent %.17g oracle over
# every CSV, sweep rows read against each point's report.json, the exit codes
# of failing runs and malformed inputs, each run re-analysed from its own npz
# files, and an analysis-only sweep against plain runs.
#
#   cd "$(mktemp -d)" && PYTHONWARNINGS=error::RuntimeWarning bash -e /path/to/repo/ci/smoke.sh
#
# Outputs go under RUNNER_TEMP (a fresh temporary directory when unset).
# GITHUB_WORKSPACE (this repository's root when unset) is the checkout that
# twinbeams must not be imported from.
RUNNER_TEMP=${RUNNER_TEMP:-$(mktemp -d)}
GITHUB_WORKSPACE=${GITHUB_WORKSPACE:-$(cd "$(dirname "$0")/.." && pwd)}
set -eo pipefail
unset PYTHONPATH
python -c "import pathlib, sys, twinbeams; p = pathlib.Path(twinbeams.__file__).resolve(); print(p); sys.exit(pathlib.Path('$GITHUB_WORKSPACE').resolve() in p.parents)"
python -c "import importlib; mods = [importlib.import_module('twinbeams.' + m) for m in ('pdc', 'mehler', 'takagi', 'twinbeam', 'symplectic', 'io')]; [getattr(m, n) for m in mods for n in m.__all__]"
# scipy is imported only by the two functions that use it: a run loads none of it.
python -c "import sys, twinbeams.io.cli, twinbeams.io as io; io.run_pipeline(io.parse_config('bbo_nondegenerate'), '$RUNNER_TEMP/noscipy'); sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
for name in $(python -c "import twinbeams.io as io; print(*io.bundled_configs())"); do
  twinbeams validate "$name"
done
twinbeams run bbo_nondegenerate --out "$RUNNER_TEMP/smoke" | tee "$RUNNER_TEMP/smoke.log"
if grep -q '^note:' "$RUNNER_TEMP/smoke.log"; then exit 1; fi
# The digest is the run's report.json flattened: every scalar summary value
# (floats %.6g), every residual (%.3e) and residual / threshold of each gated
# residual as <name>_margin has its own line of the log.
python - "$RUNNER_TEMP/smoke" "$RUNNER_TEMP/smoke.log" <<'PY'
import json, pathlib, sys
report = json.loads((pathlib.Path(sys.argv[1]) / "report.json").read_text(encoding="utf-8"))
lines = set(pathlib.Path(sys.argv[2]).read_text(encoding="utf-8").splitlines())
spell = lambda v: "%.6g" % v if isinstance(v, float) else str(v)
res, limits = report["residuals"], report["thresholds"]
want = [f"{k}: {spell(v)}" for k, v in report["summary"].items() if not isinstance(v, (list, dict))]
want += [f"residual {k}: {v:.3e}" for k, v in res.items()]
want += [f"{k}_margin: {spell(v / limits[k])}" for k, v in res.items() if k in limits]
missing = [line for line in want if line not in lines]
if missing or len(res) < 4:
    sys.exit(f"digest lacks {missing} of report.json")
print(len(want), "values of report.json have their line in the digest")
PY
# Identical configs must give byte-identical artifacts.
twinbeams run bbo_nondegenerate --out "$RUNNER_TEMP/smoke2"
diff -r "$RUNNER_TEMP/smoke" "$RUNNER_TEMP/smoke2"
# The same for every pipeline: the analytic pipeline and the real-Gamma
# numerical and near_degenerate runs exit 0 and repeat byte for byte.
for run in a b; do
  twinbeams sweep bbo_nondegenerate --param pipeline --values numerical,analytic,compare,near_degenerate --out "$RUNNER_TEMP/pipelines$run"
done
diff -r "$RUNNER_TEMP/pipelinesa" "$RUNNER_TEMP/pipelinesb"
# Each sweep row is its point's report.json flattened: the scalar summary
# values, the residuals, residual / threshold as <name>_margin for each gated
# residual, the note count and the threshold failures, in the order the keys
# first appear across the points; a key the point lacks, or a null, is blank.
python - "$RUNNER_TEMP/pipelinesa" <<'PY'
import csv, json, pathlib, sys
root = pathlib.Path(sys.argv[1])
with open(root / "sweep_summary.csv", newline="") as fh:
    header, *rows = list(csv.reader(fh))
spell = lambda v: "" if v is None else "%.17g" % v if isinstance(v, float) else str(v)
order = {}
for row in rows:
    report = json.loads((root / f"pipeline={row[0]}" / "report.json").read_text(encoding="utf-8"))
    res, limits = report["residuals"], report["thresholds"]
    want = {"value": row[0], **report["summary"], **res}
    want.update((f"{k}_margin", None if v is None else v / limits[k]) for k, v in res.items() if k in limits)
    want.update(notes=len(report["notes"]), failures=";".join(report["threshold_failures"]))
    order.update(dict.fromkeys(want))
    got = dict(zip(header, row))
    for key in header:
        if got[key] != spell(want.get(key)):
            sys.exit(f"{root}: {key} of {row[0]} is {got[key]!r}, report.json gives {spell(want.get(key))!r}")
    print(row[0], len(want), "cells of report.json match the sweep row")
assert header == list(order), header
PY
twinbeams sweep bbo_nondegenerate --param pump.gain --values 1,2 --out "$RUNNER_TEMP/sweep"
# An explicit band skips the automatic sizing from the analytic model.
twinbeams sweep bbo_nondegenerate --param grid.half_width --values 0.5,0.6 --out "$RUNNER_TEMP/band"
# z0 = L/4 gives a complex128 Gamma, z0 = L/2 a float64 one: both dtype paths.
twinbeams sweep bbo_nondegenerate --param pump.z0_fraction --values 0.25,0.5 --out "$RUNNER_TEMP/z0"
# Gamma is symmetric by construction: the stored matrix of the bundled real run
# and of the z0 = L/4 run equals its transpose bit for bit (uint64 words of each
# part) and holds no -0.0.
python - "$RUNNER_TEMP/smoke" "$RUNNER_TEMP/z0/pump.z0_fraction=0.25" <<'PY'
import sys
import numpy as np
for run, want in zip(sys.argv[1:], (np.float64, np.complex128)):
    with np.load(f"{run}/squeezing_matrix.npz") as data:
        gamma = data["gamma"]
    assert gamma.dtype == want, (run, gamma.dtype)
    for part in (gamma.real, gamma.imag) if gamma.dtype == np.complex128 else (gamma,):
        words = np.ascontiguousarray(part).view(np.uint64)
        if not np.array_equal(words, words.T):
            sys.exit(f"{run}: gamma differs from its transpose")
        if np.any(words == np.uint64(1 << 63)):
            sys.exit(f"{run}: gamma holds a -0.0")
    print(run, gamma.dtype, "gamma equals its transpose bit for bit and holds no -0.0")
PY
# Block edges of the squeezing-matrix build, for a float64 Gamma (z0 = L/2) and
# a complex128 one (z0 = L/4): m = 1 fills part of one 64 x 64 mirror block,
# and 2m = 74 and 400 end on a partial block.  The compare pipeline runs all three (exit 0): a
# one-point band's analytic modes take the grid spacing.  m = 1 has one pair and
# no fit; no point fails a threshold.  Columns are read by header name.
printf 'crystal: {length_mm: 2.0, theta0_deg: 28.81}\npump: {lambda_p_nm: 397.5, tau_p_fs: 129.0, gain: 10.0, z0_fraction: 0.25}\npipeline: compare\n' > "$RUNNER_TEMP/z0q.yaml"
for cfg in bbo_nondegenerate "$RUNNER_TEMP/z0q.yaml"; do
  out="$RUNNER_TEMP/blocks_$(basename "$cfg" .yaml)"
  rc=0
  twinbeams sweep "$cfg" --param grid.m --values 1,37,200 --out "$out" || rc=$?
  test "$rc" -eq 0
  python - "$out/sweep_summary.csv" <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as fh:
    rows = list(csv.DictReader(fh))
got = [(row["value"], row["pairs_accepted"], row["failures"]) for row in rows]
assert got == [("1", "1", ""), ("37", "37", ""), ("200", "200", "")], got
assert float(rows[0]["r1"]) > 0.0 and rows[0]["q_fit"] == rows[0]["schmidt_number"] == "", rows[0]
PY
  for run in "$out"/grid.m=*; do
    twinbeams heatmap "$run"
  done
done
# A squeezing_matrix.npz that export_squeezing_matrix could not have written
# (here an all-NaN gamma) is a validation failure: exit 2 and no CSV.
mkdir -p "$RUNNER_TEMP/nanmatrix"
python -c "import numpy as np, sys; np.savez(sys.argv[1], omega=np.zeros(2), gamma=np.full((2, 2), np.nan))" "$RUNNER_TEMP/nanmatrix/squeezing_matrix.npz"
rc=0
twinbeams heatmap "$RUNNER_TEMP/nanmatrix" || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/nanmatrix/squeezing_matrix.csv"
# Each heatmap written from a stored matrix spells it exactly: its label, re
# and im columns parse back to the npz's omega and gamma bit for bit, row-major.
python - "$RUNNER_TEMP"/blocks_* <<'PY'
import csv, pathlib, sys
import numpy as np
runs = sorted(p.parent for root in sys.argv[1:] for p in pathlib.Path(root).rglob("squeezing_matrix.npz"))
assert len(runs) == 6, runs
for run in runs:
    with np.load(run / "squeezing_matrix.npz") as data:
        omega, gamma = data["omega"], data["gamma"]
    with open(run / "squeezing_matrix.csv", newline="") as fh:
        next(fh)
        table = np.array([[float(cell) for cell in row] for row in csv.reader(fh)])
    n = len(omega)
    assert table.shape == (n * n, 5), run
    want = (np.repeat(omega, n), np.tile(omega, n), gamma.real.ravel(), np.imag(gamma).ravel())
    for k, column in enumerate(want):
        if not np.array_equal(table[:, k].view(np.uint64), column.view(np.uint64)):
            sys.exit(f"{run}: column {k} of the heatmap differs from the stored matrix")
    print(run, gamma.dtype, n * n, "heatmap rows spell the stored matrix exactly")
PY
# A chirped pump (no prechirp) at z0 = 0, whose E0 carries the dispersion phase
# and evaluates k_p a second time: two identical compare runs exit 0 and give
# the same files.
printf 'crystal: {length_mm: 2.0, theta0_deg: 28.81}\npump: {lambda_p_nm: 397.5, tau_p_fs: 129.0, gain: 10.0, z0_fraction: 0.0, prechirp_compensated: false}\npipeline: compare\n' > "$RUNNER_TEMP/chirp.yaml"
for run in a b; do
  twinbeams run "$RUNNER_TEMP/chirp.yaml" --out "$RUNNER_TEMP/chirp$run"
done
diff -r "$RUNNER_TEMP/chirpa" "$RUNNER_TEMP/chirpb"
# An independent oracle of every CSV float: %.17g round-trips, so each cell
# that parses as a float must re-format to its own text by Python's %.17g.  It
# reads every table of the pipeline sweep, the heatmaps written at the block
# edges and the chirped run; a heatmap's abs column must also be
# abs(complex(re, im)).
# sweep_summary.csv's value column echoes the --values text and is skipped.
python - "$RUNNER_TEMP/pipelinesa" "$RUNNER_TEMP"/blocks_* "$RUNNER_TEMP/chirpa" <<'PY'
import csv, pathlib, sys
paths = sorted(p for root in sys.argv[1:] for p in pathlib.Path(root).rglob("*.csv"))
tables = {"spectrum.csv", "analytic_modes.csv", "mode_overlaps.csv", "eigenvalue_ratios.csv", "sweep_summary.csv"}
assert tables <= {p.name for p in paths}, sorted(p.name for p in paths)
blocks = [p for p in paths if p.name == "squeezing_matrix.csv" and p.parent.parent.name.startswith("blocks_")]
assert len(blocks) == 6, blocks
for path in paths:
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data, path
    header, *rows = csv.reader(data.decode().splitlines())
    skip = header.index("value") if path.name == "sweep_summary.csv" else None
    heatmap = path.name == "squeezing_matrix.csv"
    assert not heatmap or header == ["omega", "omega_prime", "re", "im", "abs"], path
    count = 0
    for row in rows:
        for k, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if k != skip:
                if cell != "%.17g" % value:
                    sys.exit(f"{path}: {cell!r} != {'%.17g' % value!r}")
                count += 1
        if heatmap and row[4] != "%.17g" % abs(complex(float(row[2]), float(row[3]))):
            sys.exit(f"{path}: abs {row[4]!r} of {row[2]!r}, {row[3]!r}")
    print(path, count, "float cells match Python's %.17g")
PY
# The squeezing matrix is stored first and listed last: two identical compare runs of a
# complex Gamma give the same files and manifest.
twinbeams run "$RUNNER_TEMP/z0q.yaml" --out "$RUNNER_TEMP/z0qa"
twinbeams run "$RUNNER_TEMP/z0q.yaml" --out "$RUNNER_TEMP/z0qb"
diff -r "$RUNNER_TEMP/z0qa" "$RUNNER_TEMP/z0qb"
printf 'crystal: {length_mm: 2.0, theta0_deg: 28.81}\npump: {lambda_p_nm: 397.5, tau_p_fs: 129.0}\ngrid: {m: 1}\npipeline: numerical\n' > "$RUNNER_TEMP/m1.yaml"
twinbeams sweep "$RUNNER_TEMP/m1.yaml" --param pump.z0_fraction --values 0.25,0.5 --out "$RUNNER_TEMP/m1"
# Byte-identical artifacts also where 2m is no multiple of the mirror block.
printf 'crystal: {length_mm: 2.0, theta0_deg: 28.81}\npump: {lambda_p_nm: 397.5, tau_p_fs: 129.0, z0_fraction: 0.25}\ngrid: {m: 200}\n' > "$RUNNER_TEMP/m200.yaml"
twinbeams run "$RUNNER_TEMP/m200.yaml" --out "$RUNNER_TEMP/m200a"
twinbeams run "$RUNNER_TEMP/m200.yaml" --out "$RUNNER_TEMP/m200b"
diff -r "$RUNNER_TEMP/m200a" "$RUNNER_TEMP/m200b"
# The near-degenerate config is built to leak past threshold: exit 3, report written.
rc=0
twinbeams run bbo_near_degenerate --out "$RUNNER_TEMP/near" || rc=$?
test "$rc" -eq 3
test -f "$RUNNER_TEMP/near/report.json"
# The same for a complex Gamma (z0 = L/4), whose near_degenerate spectrum is the
# complex Takagi path: two identical runs, exit 3 each, the same files.
printf 'crystal: {length_mm: 2.0, theta0_deg: 29.18}\npump: {lambda_p_nm: 397.5, tau_p_fs: 129.0, gain: 10.0, z0_fraction: 0.25}\ngrid: {m: 128}\npipeline: near_degenerate\n' > "$RUNNER_TEMP/nearz0.yaml"
for run in a b; do
  rc=0
  twinbeams run "$RUNNER_TEMP/nearz0.yaml" --out "$RUNNER_TEMP/nearz0$run" || rc=$?
  test "$rc" -eq 3
done
diff -r "$RUNNER_TEMP/nearz0a" "$RUNNER_TEMP/nearz0b"
# Every check reads only its run's files: the run's own analysis, pointed at the
# squeezing_matrix.npz and spectrum.npz of seven runs, rewrites every artifact
# byte for byte.  Numerical and compare runs store Schmidt factors (float64 for a
# real Gamma at z0 = L/2, complex128 at z0 = L/4), near_degenerate complex128 Takagi ones.
python - "$RUNNER_TEMP/reanalysed" "$RUNNER_TEMP/pipelinesa" "$RUNNER_TEMP/z0" "$RUNNER_TEMP/near" "$RUNNER_TEMP/nearz0a" <<'PY'
import json, pathlib, subprocess, sys
from twinbeams.io import config_from_dict, load_spectrum, pipeline
from twinbeams.takagi import TakagiFactors
runs = sorted(p.parent for root in sys.argv[2:] for p in pathlib.Path(root).rglob("spectrum.npz"))
assert len(runs) == 7, runs
seen = set()
for k, run in enumerate(runs):
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    factors = load_spectrum(run / "spectrum.npz")[1]
    takagi = isinstance(factors, TakagiFactors)
    assert takagi == (report["pipeline"] == "near_degenerate"), run
    dtypes = {a.dtype.name for a in ([factors.v] if takagi else [factors.c, factors.d])}
    seen.add(("takagi" if takagi else "schmidt", report["config"]["pump"]["z0_fraction"], *dtypes))
    out = pathlib.Path(sys.argv[1], str(k))
    pipeline._run(config_from_dict(report["config"]), out, run)
    subprocess.run(["diff", "-r", out, run], check=True)
    print(run, "re-analysed from its npz files byte for byte:", *dtypes)
routes = {("schmidt", 0.5, "float64"), ("schmidt", 0.25, "complex128"), ("takagi", 0.5, "complex128"), ("takagi", 0.25, "complex128")}
assert seen == routes, seen ^ routes
PY
# An exponent without a dot (1e-2) is a YAML float, not a string.
printf 'crystal: {length_mm: 2.0, theta0_deg: 28.81}\npump: {lambda_p_nm: 397.5, tau_p_fs: 129.0}\npairing_tol: 1e-2\n' > "$RUNNER_TEMP/tol.yaml"
twinbeams validate "$RUNNER_TEMP/tol.yaml"
# pairing_tol has no option of its own: --pairs-tol is a usage error (exit 2,
# nothing written), and sweeping the config key is the way to vary it.
for cmd in "run bbo_nondegenerate" "sweep bbo_nondegenerate --param pump.gain --values 1"; do
  rc=0
  twinbeams $cmd --pairs-tol 0.02 --out "$RUNNER_TEMP/pairstol" 2> "$RUNNER_TEMP/pairstol.err" || rc=$?
  test "$rc" -eq 2
  grep -q 'No such option' "$RUNNER_TEMP/pairstol.err"
  grep -q -- '--pairs-tol' "$RUNNER_TEMP/pairstol.err"
  test ! -e "$RUNNER_TEMP/pairstol"
done
twinbeams sweep bbo_nondegenerate --param pairing_tol --values 0.01,0.02 --out "$RUNNER_TEMP/tolsweep"
python -c "import csv, sys; values = [row['value'] for row in csv.DictReader(open(sys.argv[1], newline=''))]; assert values == ['0.01', '0.02'], values" "$RUNNER_TEMP/tolsweep/sweep_summary.csv"
# Each point of that sweep, analysed from the first point's files, is the plain run of its config.
for tol in 0.01 0.02; do
  twinbeams validate bbo_nondegenerate | sed "s/^pairing_tol: .*/pairing_tol: $tol/" > "$RUNNER_TEMP/tol$tol.yaml"
  twinbeams run "$RUNNER_TEMP/tol$tol.yaml" --out "$RUNNER_TEMP/tolrun$tol" > /dev/null
  diff -r "$RUNNER_TEMP/tolsweep/pairing_tol=$tol" "$RUNNER_TEMP/tolrun$tol"
done
# A 1000 mm crystal fails the Mehler factors' own checks: a stage label and exit 3.
printf 'crystal: {length_mm: 1000.0, theta0_deg: 28.81}\npump: {lambda_p_nm: 397.5, tau_p_fs: 129.0, gain: 10.0}\npipeline: compare\n' > "$RUNNER_TEMP/long.yaml"
rc=0
twinbeams run "$RUNNER_TEMP/long.yaml" --out "$RUNNER_TEMP/long" 2> "$RUNNER_TEMP/long.err" || rc=$?
test "$rc" -eq 3
grep -q '^error: \[mehler-factors\]' "$RUNNER_TEMP/long.err"
