"""The benchmark's workloads: working points from the seed, one operation, its check.

Every workload drives the public twinbeams API only.  An operation is what
one closed-loop client does before it starts the next: one
``run_pipeline`` call, one in-process ``twinbeams sweep``, or one library
solve.  The check runs after the operation, outside its timing, and
returns a list of problems (empty when the outputs are correct).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

# Modules, not names: the tracer rebinds functions on their modules, and a
# name imported here would bypass it.
import twinbeams.io as tio
from twinbeams import mehler, pdc, takagi, twinbeam
from twinbeams.io import cli
from twinbeams.io.pipeline import TAKAGI_THRESHOLD

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Relative tolerance on reference floats (r1, q_fit, schmidt_number,
#: q_analytic).  Identical code reproduces them to ~1e-13; a BLAS thread
#: count or reduction order change stays far below this.
REFERENCE_RTOL = 1e-9
#: Relative tolerance within which the three spectrum paths must agree on
#: the leading PATH_VALUES values.
PATH_RTOL = 1e-9
PATH_VALUES = 20

#: Cut angles of the nondegenerate working points (deg): 28.50 ... 28.95.
COMPARE_THETAS = tuple(round(28.50 + 0.03 * k, 2) for k in range(16))
#: Cut angles a near-degenerate sweep draws from (deg): 29.100 ... 29.190.
SWEEP_THETAS = tuple(round(29.100 + 0.001 * k, 3) for k in range(91))
SWEEP_POINTS = 16

#: Grid size of the small operation that checks the tracer's bindings.
PROBE_M = 32

#: Summary values checked against the reference: floats within
#: REFERENCE_RTOL, the rest (and ``threshold_failures``) exactly.
FLOAT_KEYS = ("r1", "q_fit", "schmidt_number", "q_analytic")
SUMMARY_KEYS = FLOAT_KEYS + ("pairs_accepted", "first_failure_index")


def _config(name: str, m: int, theta0_deg: float):
    tree = tio.config_to_dict(tio.parse_config(name))
    tree["grid"]["m"] = m
    tree["crystal"]["theta0_deg"] = theta0_deg
    return tio.config_from_dict(tree)


def _reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload]


def compare_values(got: dict, ref: dict, where: str) -> list[str]:
    """Problems of ``got`` against a reference record."""
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if key in FLOAT_KEYS:
            if have is None or not math.isclose(have, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                problems.append(f"{where}: {key} = {have!r}, reference {want!r}")
        elif have != want:
            problems.append(f"{where}: {key} = {have!r}, reference {want!r}")
    return problems


def report_values(summary: dict, threshold_failures) -> dict:
    """The reference-checked values of one run report."""
    out = {k: summary[k] for k in SUMMARY_KEYS if k in summary}
    out["threshold_failures"] = list(threshold_failures)
    return out


def artifact_digest(out: Path) -> tuple[str, int]:
    """(sha256 over relative paths and contents, total bytes) of a directory."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


class RunCompare:
    """``run_pipeline`` on the compare config at m = 256, one run per operation."""

    name = "run_compare_m256"
    units_per_op = 1
    writes_artifacts = True

    def __init__(self, theta0_deg: float, work: Path, m: int = 256):
        self.key = f"{theta0_deg:.2f}"
        self.cfg = _config("bbo_nondegenerate", m, theta0_deg)

    @classmethod
    def from_seed(cls, seed: int, work: Path, m: int = 256):
        return cls(random.Random(seed).choice(COMPARE_THETAS), work, m)

    def op(self, out: Path):
        return tio.run_pipeline(self.cfg, out_dir=out)

    def values(self, report, out: Path) -> dict:
        return {self.key: report_values(report.summary, report.threshold_failures)}

    def check(self, report, out: Path) -> list[str]:
        ref = _reference(self.name)[self.key]
        return compare_values(self.values(report, out)[self.key], ref, f"theta0={self.key}")


class SweepTheta:
    """In-process ``twinbeams sweep`` of the near-degenerate config over 16
    seeded cut angles at m = 64; every point fails on leakage by design, so
    the sweep exits 3."""

    name = "sweep_theta_m64"
    units_per_op = SWEEP_POINTS
    writes_artifacts = True

    def __init__(self, thetas, work: Path, m: int = 64):
        self.values_arg = ",".join(f"{t:.3f}" for t in thetas)
        self.units_per_op = len(thetas)
        self.config_path = work / f"sweep_m{m}.yaml"
        cfg = _config("bbo_near_degenerate", m, thetas[0])
        self.config_path.write_text(tio.serialize_config(cfg), encoding="utf-8")

    @classmethod
    def from_seed(cls, seed: int, work: Path, m: int = 64):
        thetas = sorted(random.Random(seed).sample(SWEEP_THETAS, SWEEP_POINTS))
        return cls(thetas, work, m)

    def op(self, out: Path) -> int:
        argv = ["sweep", str(self.config_path), "--param", "crystal.theta0_deg",
                "--values", self.values_arg, "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(argv, standalone_mode=False)
            except SystemExit as exc:
                return exc.code
        return 0

    def values(self, code, out: Path) -> dict:
        got = {}
        for path in sorted(out.glob("*/report.json")):
            report = json.loads(path.read_text(encoding="utf-8"))
            key = f"{report['config']['crystal']['theta0_deg']:.3f}"
            got[key] = report_values(report["summary"], report["threshold_failures"])
        return got

    def check(self, code, out: Path) -> list[str]:
        problems = [] if code == 3 else [f"sweep exit code {code}, expected 3"]
        got = self.values(code, out)
        rows = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != self.units_per_op or len(got) != self.units_per_op:
            problems.append(f"{len(rows)} summary rows and {len(got)} reports for {self.units_per_op} points")
        ref = _reference(self.name)
        for key, values in got.items():
            problems += compare_values(values, ref[key], f"theta0={key}")
        return problems


class SpectrumPaths:
    """Library solve at m = 512: squeezing matrix, JSA, the three equivalent
    spectrum paths, pairing, geometric fit and the Mehler factors."""

    name = "spectrum_paths_m512"
    units_per_op = 1
    writes_artifacts = False

    def __init__(self, theta0_deg: float, work: Path, m: int = 512):
        self.key = f"{theta0_deg:.2f}"
        self.cfg = _config("bbo_nondegenerate", m, theta0_deg)

    @classmethod
    def from_seed(cls, seed: int, work: Path, m: int = 512):
        return cls(random.Random(seed).choice(COMPARE_THETAS), work, m)

    def op(self, out: Path) -> dict:
        cfg = self.cfg
        t = mehler.characteristic_times(cfg.crystal, cfg.pump)
        f = mehler.mehler_factors(mehler.gaussian_model_params(t))
        # The band sizing the pipeline applies when the config sets no width.
        half_width = t.omega_s + max(cfg.grid.width_factor / f.tau1, 3.0 * t.omega_p)
        grid = pdc.build_frequency_grid(cfg.grid.m, half_width=half_width)
        sq = pdc.build_squeezing_matrix(cfg.crystal, cfg.pump, grid)
        ext = pdc.extract_jsa(sq)
        block = twinbeam.block_squeezing_matrix(ext.jsa)
        spectra = {
            "jsa_svd": twinbeam.eigenmodes_from_schmidt(twinbeam.schmidt_from_jsa(ext.jsa)),
            "direct_takagi": twinbeam.spectrum_from_takagi(takagi.takagi_general(block)),
            "associated_spectral": twinbeam.associated_spectral(block),
        }
        residuals = {
            source: takagi.takagi_residual(block, takagi.TakagiFactors(v=s.modes, r=s.values))
            for source, s in spectra.items()
        }
        lead = spectra["jsa_svd"]
        pairing = twinbeam.pair_eigenvalues(lead, cfg.pairing_tol)
        fit = twinbeam.fit_geometric(lead.values, max_pairs=cfg.fit_pairs)
        return {
            "spectra": {source: s.values[:PATH_VALUES] for source, s in spectra.items()},
            "residuals": residuals,
            "summary": {
                "r1": float(lead.values[0]),
                "q_fit": float(fit.q),
                "q_analytic": float(f.q),
                "pairs_accepted": pairing.n_pairs,
                "first_failure_index": pairing.first_failure_index,
            },
        }

    def values(self, result: dict, out: Path) -> dict:
        return {self.key: dict(result["summary"])}

    def check(self, result: dict, out: Path) -> list[str]:
        problems = []
        lead = result["spectra"]["jsa_svd"]
        for source, values in result["spectra"].items():
            worst = max(abs(a - b) / abs(a) for a, b in zip(lead, values))
            if len(values) != PATH_VALUES or worst > PATH_RTOL:
                problems.append(f"{source} leading values differ from jsa_svd by {worst:.3e}")
        for source, res in result["residuals"].items():
            if not res < TAKAGI_THRESHOLD:
                problems.append(f"{source} Takagi residual {res:.3e} >= {TAKAGI_THRESHOLD:g}")
        ref = _reference(self.name)[self.key]
        return problems + compare_values(result["summary"], ref, f"theta0={self.key}")


WORKLOADS = {cls.name: cls for cls in (RunCompare, SweepTheta, SpectrumPaths)}
