"""Seeded config fuzz: every run fails loudly, or its report can be read.

    python ci/fuzz.py --draws 3000 --seed 1

Run it from the root of a source checkout; it imports twinbeams from
``src/`` of that checkout.  Each draw is a raw config over wide ranges
(crystal length 0.1-50 mm and pump duration 10-1000 fs log-uniform, theta0
26-32 deg, pump wavelength 350-450 nm, gain 0 or 1e-3-1e3 log-uniform, z0
at 0, L/4, L/2, L or anywhere, a compensated pump chirp in 70% of draws,
m up to 48, an automatic band or 0.01-5 rad/fs, every pipeline and
``fit_pairs`` value), read by ``config_from_dict`` and run by
``run_pipeline`` with ``RuntimeWarning`` raised as an error.  A draw must
end in one of three ways:

* a ``ConfigError``;
* a ``PipelineError`` whose stage is one of ``STAGES``;
* a report whose float summary values and residuals are finite, where a
  residual may be non-finite (``null`` in report.json) only if the report
  carries a note.

The counts by outcome are printed, then each other ending with its config;
the exit status is 1 if there is one.  The draws depend on the seed alone.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twinbeams.io import ConfigError, PipelineError, config_from_dict, run_pipeline

#: The stage labels a run may fail with.
STAGES = (
    "characteristic-times", "gaussian-model", "mehler-factors", "grid", "analytic-modes",
    "squeezing-matrix", "jsa-extraction", "takagi", "spectrum", "symplectic",
)
#: Grid sizes m of the full fuzz; the tier-1 test draws from the first five.
SIZES = (1, 2, 3, 8, 16, 32, 48)
PIPELINES = ("numerical", "analytic", "compare", "near_degenerate")
FIT_PAIRS = (15, None, 3, 40)


def draw(rng: np.random.Generator, sizes=SIZES) -> dict:
    """One raw run config."""

    def log_uniform(lo, hi):
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    z0 = (0.0, 0.25, 0.5, 1.0, float(rng.uniform()))[rng.integers(5)]
    return {
        "crystal": {
            "length_mm": log_uniform(0.1, 50.0),
            "theta0_deg": float(rng.uniform(26.0, 32.0)),
        },
        "pump": {
            "lambda_p_nm": float(rng.uniform(350.0, 450.0)),
            "tau_p_fs": log_uniform(10.0, 1000.0),
            "gain": 0.0 if rng.uniform() < 0.1 else log_uniform(1e-3, 1e3),
            "z0_fraction": z0,
            "prechirp_compensated": bool(rng.uniform() < 0.7),
        },
        "grid": {
            "m": int(sizes[rng.integers(len(sizes))]),
            "half_width": None if rng.uniform() < 0.5 else log_uniform(0.01, 5.0),
        },
        "pipeline": PIPELINES[rng.integers(len(PIPELINES))],
        "fit_pairs": FIT_PAIRS[rng.integers(len(FIT_PAIRS))],
    }


def outcome(raw: dict, out: Path) -> str:
    """How one draw ended: ``config-error``, ``[stage]``, ``report``, or
    ``unexpected: ...`` for any other ending."""
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return "config-error"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = run_pipeline(cfg, out).to_dict()
        except PipelineError as err:
            return f"[{err.stage}]" if err.stage in STAGES else f"unexpected: {err}"
        except Exception as err:  # any other ending is what the fuzz looks for
            return f"unexpected: {type(err).__name__}: {err}"
    bad = [k for k, v in report["summary"].items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        return f"unexpected: non-finite summary values {bad}"
    unread = [k for k, v in report["residuals"].items() if v is None]
    if unread and not report["notes"]:
        return f"unexpected: non-finite residuals {unread} without a note"
    return "report"


def fuzz(draws: int, seed: int, sizes=SIZES) -> tuple[Counter, list]:
    """(counts by outcome, [(config, outcome)] of each unexpected ending)."""
    rng = np.random.default_rng(seed)
    counts, failures = Counter(), []
    for _ in range(draws):
        raw = draw(rng, sizes)
        with tempfile.TemporaryDirectory() as out:
            got = outcome(raw, Path(out))
        unexpected = got.startswith("unexpected")
        counts["unexpected" if unexpected else got] += 1
        if unexpected:
            failures.append((raw, got))
    return counts, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    counts, failures = fuzz(args.draws, args.seed)
    for name, count in sorted(counts.items()):
        print(f"{name}: {count}")
    for raw, got in failures:
        print(f"{got}\n  config: {raw}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
