"""Regenerate reference.json: the checked values of every working point.

    PYTHONPATH=src python3 perfbench/reference.py

Run it from the root of a source checkout.  The values belong to the commit
that produced them; the benchmark's correctness gate compares against them.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from workloads import COMPARE_THETAS, REFERENCE_PATH, SWEEP_THETAS, RunCompare, SpectrumPaths, SweepTheta


def _values(workload, work: Path) -> dict:
    out = work / "out"
    values = workload.values(workload.op(out), out)
    shutil.rmtree(out, ignore_errors=True)
    return values


def main() -> None:
    work = Path(tempfile.mkdtemp(dir=Path(__file__).parent))
    try:
        reference = {RunCompare.name: {}, SweepTheta.name: {}, SpectrumPaths.name: {}}
        for theta in COMPARE_THETAS:
            reference[RunCompare.name] |= _values(RunCompare(theta, work), work)
            reference[SpectrumPaths.name] |= _values(SpectrumPaths(theta, work), work)
            print(theta, flush=True)
        reference[SweepTheta.name] = _values(SweepTheta(SWEEP_THETAS, work), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
