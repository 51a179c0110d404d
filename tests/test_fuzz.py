"""The seeded config fuzz of ``ci/fuzz.py`` on small grids: every draw ends
in a config error, a labelled stage failure or a finite report."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "ci" / "fuzz.py"
_spec = importlib.util.spec_from_file_location("fuzz", SCRIPT)
fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz)


def test_every_draw_fails_loudly_or_reports_finite_values():
    """200 draws at m <= 16; ``python ci/fuzz.py`` runs the same check to m = 48."""
    counts, failures = fuzz.fuzz(200, seed=0, sizes=fuzz.SIZES[:5])
    assert failures == []
    assert sum(counts.values()) == 200
    assert counts["report"] > 0
