"""The public surface: every exported name resolves, and the README examples run."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS = ["pdc", "mehler", "takagi", "twinbeam", "symplectic", "io"]


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"twinbeams.{layer}")
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Both library-use blocks run as written and fit q = 0.8873: the pipeline
    on its automatic band, the hand-built pieces on that band rounded to 0.495."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
    printed = capsys.readouterr().out.split()
    q_values = [float(printed[0]), float(printed[2])]
    assert q_values == pytest.approx([0.88727, 0.88727], abs=1e-4)
