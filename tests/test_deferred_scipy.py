"""scipy stays off the run path: importing twinbeams and running any pipeline
or CLI command loads no scipy module, and the two functions that do use
scipy import it when first called."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(script, cwd):
    """Run ``script`` in a new interpreter that imports twinbeams from src;
    return its last line of output, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_run_path_loads_no_scipy(tmp_path):
    """Every pipeline with a float64 and a complex Gamma, and run/validate/sweep/heatmap."""
    loaded = run_fresh(
        f"""
        import json, sys
        import twinbeams, twinbeams.io, twinbeams.io.cli as cli
        from twinbeams.io import PIPELINES, config_from_dict, run_pipeline, serialize_config

        raw = {{
            "crystal": {{"length_mm": 2.0, "theta0_deg": 28.81}},
            "pump": {{"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": 10.0}},
            "grid": {{"m": 16}},
        }}
        for z0 in (0.5, 0.25):  # z0 = L/2 gives a float64 Gamma, L/4 a complex one
            for name in PIPELINES:
                pump = dict(raw["pump"], z0_fraction=z0)
                run_pipeline(config_from_dict(dict(raw, pipeline=name, pump=pump)), f"{{name}}-{{z0}}")
        with open("small.yaml", "w") as fh:
            fh.write(serialize_config(config_from_dict(raw)))
        for args in (
            ["validate", "small.yaml"],
            ["run", "small.yaml", "--out", "run"],
            ["sweep", "small.yaml", "--param", "pump.z0_fraction", "--values", "0.25,0.5",
             "--out", "sweep"],
            ["heatmap", "run"],
        ):
            try:
                cli.main(args, standalone_mode=False)
            except SystemExit as exc:
                assert not exc.code, (args, exc.code)
        print(json.dumps({SCIPY_MODULES}))
        """,
        tmp_path,
    )
    assert (tmp_path / "sweep").is_dir()
    assert (tmp_path / "run" / "squeezing_matrix.csv").is_file()
    assert loaded == []


@pytest.mark.parametrize(
    "call",
    [
        "repr(find_central_detuning(bbo_crystal(2.0, 28.81), PumpConfig(397.5, 129.0)))",
        "repr([exponentiate_generator(g).s0.tolist(), exponentiate_generator(g).sI.tolist()])",
    ],
    ids=["find_central_detuning", "exponentiate_generator"],
)
def test_deferred_paths_work_when_called_first(tmp_path, call):
    """Each scipy user, called first in a fresh interpreter, imports scipy
    then and matches the in-process result bit for bit."""
    setup = """
        import json, sys
        import numpy as np
        from twinbeams.pdc import PumpConfig, bbo_crystal, find_central_detuning
        from twinbeams.symplectic import GeneratorMatrix, exponentiate_generator

        a = np.arange(9.0).reshape(3, 3) / 10.0
        g = GeneratorMatrix(n=3, h0=a + a.T + 1j * (a - a.T), hI=(1.0 - 0.5j) * (a + a.T))
        """
    namespace = {}
    exec(textwrap.dedent(setup), namespace)
    expected = eval(call, namespace)
    result = run_fresh(
        setup
        + f"""
        before = {SCIPY_MODULES}
        value = {call}
        print(json.dumps([before, value, {SCIPY_MODULES}]))
        """,
        tmp_path,
    )
    before, value, after = result
    assert before == []
    assert value == expected
    assert "scipy" in after
