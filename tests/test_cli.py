"""Tests for the command-line interface."""

import csv
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from twinbeams import __version__
from twinbeams.io import config_from_dict, parse_config_text, serialize_config
from twinbeams.io.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def all_output(result):
    """stdout plus stderr regardless of how this click version splits them."""
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def write_config(tmp_path, name="run.yaml", **overrides):
    raw = {
        "crystal": {"length_mm": 2.0, "theta0_deg": 28.81},
        "pump": {"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": 10.0},
        "grid": {"m": 16, "half_width": 0.55},
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(serialize_config(config_from_dict(raw)))
    return path


class TestValidate:
    """twinbeams validate"""

    def test_bundled_config_round_trips(self, runner):
        result = runner.invoke(main, ["validate", "bbo_nondegenerate"])
        assert result.exit_code == 0
        cfg = parse_config_text(result.output)
        assert cfg.crystal.theta0_deg == 28.81

    def test_bad_config_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "crystal:\n  length_mm: 2.0\n  theta0_deg: 120.0\n"
            "pump:\n  lambda_p_nm: 397.5\n  tau_p_fs: 129.0\n"
        )
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "theta0_deg must lie strictly between 0 and 90" in all_output(result)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1: 2\nzz: 3\n", "config: unknown key 1 "),
            ("pairing_tol: 1" + "0" * 400 + "\n", "config.pairing_tol: integer too large"),
            ("pairing_tol: 1" + "0" * 5000 + "\n", "bad.yaml: unreadable value"),
        ],
        ids=["mixed-key-types", "float-overflow", "digit-limit"],
    )
    def test_crashing_inputs_exit_2(self, runner, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "crystal:\n  length_mm: 2.0\n  theta0_deg: 28.81\n"
            "pump:\n  lambda_p_nm: 397.5\n  tau_p_fs: 129.0\n" + text
        )
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert message in all_output(result)

    def test_missing_config_exits_2(self, runner):
        result = runner.invoke(main, ["validate", "no_such_config"])
        assert result.exit_code == 2
        assert "config not found" in all_output(result)
        assert "bbo_nondegenerate" in all_output(result)


class TestRun:
    """twinbeams run"""

    def test_small_numerical_run(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0
        assert "pipeline: numerical" in result.output
        assert "leading eigenvalue r1" in result.output
        assert f"report: {out / 'report.json'}" in result.output
        assert (out / "report.json").exists()
        assert (out / "spectrum.csv").exists()
        assert (out / "squeezing_matrix.csv").exists()

    def test_format_override(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run", str(cfg_path), "--out", str(out), "--format", "both"]
        )
        assert result.exit_code == 0
        assert (out / "spectrum.csv").exists()
        assert (out / "spectrum.json").exists()

    def test_threshold_failure_exits_3(self, runner, tmp_path):
        cfg_path = write_config(
            tmp_path,
            crystal={"length_mm": 2.0, "theta0_deg": 29.18},
            grid={"m": 32},
            pipeline="near_degenerate",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 3
        assert "residual thresholds violated: leakage" in all_output(result)
        # the report is still written for inspection
        assert (out / "report.json").exists()

    def test_pipeline_error_exits_3(self, runner, tmp_path):
        cfg_path = write_config(
            tmp_path,
            crystal={"length_mm": 2.0, "theta0_deg": 29.4},
            grid={"m": 16},
        )
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "[grid]" in all_output(result)

    def test_bad_override_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        result = runner.invoke(main, ["run", str(cfg_path), "--pairs-tol", "-1"])
        assert result.exit_code == 2
        assert "pairing_tol" in all_output(result)

    def test_terms_override_lands_in_report(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, pipeline="analytic")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run", str(cfg_path), "--out", str(out), "--terms", "5"]
        )
        assert result.exit_code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["mehler_terms"] == 5
        assert payload["residuals"]["kernel_truncation"] > 1e-6

    def test_output_dir_from_environment(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, pipeline="analytic")
        env_out = tmp_path / "env_out"
        result = runner.invoke(
            main,
            ["run", str(cfg_path)],
            env={"TWINBEAMS_OUTPUT_DIR": str(env_out)},
        )
        assert result.exit_code == 0
        assert (env_out / "report.json").exists()


class TestSweep:
    """twinbeams sweep"""

    def test_gain_sweep(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep", str(cfg_path),
                "--param", "pump.gain",
                "--values", "1,2",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        assert (out / "pump.gain=1" / "report.json").exists()
        assert (out / "pump.gain=2" / "report.json").exists()
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value", "r1", "q_fit", "schmidt_number", "pairs_accepted", "failures"]
        assert len(rows) == 3
        r1_by_gain = {row[0]: float(row[1]) for row in rows[1:]}
        assert np.allclose(r1_by_gain["2"], 2.0 * r1_by_gain["1"], atol=1e-12, rtol=0)

    def test_unknown_param_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        result = runner.invoke(
            main,
            ["sweep", str(cfg_path), "--param", "pump.power", "--values", "1"],
        )
        assert result.exit_code == 2
        assert "unknown config path" in all_output(result)

    def test_bad_value_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        result = runner.invoke(
            main,
            [
                "sweep", str(cfg_path),
                "--param", "pump.gain",
                "--values", "1,banana",
                "--out", str(tmp_path / "sweep"),
            ],
        )
        assert result.exit_code == 2
        assert "pump.gain: expected a number" in all_output(result)

    def test_failing_point_is_recorded_and_exit_3(self, runner, tmp_path):
        """A point that cannot run leaves an error row; the sweep continues."""
        cfg_path = write_config(tmp_path, grid={"m": 16})  # automatic band sizing
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep", str(cfg_path),
                "--param", "crystal.theta0_deg",
                "--values", "28.81,29.4",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 3
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        good, bad = rows[1], rows[2]
        assert float(good[1]) > 0.0
        assert bad[1] == ""
        assert "[grid]" in bad[5]
        assert (out / "crystal.theta0_deg=28.81" / "report.json").exists()

    def test_empty_values_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        result = runner.invoke(
            main, ["sweep", str(cfg_path), "--param", "pump.gain", "--values", " , "]
        )
        assert result.exit_code == 2
        assert "--values is empty" in all_output(result)


class TestMeta:
    """Version and help."""

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert f"twinbeams, version {__version__}" in result.output

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["-h"])
        assert result.exit_code == 0
        for command in ("run", "validate", "sweep"):
            assert command in result.output
