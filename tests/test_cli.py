"""Tests for the command-line interface."""

import csv
import dataclasses
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from conftest import artifact_bytes, rotating_first_schmidt_mode
from twinbeams import __version__
from twinbeams.io import (
    cli,
    config_from_dict,
    parse_config,
    parse_config_text,
    pipeline,
    serialize_config,
)
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
            ("grid:\n  width_factor: .inf\n", "grid: width_factor must be positive and finite"),
        ],
        ids=["mixed-key-types", "float-overflow", "digit-limit", "non-finite"],
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

    def test_exponent_float_without_a_dot_validates(self, runner, tmp_path):
        path = tmp_path / "tol.yaml"
        path.write_text(
            "crystal:\n  length_mm: 2.0\n  theta0_deg: 28.81\n"
            "pump:\n  lambda_p_nm: 397.5\n  tau_p_fs: 129.0\n"
            "pairing_tol: 1e-2\n"
        )
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert parse_config_text(result.output).pairing_tol == 0.01

    def test_missing_config_exits_2(self, runner):
        result = runner.invoke(main, ["validate", "no_such_config"])
        assert result.exit_code == 2
        assert "config not found" in all_output(result)
        assert "bbo_nondegenerate" in all_output(result)

    def test_mehler_terms_key_exits_2(self, runner, tmp_path):
        """The removed ``mehler_terms``, ``grid.window_T`` and ``output.format``
        settings fail loudly, naming the key."""
        path = tmp_path / "old.yaml"
        base = (
            "crystal:\n  length_mm: 2.0\n  theta0_deg: 28.81\n"
            "pump:\n  lambda_p_nm: 397.5\n  tau_p_fs: 129.0\n"
        )
        for extra, message in (
            ("mehler_terms: 80\n", "config: unknown key 'mehler_terms'"),
            ("grid:\n  window_T: 50.0\n", "grid: unknown key 'window_T'"),
            ("output:\n  format: csv\n", "output: unknown key 'format'"),
        ):
            path.write_text(base + extra)
            result = runner.invoke(main, ["validate", str(path)])
            assert result.exit_code == 2
            assert message in all_output(result)


class TestRun:
    """twinbeams run"""

    def test_small_numerical_run(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0
        assert "pipeline: numerical" in result.output
        assert "\nr1: " in result.output
        assert f"report: {out / 'report.json'}" in result.output
        assert (out / "report.json").exists()
        assert (out / "spectrum.csv").exists()
        assert (out / "spectrum.npz").exists()
        assert (out / "squeezing_matrix.npz").exists()
        assert not (out / "squeezing_matrix.csv").exists()

    @pytest.mark.parametrize("name", ["numerical", "analytic", "compare", "near_degenerate"])
    def test_digest_is_the_report_flattened(self, runner, tmp_path, name):
        """One line per scalar summary value, residual and gated margin of
        report.json, in its order, then the notes and the artifact count."""
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run", str(write_config(tmp_path, pipeline=name)), "--out", str(out)]
        )
        assert result.exit_code == 0, all_output(result)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        residuals, thresholds = report["residuals"], report["thresholds"]

        def spell(v):
            return f"{v:.6g}" if isinstance(v, float) else str(v)

        gated = [k for k in residuals if k in thresholds]
        margins = [f"{k}_margin: {spell(residuals[k] / thresholds[k])}" for k in gated]
        assert len(margins) == (0 if name == "analytic" else 3)
        assert result.output.splitlines() == [
            f"pipeline: {name}",
            *(f"{k}: {spell(v)}" for k, v in report["summary"].items()),
            *(f"residual {k}: {v:.3e}" for k, v in residuals.items()),
            *margins,
            *(f"note: {note}" for note in report["notes"]),
            f"artifacts: {len(report['artifacts'])} files",
            f"report: {out / 'report.json'}",
        ]

    def test_a_new_summary_key_is_a_digest_line(self, runner, tmp_path, monkeypatch):
        """The digest is the report: a summary key the pipeline adds is printed
        without any change to the CLI, before the residuals."""
        def run_pipeline(cfg, out_dir=None):
            report = pipeline.run_pipeline(cfg, out_dir=out_dir)
            report.summary["probe"] = 2.0 * cfg.pump.gain
            return report

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        args = ["run", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        lines = result.output.splitlines()
        first_residual = next(k for k, line in enumerate(lines) if line.startswith("residual "))
        assert lines.index("probe: 20") < first_residual

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

    def test_takagi_failure_exits_3(self, runner, tmp_path, monkeypatch):
        """Schmidt factors that stay unitary but reconstruct J wrongly fail the check."""
        monkeypatch.setattr(
            pipeline, "schmidt_from_jsa", rotating_first_schmidt_mode(pipeline.schmidt_from_jsa)
        )
        cfg_path = write_config(tmp_path, pipeline="numerical")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 3
        assert "residual thresholds violated: takagi" in all_output(result)
        assert (out / "report.json").exists()

    def test_unallocatable_matrix_exits_3(self, runner, tmp_path, monkeypatch):
        """A MemoryError in a stage exits 3 with the stage label, no traceback."""

        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(pipeline, "build_squeezing_matrix", unallocatable)
        cfg_path = write_config(tmp_path, pipeline="numerical")
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "error: [squeezing-matrix] Unable to allocate 29.1 TiB" in all_output(result)
        assert "Traceback" not in all_output(result)

    @pytest.mark.parametrize("name", ["takagi", "leakage"])
    def test_nan_residual_exits_3(self, runner, tmp_path, monkeypatch, name):
        """A NaN residual fails its threshold: NaN is not at or below any number."""
        nan = float("nan")
        if name == "takagi":
            monkeypatch.setattr(pipeline, "_schmidt_residual", lambda jsa, sd: nan)
        else:
            extract = pipeline.extract_jsa
            monkeypatch.setattr(
                pipeline, "extract_jsa", lambda sq: dataclasses.replace(extract(sq), leakage=nan)
            )
        cfg_path = write_config(tmp_path, pipeline="numerical")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 3
        assert f"residual thresholds violated: {name}" in all_output(result)
        # The digest spells the NaN residual and leaves its margin empty, as report.json does.
        assert f"residual {name}: nan" in result.output.splitlines()
        assert f"{name}_margin: None" in result.output.splitlines()
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["threshold_failures"] == [name]

    def test_nan_kernel_truncation_is_a_note(self, runner, tmp_path, monkeypatch):
        """The Mehler deviation is a note-only check: NaN adds its note and fails nothing."""
        monkeypatch.setattr(
            pipeline, "evaluate_kernel_lhs", lambda params, x, y: np.full(x.shape, np.nan)
        )
        cfg_path = write_config(tmp_path, pipeline="analytic")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0
        assert "residual kernel_truncation: nan" in all_output(result)

        def reject(token):
            raise AssertionError(f"report.json holds {token}")

        text = (out / "report.json").read_text(encoding="utf-8")
        payload = json.loads(text, parse_constant=reject)
        assert payload["residuals"] == {"kernel_truncation": None}
        assert payload["threshold_failures"] == []
        (note,) = payload["notes"]
        assert note.startswith("Mehler series (") and "disagree by nan of the kernel norm" in note

    def test_pipeline_error_exits_3(self, runner, tmp_path):
        cfg_path = write_config(
            tmp_path,
            crystal={"length_mm": 2.0, "theta0_deg": 29.4},
            grid={"m": 16},
        )
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "[grid]" in all_output(result)

    @pytest.mark.parametrize("gain", [1e160, 1e300])
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_huge_gain_exits_3_with_a_stage_label(self, runner, tmp_path, gain, z0_fraction):
        """||Gamma||_F^2 past double precision stops at the JSA extraction, with
        no RuntimeWarning on the way (the test suite turns one into an error)."""
        cfg_path = write_config(
            tmp_path,
            pump={"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": gain, "z0_fraction": z0_fraction},
            grid={"m": 32},
            pipeline="compare",
        )
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3, all_output(result)
        assert "error: [jsa-extraction] squeezing-matrix energy" in all_output(result)

    @pytest.mark.parametrize(
        "pipeline_name, grid, stage",
        [
            ("compare", {"m": 16, "half_width": 0.55}, "[mehler-factors]"),
            ("numerical", {"m": 16}, "[grid]"),
        ],
    )
    def test_mehler_consistency_failure_exits_3(
        self, runner, tmp_path, pipeline_name, grid, stage
    ):
        """A 1000 mm crystal fails the Mehler factors' own checks; an automatic
        band then cannot be sized."""
        cfg_path = write_config(
            tmp_path,
            crystal={"length_mm": 1000.0, "theta0_deg": 28.81},
            grid=grid,
            pipeline=pipeline_name,
        )
        result = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert f"error: {stage}" in all_output(result)
        assert "inconsistent" in all_output(result)

    @pytest.mark.parametrize(
        "option",
        [["--terms", "5"], ["--format", "json"], ["--pairs-tol", "0.02"]],
        ids=["terms", "format", "pairs-tol"],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_removed_option_is_a_usage_error(self, runner, tmp_path, command, option):
        """The Mehler term count is derived from its tail bound, not set,
        every run writes the one spectrum table and factor file, and
        ``pairing_tol`` is set in the config or swept with ``--param``, so
        none has an option."""
        cfg_path = write_config(tmp_path, pipeline="analytic")
        args = [command, str(cfg_path), "--out", str(tmp_path / "out"), *option]
        if command == "sweep":
            args += ["--param", "pump.gain", "--values", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "No such option" in all_output(result)
        assert option[0] in all_output(result)
        assert not (tmp_path / "out").exists()

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


def read_table(path):
    """(header, rows) of a CSV table, each row a dict keyed by the header."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


SIX_COLUMNS = ["value", "r1", "q_fit", "schmidt_number", "pairs_accepted", "failures"]


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
        header, rows = read_table(out / "sweep_summary.csv")
        assert set(SIX_COLUMNS) <= set(header)
        assert "failed_stage" not in header
        assert len(rows) == 2
        r1_by_gain = {row["value"]: float(row["r1"]) for row in rows}
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

    def test_bad_last_value_runs_no_point(self, runner, tmp_path):
        """Every value is validated before the first point runs."""
        cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep", str(cfg_path),
                "--param", "grid.m",
                "--values", "8,x",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 2
        assert "grid.m: expected an integer, got 'x'" in all_output(result)
        assert not out.exists()

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
        header, rows = read_table(out / "sweep_summary.csv")
        assert set(SIX_COLUMNS) <= set(header)
        assert len(rows) == 2
        good, bad = rows
        assert float(good["r1"]) > 0.0
        assert good["failures"] == good["failed_stage"] == ""
        assert bad["r1"] == ""
        assert "[grid]" in bad["failures"]
        assert bad["failed_stage"] == "grid"
        assert (out / "crystal.theta0_deg=28.81" / "report.json").exists()

    def test_mehler_failure_is_a_row_and_exit_3(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, pipeline="compare")
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep", str(cfg_path),
                "--param", "crystal.length_mm",
                "--values", "2.0,1000.0",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 3
        header, rows = read_table(out / "sweep_summary.csv")
        assert set(SIX_COLUMNS) <= set(header)
        assert [row["value"] for row in rows] == ["2.0", "1000.0"]
        assert float(rows[0]["r1"]) > 0.0
        assert rows[0]["failed_stage"] == ""
        assert rows[1]["r1"] == ""
        assert rows[1]["failures"].startswith("[mehler-factors] ")
        assert rows[1]["failed_stage"] == "mehler-factors"

    def test_a_new_summary_key_is_a_column(self, runner, tmp_path, monkeypatch):
        """The table is the report: a summary key the pipeline adds becomes a
        column without any change to the sweep."""
        def run_pipeline(cfg, out_dir=None):
            report = pipeline.run_pipeline(cfg, out_dir=out_dir)
            report.summary["probe"] = 2.0 * cfg.pump.gain
            return report

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        out = tmp_path / "sweep"
        args = ["sweep", str(write_config(tmp_path)), "--param", "pump.gain", "--values", "1,3"]
        assert runner.invoke(main, [*args, "--out", str(out)]).exit_code == 0
        header, rows = read_table(out / "sweep_summary.csv")
        assert header.index("probe") < header.index("leakage")
        assert [row["probe"] for row in rows] == ["2", "6"]

    def test_columns_are_the_report_flattened(self, runner, tmp_path):
        """Every summary value, residual, margin and the note count of each
        point's report.json, cell for cell; a margin is residual / threshold
        bit for bit."""
        out = tmp_path / "sweep"
        args = ["sweep", str(write_config(tmp_path)), "--param", "pump.gain", "--values", "1,2"]
        assert runner.invoke(main, [*args, "--out", str(out)]).exit_code == 0
        header, rows = read_table(out / "sweep_summary.csv")
        for row in rows:
            report = json.loads((out / f"pump.gain={row['value']}" / "report.json").read_text())
            residuals, thresholds = report["residuals"], report["thresholds"]
            gated = [k for k in residuals if k in thresholds]
            margins = {f"{k}_margin": residuals[k] / thresholds[k] for k in gated}
            assert set(margins) == {"leakage_margin", "takagi_margin", "symplectic_margin"}
            want = {**report["summary"], **residuals, **margins}
            assert header == ["value", *want, "notes", "failures"]
            for key, value in want.items():
                if value is None:
                    assert row[key] == ""
                elif isinstance(value, float):
                    assert float(row[key]).hex() == value.hex(), key
                else:
                    assert row[key] == str(value), key
            assert row["notes"] == str(len(report["notes"]))
            assert row["failures"] == ";".join(report["threshold_failures"]) == ""

    def test_nan_residual_is_a_blank_residual_and_margin(self, runner, tmp_path, monkeypatch):
        def run_pipeline(cfg, out_dir=None):
            report = pipeline.run_pipeline(cfg, out_dir=out_dir)
            report.residuals["leakage"] = float("nan")
            return report

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        out = tmp_path / "sweep"
        args = ["sweep", str(write_config(tmp_path)), "--param", "pump.gain", "--values", "1"]
        assert runner.invoke(main, [*args, "--out", str(out)]).exit_code == 0
        header, (row,) = read_table(out / "sweep_summary.csv")
        assert "leakage" in header and "leakage_margin" in header
        assert row["leakage"] == row["leakage_margin"] == ""
        assert float(row["takagi_margin"]) > 0.0

    def test_failure_message_with_a_comma_round_trips(self, runner, tmp_path):
        out = tmp_path / "sweep"
        cfg_path = write_config(tmp_path)
        args = ["sweep", str(cfg_path), "--param", "grid.half_width", "--values", "0.5,1.5"]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 3
        header, rows = read_table(out / "sweep_summary.csv")
        assert [row["value"] for row in rows] == ["0.5", "1.5"]
        assert rows[0]["failures"] == rows[0]["failed_stage"] == ""
        assert rows[1]["failures"].startswith("[squeezing-matrix] ")
        assert rows[1]["failures"].endswith(" range [0.19, 1.5] um")
        assert rows[1]["failed_stage"] == "squeezing-matrix"
        assert header[-2:] == ["failures", "failed_stage"]

    def test_repeat_sweep_is_byte_identical(self, runner, tmp_path):
        """Columns follow their first appearance: the analytic point's keys
        come after the numerical point's whole row."""
        tables = []
        cfg_path = write_config(tmp_path)
        args = ["sweep", str(cfg_path), "--param", "pipeline", "--values", "numerical,analytic"]
        for run in ("a", "b"):
            out = tmp_path / run
            assert runner.invoke(main, [*args, "--out", str(out)]).exit_code == 0
            tables.append((out / "sweep_summary.csv").read_bytes())
        assert tables[0] == tables[1]
        header, rows = read_table(tmp_path / "a" / "sweep_summary.csv")
        first = header.index("failures") + 1
        analytic = json.loads((tmp_path / "a" / "pipeline=analytic" / "report.json").read_text())
        assert header[first:] == [*analytic["summary"], *analytic["residuals"]]
        assert rows[1]["r1"] == rows[0]["q_analytic"] == ""

    def test_exponent_float_value(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            ["sweep", str(cfg_path), "--param", "pump.gain", "--values", "1e1", "--out", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads((out / "pump.gain=1e1" / "report.json").read_text())
        assert report["config"]["pump"]["gain"] == 10.0

    def test_empty_values_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        result = runner.invoke(
            main, ["sweep", str(cfg_path), "--param", "pump.gain", "--values", " , "]
        )
        assert result.exit_code == 2
        assert "--values is empty" in all_output(result)


    def test_echo_shows_only_what_the_report_holds(self, runner, tmp_path):
        """r1 and the pair count are echoed where the report has them: an
        analytic point has neither and prints no nan."""
        out = tmp_path / "sweep"
        args = ["sweep", str(write_config(tmp_path)), "--param", "pipeline"]
        result = runner.invoke(main, [*args, "--values", "numerical,analytic", "--out", str(out)])
        assert result.exit_code == 0
        summary = json.loads((out / "pipeline=numerical" / "report.json").read_text())["summary"]
        assert result.output.splitlines()[:2] == [
            f"pipeline=numerical: r1={summary['r1']:.6g} pairs={summary['pairs_accepted']}",
            "pipeline=analytic:",
        ]


ANALYSIS_SWEEPS = [("pairing_tol", "0.005,0.01,0.02"), ("fit_pairs", "3,null,15")]


def record_calls(monkeypatch, *names):
    """A list that gets ``name`` at each call of ``pipeline.<name>``."""
    calls = []

    def recording(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(pipeline, name, recording(name, getattr(pipeline, name)))
    return calls


class TestAnalysisOnlySweep:
    """A sweep over a key that only the pairing and the fit read runs its
    first point in full; each later point analyses that point's
    squeezing_matrix.npz and spectrum.npz, and its files are those of a
    plain run of its config."""

    @pytest.fixture(params=[0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def z0_fraction(self, request):
        return request.param

    def sweep(self, runner, tmp_path, name, z0_fraction, param, values):
        raw = yaml.safe_load(write_config(tmp_path, pipeline=name).read_text())
        raw["pump"]["z0_fraction"] = z0_fraction
        cfg_path = tmp_path / "base.yaml"
        cfg_path.write_text(serialize_config(config_from_dict(raw)))
        args = ["sweep", str(cfg_path), "--param", param, "--values", values]
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "sweep")])
        assert result.exit_code == 0, all_output(result)
        return raw

    @pytest.mark.parametrize("param, values", ANALYSIS_SWEEPS)
    @pytest.mark.parametrize("name", ["numerical", "near_degenerate"])
    def test_one_build_and_one_factorization(
        self, runner, tmp_path, monkeypatch, z0_fraction, name, param, values
    ):
        calls = record_calls(
            monkeypatch, "build_squeezing_matrix", "schmidt_from_jsa", "_takagi_unchecked"
        )
        self.sweep(runner, tmp_path, name, z0_fraction, param, values)
        route = "_takagi_unchecked" if name == "near_degenerate" else "schmidt_from_jsa"
        assert calls == ["build_squeezing_matrix", route]
        _, rows = read_table(tmp_path / "sweep" / "sweep_summary.csv")
        assert [row["value"] for row in rows] == values.split(",")

    @pytest.mark.parametrize("param, values", ANALYSIS_SWEEPS)
    @pytest.mark.parametrize("name", ["numerical", "compare", "near_degenerate"])
    def test_points_are_plain_runs(self, runner, tmp_path, z0_fraction, name, param, values):
        raw = self.sweep(runner, tmp_path, name, z0_fraction, param, values)
        for value in values.split(","):
            plain = tmp_path / f"plain-{value}"
            pipeline.run_pipeline(config_from_dict({**raw, param: yaml.safe_load(value)}), plain)
            assert artifact_bytes(tmp_path / "sweep" / f"{param}={value}") == artifact_bytes(plain)

    def test_near_degenerate_pairs_from_one_build(self, runner, tmp_path, monkeypatch):
        """Near degeneracy at m = 32: each point keeps the first point's
        leakage failure (exit 3), the accepted pairs grow with the
        tolerance, and Gamma is built once."""
        built = record_calls(monkeypatch, "build_squeezing_matrix")
        raw = yaml.safe_load(serialize_config(parse_config("bbo_near_degenerate")))
        raw["grid"]["m"] = 32
        cfg_path = tmp_path / "near.yaml"
        cfg_path.write_text(serialize_config(config_from_dict(raw)))
        out = tmp_path / "sweep"
        args = ["sweep", str(cfg_path), "--param", "pairing_tol", "--values", "0.005,0.012,0.02"]
        assert runner.invoke(main, [*args, "--out", str(out)]).exit_code == 3
        _, rows = read_table(out / "sweep_summary.csv")
        assert [(row["pairs_accepted"], row["failures"]) for row in rows] == [
            ("3", "leakage"), ("4", "leakage"), ("6", "leakage")
        ]
        assert len(built) == 1

    def test_failed_first_point_fails_every_point(self, runner, tmp_path, monkeypatch):
        """A band past the optical frequency fails the first point's matrix
        build, so no files are left to analyse: every point runs in full and
        gets its own failure row."""
        attempts = record_calls(monkeypatch, "build_squeezing_matrix")
        cfg_path = write_config(tmp_path, grid={"m": 16, "half_width": 20.0})
        out = tmp_path / "sweep"
        args = ["sweep", str(cfg_path), "--param", "pairing_tol", "--values", "0.01,0.02"]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 3
        assert len(attempts) == 2
        _, rows = read_table(out / "sweep_summary.csv")
        assert [row["failed_stage"] for row in rows] == ["squeezing-matrix"] * 2
        assert rows[0]["failures"] == rows[1]["failures"]
        assert rows[0]["failures"].startswith("[squeezing-matrix] ")


class TestHeatmap:
    """twinbeams heatmap"""

    def test_writes_the_csv_next_to_the_npz(self, runner, tmp_path):
        out = tmp_path / "out"
        assert runner.invoke(main, ["run", str(write_config(tmp_path)), "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["heatmap", str(out)])
        assert result.exit_code == 0
        assert f"heatmap: {out / 'squeezing_matrix.csv'}" in result.output
        with np.load(out / "squeezing_matrix.npz") as data:
            gamma, omega = data["gamma"], data["omega"]
        with open(out / "squeezing_matrix.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["omega", "omega_prime", "re", "im", "abs"]
        assert len(rows) == gamma.size == 32 * 32
        assert [float(r[0]) for r in rows[::32]] == omega.tolist()
        assert [float(r[2]) for r in rows] == gamma.ravel().tolist()

    def test_missing_npz_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["heatmap", str(tmp_path)])
        assert result.exit_code == 2
        assert f"no squeezing matrix at {tmp_path / 'squeezing_matrix.npz'}" in all_output(result)
        assert not (tmp_path / "squeezing_matrix.csv").exists()

    @pytest.mark.parametrize(
        "content",
        [
            "text", "empty", "truncated", "pickled-gamma", "no-gamma", "nan-gamma",
            "integer-gamma", "string-omega", "npy",
        ],
    )
    def test_unreadable_npz_exits_2(self, runner, tmp_path, content):
        """Every failure, numpy's own included, is one error line naming the file once."""
        path = tmp_path / "squeezing_matrix.npz"
        omega = np.zeros(2)
        arrays = {
            "truncated": dict(omega=omega, gamma=np.eye(2)),
            "pickled-gamma": dict(omega=omega, gamma=np.array([None, 1], dtype=object)),
            "no-gamma": dict(omega=omega),
            "nan-gamma": dict(omega=omega, gamma=np.full((2, 2), np.nan)),
            "integer-gamma": dict(omega=omega, gamma=np.eye(2, dtype=np.int64)),
            "string-omega": dict(omega=np.array(["1", "2"]), gamma=np.eye(2)),
        }.get(content)
        if content == "text":
            path.write_bytes(b"not an archive")
        elif content == "empty":
            path.write_bytes(b"")
        elif content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.eye(2))
        else:
            np.savez(path, **arrays)
            if content == "truncated":
                path.write_bytes(path.read_bytes()[:100])
        result = runner.invoke(main, ["heatmap", str(tmp_path)])
        assert result.exit_code == 2
        errors = [line for line in all_output(result).splitlines() if line.startswith("error:")]
        assert errors and all(line.count(str(path)) == 1 for line in errors)
        assert f"error: not a squeezing matrix: {path}: " in errors[0]
        assert not (tmp_path / "squeezing_matrix.csv").exists()


class TestMeta:
    """Version and help."""

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert f"twinbeams, version {__version__}" in result.output

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["-h"])
        assert result.exit_code == 0
        for command in ("run", "validate", "sweep", "heatmap"):
            assert command in result.output
