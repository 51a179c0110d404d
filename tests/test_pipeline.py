"""End-to-end tests of the run pipelines and their artifacts."""

import csv
import dataclasses
import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    artifact_bytes,
    grid_sums,
    per_cell_heatmap,
    reference_csv,
    rotating_first_schmidt_mode,
)
import twinbeams.mehler as mehler
import twinbeams.pdc as pdc
import twinbeams.symplectic as symplectic
import twinbeams.takagi as takagi
import twinbeams.twinbeam as twinbeam
from twinbeams.io import (
    ENV_OUTPUT_DIR,
    PIPELINES,
    PipelineError,
    config_from_dict,
    config_to_dict,
    export_spectrum,
    load_spectrum,
    parse_config,
    pipeline,
    resolve_output_dir,
    run_pipeline,
    serialize_config,
)
from twinbeams.io import cli

MINIMAL = {
    "crystal": {"length_mm": 2.0, "theta0_deg": 28.81},
    "pump": {"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": 10.0},
}


def small_config(**overrides):
    raw = {
        "crystal": dict(MINIMAL["crystal"]),
        "pump": dict(MINIMAL["pump"]),
        "grid": {"m": 16, "half_width": 0.55},
    }
    raw.update(overrides)
    return config_from_dict(raw)


def bundled_config(name, **overrides):
    """A bundled config with ``section__key=value`` overrides; a bare key is top level."""
    raw = config_to_dict(parse_config(name))
    for key, value in overrides.items():
        section, _, field = key.rpartition("__")
        (raw[section] if section else raw)[field] = value
    return config_from_dict(raw)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def keep_built_gamma(monkeypatch):
    """A list that collects each squeezing matrix the pipeline builds."""
    built = []
    original = pipeline.build_squeezing_matrix

    def keeping(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_squeezing_matrix", keeping)
    return built


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    report = run_pipeline(parse_config("bbo_nondegenerate"), out_dir=out)
    return report, out


@pytest.fixture(scope="module")
def near_degenerate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("near")
    report = run_pipeline(parse_config("bbo_near_degenerate"), out_dir=out)
    return report, out


class TestCompareRun:
    """Full compare pipeline at the nondegenerate working point."""

    def test_summary_values(self, compare_run):
        s = compare_run[0].summary
        assert np.allclose(s["r1"], 0.155931, atol=2e-6, rtol=0)
        assert 0.88 <= s["q_fit"] <= 0.90
        assert np.allclose(s["q_fit"], 0.887275, atol=2e-3, rtol=0)
        assert s["fit_rms"] < 1e-2
        assert 32.0 <= s["schmidt_number"] <= 37.0
        assert np.allclose(s["q_analytic"], 0.8685, atol=5e-4, rtol=0)
        q = s["q_analytic"]
        assert np.allclose(
            s["schmidt_number_analytic"], 2.0 * (1.0 + q) / (1.0 - q), atol=1e-9, rtol=0
        )
        assert s["all_paired"] is True
        assert s["pairs_accepted"] == 128
        assert np.allclose(s["grid_half_width"], 0.4949, atol=1e-3, rtol=0)

    def test_mode_overlaps(self, compare_run):
        s = compare_run[0].summary
        assert np.allclose(s["mode_overlap_signal_k0"], 0.9882, atol=5e-4, rtol=0)
        assert np.allclose(s["mode_overlap_idler_k0"], 0.9812, atol=5e-4, rtol=0)

    def test_residuals_under_thresholds(self, compare_run):
        report = compare_run[0]
        r = report.residuals
        assert r["leakage"] < 1e-3
        assert np.allclose(r["leakage"], 2.851e-4, atol=2e-6, rtol=0)
        assert r["imag_fraction"] <= 1e-12
        assert r["takagi"] <= 1e-10
        assert r["symplectic"] <= 1e-10
        assert report.threshold_failures == []

    def test_kernel_truncation_diagnostic(self, compare_run):
        """The series is summed to its 1e-6 tail bound (104 terms here), so
        the bundled run agrees with the closed form and leaves no note."""
        report = compare_run[0]
        assert report.residuals["kernel_truncation"] <= pipeline.KERNEL_THRESHOLD
        assert np.allclose(report.residuals["kernel_truncation"], 3.773e-8, atol=2e-10, rtol=0)
        assert report.notes == []

    def test_artifact_manifest(self, compare_run):
        report, out = compare_run
        kinds = {entry["kind"] for entry in report.artifacts}
        assert kinds == {
            "spectrum",
            "squeezing_matrix",
            "analytic_factors",
            "analytic_modes",
            "mode_overlaps",
            "eigenvalue_ratios",
            "report",
        }
        for entry in report.artifacts:
            assert (out / entry["path"]).exists()

    def test_report_json(self, compare_run):
        report, out = compare_run
        payload = json.loads((out / "report.json").read_text())
        assert list(payload) == [
            "pipeline",
            "config",
            "summary",
            "residuals",
            "thresholds",
            "threshold_failures",
            "notes",
            "artifacts",
        ]
        assert payload == report.to_dict()
        assert payload["pipeline"] == "compare"
        assert payload["summary"]["q_fit"] == report.summary["q_fit"]
        assert payload["config"]["crystal"]["sellmeier_o"]["a"] == 2.7405
        assert payload["thresholds"]["leakage"] == 1e-3
        assert payload["threshold_failures"] == []

    def test_spectrum_artifact(self, compare_run):
        _, out = compare_run
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["index", "r", "pair_id", "pair_gap"]
        assert len(rows) == 256
        values = np.array([float(r[1]) for r in rows])
        assert np.allclose(values[0], 0.155931, atol=2e-6, rtol=0)
        assert np.all(np.diff(values) <= 1e-12)
        # every duo accepted: pair ids run 1, 1, 2, 2, ...
        ids = [int(r[2]) for r in rows]
        assert ids[:6] == [1, 1, 2, 2, 3, 3]
        assert ids[-1] == 128

    def test_mode_overlap_artifact(self, compare_run):
        report, out = compare_run
        header, rows = read_csv(out / "mode_overlaps.csv")
        assert header == ["k", "branch", "overlap_abs"]
        assert len(rows) == 8
        table = {(int(r[0]), r[1]): float(r[2]) for r in rows}
        assert table[(0, "signal")] == report.summary["mode_overlap_signal_k0"]
        assert np.allclose(table[(1, "signal")], 0.9747, atol=5e-4, rtol=0)
        assert all(0.0 < v <= 1.0 for v in table.values())

    def test_eigenvalue_ratio_artifact(self, compare_run):
        report, out = compare_run
        header, rows = read_csv(out / "eigenvalue_ratios.csv")
        assert header == ["pair", "r_mean", "r_rel", "ratio", "ratio_minus_q_analytic"]
        assert rows[0][3] == ""  # the leading pair has no predecessor
        ratios = np.array([float(r[3]) for r in rows[1:6]])
        assert np.abs(ratios - report.summary["q_fit"]).max() < 0.02

    def test_deterministic_artifacts(self, compare_run, tmp_path):
        """Re-running the same config reproduces every artifact byte for byte."""
        _, out = compare_run
        run_pipeline(parse_config("bbo_nondegenerate"), out_dir=tmp_path)
        for name in ("report.json", "spectrum.csv", "spectrum.npz", "mode_overlaps.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


class TestNearDegenerateRun:
    """Full-matrix route where the twin-beam block structure degrades."""

    def test_leakage_flagged(self, near_degenerate_run):
        report = near_degenerate_run[0]
        assert report.threshold_failures == ["leakage"]
        assert np.allclose(report.residuals["leakage"], 1.049e-2, atol=2e-4, rtol=0)
        assert any("band leakage" in note for note in report.notes)

    def test_pairing_breaks_down(self, near_degenerate_run):
        s = near_degenerate_run[0].summary
        assert s["all_paired"] is False
        assert s["pairs_accepted"] == 3
        assert s["first_failure_index"] == 7
        assert any("pairing failed at eigenvalue 7" in n for n in near_degenerate_run[0].notes)

    def test_spectrum_still_reconstructs(self, near_degenerate_run):
        report = near_degenerate_run[0]
        assert report.residuals["takagi"] <= 1e-10
        assert report.summary["r1"] > 0.0

    def test_complex_gamma(self, tmp_path):
        """A z0 off the crystal center makes Gamma complex; it factors all the same."""
        cfg = bundled_config("bbo_near_degenerate", grid__m=64, pump__z0_fraction=0.25)
        report = run_pipeline(cfg, out_dir=tmp_path)
        assert report.residuals["imag_fraction"] > 0.0
        assert report.residuals["takagi"] <= 1e-10
        assert report.residuals["symplectic"] <= 1e-10
        assert report.summary["pairs_accepted"] == 3
        assert report.threshold_failures == ["leakage"]

    def test_one_eigendecomposition(self, monkeypatch, tmp_path):
        """A real Gamma is factored once: the spectrum and the symplectic
        check share one eigendecomposition."""
        shapes = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cfg = bundled_config("bbo_near_degenerate", grid__m=64)
        report = run_pipeline(cfg, out_dir=tmp_path)
        assert report.residuals["imag_fraction"] == 0.0
        assert shapes == [(128, 128)]
        _, factors = load_spectrum(tmp_path / "spectrum.npz")
        assert isinstance(factors, takagi.TakagiFactors)


class TestZeroGain:
    """gain = 0 short-circuits gracefully."""

    def test_zero_matrix_notes(self, tmp_path):
        self.check_zero_gain_run(tmp_path, "numerical")

    @pytest.mark.parametrize("name", ["compare", "near_degenerate"])
    def test_zero_matrix_notes_in_every_pipeline(self, tmp_path, name):
        """A zero Gamma takes the Schmidt route in every pipeline."""
        self.check_zero_gain_run(tmp_path, name)

    @staticmethod
    def check_zero_gain_run(tmp_path, name):
        raw = {
            "crystal": dict(MINIMAL["crystal"]),
            "pump": {"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": 0.0},
            "grid": {"m": 16, "half_width": 0.55},
            "pipeline": name,
        }
        report = run_pipeline(config_from_dict(raw), out_dir=tmp_path)
        assert any("identically zero" in note for note in report.notes)
        assert report.summary["r1"] == 0.0
        assert "pairs_accepted" not in report.summary
        assert report.threshold_failures == []
        assert report.residuals["takagi"] == 0.0
        assert report.residuals["symplectic"] <= 1e-15
        assert (tmp_path / "spectrum.csv").exists()
        _, factors = load_spectrum(tmp_path / "spectrum.npz")
        assert isinstance(factors, twinbeam.SchmidtDecomposition)


class TestAnalyticOnly:
    """The analytic pipeline writes the model artifacts and no spectrum."""

    def test_artifacts(self, tmp_path):
        cfg = small_config(pipeline="analytic")
        report = run_pipeline(cfg, out_dir=tmp_path)
        kinds = {entry["kind"] for entry in report.artifacts}
        assert kinds == {"analytic_factors", "analytic_modes", "report"}
        assert not (tmp_path / "spectrum.csv").exists()
        assert "r1" not in report.summary
        payload = json.loads((tmp_path / "analytic_factors.json").read_text())
        assert set(payload) == {"characteristic_times", "gaussian_model", "mehler_factors"}
        assert np.allclose(payload["mehler_factors"]["q"], 0.8685, atol=5e-4, rtol=0)

    def test_modes_artifact(self, tmp_path):
        cfg = small_config(pipeline="analytic")
        run_pipeline(cfg, out_dir=tmp_path)
        header, rows = read_csv(tmp_path / "analytic_modes.csv")
        assert header == ["k", "branch", "omega", "re", "im"]
        ks = {int(r[0]) for r in rows}
        branches = {r[1] for r in rows}
        assert ks == {0, 1, 2, 3}
        assert branches == {"signal", "idler"}

    def test_modes_bytes_match_the_per_cell_writer(self, tmp_path):
        """One format per row spells what the per-cell CSV writer spells."""
        cfg = small_config(pipeline="analytic")
        model = pipeline._analytic_model(cfg)
        grid = pipeline._resolve_grid(cfg, model)
        t, _, f = model
        rows = [
            (k, branch, omega, value.real, value.imag)
            for k in range(pipeline.N_MODE_EXPORTS)
            for branch, band in (("signal", grid.signal), ("idler", grid.idler))
            for omega, value in zip(band, mehler.analytic_schmidt_mode(k, branch, f, t, band, grid.spacing))
        ]
        run_pipeline(cfg, out_dir=tmp_path)
        want = reference_csv(["k", "branch", "omega", "re", "im"], rows)
        assert (tmp_path / "analytic_modes.csv").read_bytes() == want

    @pytest.mark.parametrize(
        "theta0_deg, terms", [(28.50, 78), (28.62, 85), (28.81, 104), (28.95, 129)]
    )
    def test_derived_terms_clear_truncation_note(self, monkeypatch, tmp_path, theta0_deg, terms):
        """Each working point sums as many terms as its tail bound needs."""
        counts = []
        original = pipeline.evaluate_kernel_sum

        def counting(f, x, y, n):
            counts.append(n)
            return original(f, x, y, n)

        monkeypatch.setattr(pipeline, "evaluate_kernel_sum", counting)
        crystal = dict(MINIMAL["crystal"], theta0_deg=theta0_deg)
        report = run_pipeline(small_config(pipeline="analytic", crystal=crystal), out_dir=tmp_path)
        assert counts == [terms]
        assert report.residuals["kernel_truncation"] <= 5e-8
        assert report.notes == []

    def test_perturbed_factors_get_the_note(self, monkeypatch, tmp_path):
        """The check stays live: factors that miss the model are reported."""
        original = pipeline.mehler_factors

        def perturbed(params):
            f = original(params)
            return dataclasses.replace(f, theta=f.theta + 1e-3)

        monkeypatch.setattr(pipeline, "mehler_factors", perturbed)
        report = run_pipeline(small_config(pipeline="analytic"), out_dir=tmp_path)
        assert report.residuals["kernel_truncation"] > pipeline.KERNEL_THRESHOLD
        (note,) = report.notes
        assert "Mehler series (104 terms) and closed-form kernel disagree" in note
        assert "terms bring" not in note and "mehler_terms" not in note

    @pytest.mark.parametrize("half_width, flagged", [(1.0, False), (1.5, True), (20.0, True)])
    def test_band_past_dispersion_range_gets_a_note(self, tmp_path, half_width, flagged):
        """The numerical pipeline fails past the Sellmeier range; the analytic
        one runs on but says so, quoting the dispersion model's reason."""
        cfg = bundled_config("bbo_nondegenerate", pipeline="analytic", grid__half_width=half_width)
        report = run_pipeline(cfg, out_dir=tmp_path)
        notes = [n for n in report.notes if "outside the dispersion model's range" in n]
        assert len(notes) == int(flagged)
        if half_width == 1.5:
            assert "outside Sellmeier validity range" in notes[0]
        if half_width == 20.0:
            assert "downconverted detuning" in notes[0] and "at or below zero" in notes[0]


class TestFailures:
    """Stage labels on pipeline errors."""

    def test_auto_band_sizing_fails_past_degeneracy(self, tmp_path):
        for name in ("numerical", "near_degenerate"):
            raw = {
                "crystal": {"length_mm": 2.0, "theta0_deg": 29.4},
                "pump": dict(MINIMAL["pump"]),
                "pipeline": name,
            }
            with pytest.raises(PipelineError, match=r"\[grid\].*set grid.half_width") as info:
                run_pipeline(config_from_dict(raw), out_dir=tmp_path)
            assert info.value.stage == "grid"
            # The model's own reason is quoted, without its stage label.
            assert "(degenerate regime" in str(info.value)
            assert "[characteristic-times]" not in str(info.value)

    def test_analytic_pipeline_fails_past_degeneracy(self, tmp_path):
        for name in ("analytic", "compare"):
            raw = {
                "crystal": {"length_mm": 2.0, "theta0_deg": 29.4},
                "pump": dict(MINIMAL["pump"]),
                "pipeline": name,
            }
            with pytest.raises(PipelineError, match=r"\[characteristic-times\] degenerate regime"):
                run_pipeline(config_from_dict(raw), out_dir=tmp_path)

    def test_explicit_band_works_past_degeneracy(self, tmp_path):
        """The numerical pipeline still runs there once the band is given."""
        raw = {
            "crystal": {"length_mm": 2.0, "theta0_deg": 29.4},
            "pump": dict(MINIMAL["pump"]),
            "grid": {"m": 16, "half_width": 0.3},
            "pipeline": "near_degenerate",
        }
        report = run_pipeline(config_from_dict(raw), out_dir=tmp_path)
        assert report.summary["r1"] > 0.0

    def test_overflowing_gain_fails_in_symplectic_stage(self, tmp_path):
        """r1 ~ 478 would overflow cosh(r)^2: a labelled error, not a NaN residual."""
        raw = {
            "crystal": dict(MINIMAL["crystal"]),
            "pump": {"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": 3e4},
            "grid": {"m": 32},
            "pipeline": "numerical",
        }
        with pytest.raises(PipelineError, match=r"\[symplectic\] squeezing parameter r_max") as info:
            run_pipeline(config_from_dict(raw), out_dir=tmp_path)
        assert info.value.stage == "symplectic"

    @pytest.mark.parametrize("pipeline_name", ["numerical", "near_degenerate", "compare"])
    @pytest.mark.parametrize("gain", [1e160, 1e300])
    def test_gain_past_the_float_range_fails_in_jsa_stage(self, tmp_path, pipeline_name, gain):
        """||Gamma||_F^2 overflows: a labelled error before any NaN leakage."""
        raw = {
            "crystal": dict(MINIMAL["crystal"]),
            "pump": {"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": gain},
            "grid": {"m": 32},
            "pipeline": pipeline_name,
        }
        with pytest.raises(PipelineError, match=r"overflows double precision") as info:
            run_pipeline(config_from_dict(raw), out_dir=tmp_path)
        assert info.value.stage == "jsa-extraction"


    def test_grid_past_optical_frequency(self, tmp_path):
        """A band wider than the optical frequency is named, not a negative wavelength."""
        cfg = bundled_config(
            "bbo_nondegenerate", pipeline="numerical", grid__m=16, grid__half_width=20.0
        )
        with pytest.raises(PipelineError) as info:
            run_pipeline(cfg, out_dir=tmp_path)
        assert info.value.stage == "squeezing-matrix"
        message = str(info.value)
        assert "pump detuning -38.75 rad/fs" in message
        assert "at or below zero" in message
        assert "wavelength" not in message

    def test_unallocatable_matrix_fails_in_its_stage(self, monkeypatch, tmp_path):
        """A grid too large to allocate is a labelled stage error, not a traceback."""

        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(pipeline, "build_squeezing_matrix", unallocatable)
        with pytest.raises(PipelineError, match=r"^\[squeezing-matrix\] Unable to allocate") as info:
            run_pipeline(small_config(pipeline="numerical"), out_dir=tmp_path)
        assert info.value.stage == "squeezing-matrix"
        assert isinstance(info.value.__cause__, MemoryError)


class TestCheckPaths:
    """A failed check is recorded or raised where the run makes it."""

    def test_takagi_failure_is_recorded(self, monkeypatch, tmp_path):
        """Unitary Schmidt factors that reconstruct J wrongly fail only the Takagi check."""
        monkeypatch.setattr(
            pipeline, "schmidt_from_jsa", rotating_first_schmidt_mode(pipeline.schmidt_from_jsa)
        )
        report = run_pipeline(small_config(pipeline="numerical"), out_dir=tmp_path)
        assert report.residuals["takagi"] > pipeline.TAKAGI_THRESHOLD
        assert report.threshold_failures == ["takagi"]
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert payload["threshold_failures"] == ["takagi"]

    def test_non_unitary_factors_fail_symplectic_stage(self, monkeypatch, tmp_path):
        """A residual past SYMPLECTIC_THRESHOLD fails the stage, not the report.

        One grid row of the near_degenerate factors is stretched by 1 + 1e-10:
        the spectrum's Gram check (max|V^H V - I| <= 1e-10) still passes,
        while the squeezer built from the reported factors is not symplectic."""
        original = pipeline._takagi_unchecked
        defects = []

        def stretched(gamma):
            checked, factors = original(gamma)
            v = factors.v.copy()
            v[np.argmin((np.abs(v) ** 2).max(axis=1))] *= 1.0 + 1e-10
            defects.append(takagi._unitarity_defect(v))
            return checked, takagi.TakagiFactors(v=v, r=factors.r)

        monkeypatch.setattr(pipeline, "_takagi_unchecked", stretched)
        with pytest.raises(PipelineError, match=r"\[symplectic\] matrix is not symplectic") as info:
            run_pipeline(small_config(pipeline="near_degenerate"), out_dir=tmp_path)
        assert info.value.stage == "symplectic"
        (defect,) = defects
        assert 0.0 < defect <= 1e-10
        assert not (tmp_path / "report.json").exists()

    def test_complex_takagi_residual_is_measured_once(self, monkeypatch, tmp_path):
        """A complex Gamma's near_degenerate factors are checked by the run
        alone, on the matrix it factored: one residual, the one reported."""
        residuals = []

        def recording(a, factors):
            residuals.append(original(a, factors))
            return residuals[-1]

        original = takagi.takagi_residual
        for module in (takagi, pipeline):
            monkeypatch.setattr(module, "takagi_residual", recording)
        cfg = bundled_config(
            "bbo_nondegenerate", pipeline="near_degenerate", grid__m=32, pump__z0_fraction=0.25
        )
        report = run_pipeline(cfg, out_dir=tmp_path)
        assert residuals == [report.residuals["takagi"]]
        assert report.threshold_failures == []

    def test_complex_takagi_failure_is_recorded(self, monkeypatch, tmp_path):
        """A polar step whose unitary factor carries a stray e^{i pi/4} on its
        first column reconstructs a wrong Gamma: for a complex Gamma too this
        is the ``takagi`` threshold failure, exit 3 with report.json written,
        as the Schmidt route's ``test_takagi_failure_is_recorded``."""
        polar = takagi._polar

        def rotated(v):
            u = polar(v)
            u[:, 0] *= np.exp(0.25j * np.pi)
            return u

        monkeypatch.setattr(takagi, "_polar", rotated)
        cfg = bundled_config(
            "bbo_nondegenerate", pipeline="near_degenerate", grid__m=32, pump__z0_fraction=0.25
        )
        path = tmp_path / "run.yaml"
        path.write_text(serialize_config(cfg))
        result = CliRunner().invoke(cli.main, ["run", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        payload = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert payload["residuals"]["takagi"] > pipeline.TAKAGI_THRESHOLD
        assert payload["threshold_failures"] == ["takagi"]
        assert payload["residuals"]["symplectic"] <= pipeline.SYMPLECTIC_THRESHOLD

    @pytest.mark.parametrize("name", ["numerical", "compare"])
    def test_non_unitary_schmidt_factors_fail_symplectic_stage(self, monkeypatch, tmp_path, name):
        """One grid row of c is stretched by 1 + 1e-10: SchmidtDecomposition's
        Gram check (max|C^H C - I| <= 1e-10) still passes, while the block
        residual reads the stretch twice on the diagonal of C C^H."""
        original = pipeline.schmidt_from_jsa
        defects = []

        def stretched(jsa):
            sd = original(jsa)
            c = sd.c.copy()
            c[np.argmin((np.abs(c) ** 2).max(axis=1))] *= 1.0 + 1e-10
            defects.append(takagi._unitarity_defect(c))
            return dataclasses.replace(sd, c=c)

        monkeypatch.setattr(pipeline, "schmidt_from_jsa", stretched)
        with pytest.raises(PipelineError, match=r"\[symplectic\] matrix is not symplectic") as info:
            run_pipeline(small_config(pipeline=name), out_dir=tmp_path)
        assert info.value.stage == "symplectic"
        (defect,) = defects
        assert 0.0 < defect <= 1e-10
        assert not (tmp_path / "report.json").exists()


class TestCheckRecord:
    """Each check's residual, threshold, failure and note are written by one record."""

    RESIDUALS = {
        "numerical": ["leakage", "imag_fraction", "takagi", "symplectic"],
        "analytic": ["kernel_truncation"],
        "compare": ["kernel_truncation", "leakage", "imag_fraction", "takagi", "symplectic"],
        "near_degenerate": ["leakage", "imag_fraction", "takagi", "symplectic"],
    }

    @pytest.mark.parametrize("name", PIPELINES)
    def test_key_order(self, tmp_path, name):
        report = run_pipeline(small_config(pipeline=name), out_dir=tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        for record in (report.to_dict(), payload):
            assert list(record["residuals"]) == self.RESIDUALS[name]
            assert record["thresholds"] == {"leakage": 1e-3, "takagi": 1e-10, "symplectic": 1e-10}
            assert list(record["thresholds"]) == ["leakage", "takagi", "symplectic"]

    @pytest.mark.parametrize(
        "name, threshold, gated",
        [
            ("leakage", pipeline.LEAKAGE_THRESHOLD, True),
            ("kernel_truncation", pipeline.KERNEL_THRESHOLD, False),
        ],
        ids=["gated", "note-only"],
    )
    @pytest.mark.parametrize("where, missed", [("at", False), ("above", True), ("nan", True)])
    def test_threshold_edge(self, name, threshold, gated, where, missed):
        """A value at the threshold passes; one ulp above, or NaN, misses."""
        value = {"at": threshold, "above": np.nextafter(threshold, np.inf), "nan": np.nan}[where]
        report = pipeline.RunReport("numerical", {})
        pipeline._check(report, name, value, "missed", *(() if gated else (threshold,)))
        assert list(report.residuals) == [name]
        np.testing.assert_equal(report.residuals[name], float(value))
        assert report.notes == (["missed"] if missed else [])
        assert report.threshold_failures == ([name] if missed and gated else [])

    def test_nan_residual_is_null_in_strict_json(self, monkeypatch, tmp_path):
        """report.json stays strict JSON: a NaN residual is written as null and still fails."""
        extract = pipeline.extract_jsa
        monkeypatch.setattr(
            pipeline, "extract_jsa", lambda sq: dataclasses.replace(extract(sq), leakage=np.nan)
        )
        report = run_pipeline(small_config(pipeline="numerical"), out_dir=tmp_path)
        assert np.isnan(report.residuals["leakage"])
        assert report.threshold_failures == ["leakage"]
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        payload = json.loads(text, parse_constant=_reject_constant)
        assert payload == report.to_dict()
        assert payload["residuals"]["leakage"] is None
        assert list(payload["residuals"]) == self.RESIDUALS["numerical"]
        assert payload["threshold_failures"] == ["leakage"]


class TestSmallGrids:
    """m = 1, 2, 3 run in every pipeline; a one-point band's analytic modes
    take the grid spacing."""

    @pytest.mark.parametrize("name", ["numerical", "analytic", "compare", "near_degenerate"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_grid(self, tmp_path, m, name):
        cfg = small_config(pipeline=name, grid={"m": m})
        report = run_pipeline(cfg, out_dir=tmp_path)
        assert (tmp_path / "report.json").exists()
        if name in ("analytic", "compare"):
            _, rows = read_csv(tmp_path / "analytic_modes.csv")
            assert len(rows) == pipeline.N_MODE_EXPORTS * 2 * m
        if name == "compare":
            # Overlaps cover the first min(4, m) Schmidt modes.
            _, rows = read_csv(tmp_path / "mode_overlaps.csv")
            assert [(int(r[0]), r[1]) for r in rows] == [
                (k, branch) for k in range(min(4, m)) for branch in ("signal", "idler")
            ]
            assert "mode_overlap_signal_k0" in report.summary


class TestPeakMemory:
    """Each stage result is dropped after its last reader: a compare run held
    13.8 Gammas at once when both factorization routes stayed live.  At
    m = 128 the traced peak of this run reads 2.23 Gammas for a real
    Gamma and 2.54 for a complex one, both in the JSA SVD (2.09 and 2.51
    at m = 256).  No run builds the 2m x 2m duo modes, which a run that
    wrote them to ``spectrum.json`` peaked in (4.54 and 3.77 at m = 256);
    ``spectrum.npz`` stores the Schmidt factors the run already holds."""

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_traced_peak_stays_within_twelve_gammas(self, monkeypatch, tmp_path, z0_fraction):
        sizes = []
        build = pipeline.build_squeezing_matrix

        def recording(*args):
            sq = build(*args)
            sizes.append(sq.gamma.nbytes)
            return sq

        monkeypatch.setattr(pipeline, "build_squeezing_matrix", recording)
        cfg = bundled_config("bbo_nondegenerate", grid__m=128, pump__z0_fraction=z0_fraction)
        tracemalloc.start()
        try:
            run_pipeline(cfg, out_dir=tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (gamma_bytes,) = sizes
        assert peak <= 12 * gamma_bytes


class TestSharedModelAndGrid:
    """One analytic model and one grid per run, handed to every stage."""

    @pytest.mark.parametrize("name", ["numerical", "analytic", "compare", "near_degenerate"])
    @pytest.mark.parametrize("band", [{"m": 16}, {"m": 16, "half_width": 0.55}])
    def test_model_and_grid_built_once(self, monkeypatch, tmp_path, name, band):
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for fn in (
            pipeline.characteristic_times,
            pipeline.gaussian_model_params,
            pipeline.mehler_factors,
            pipeline.build_frequency_grid,
        ):
            monkeypatch.setattr(pipeline, fn.__name__, counting(fn))
        # Every module binding of the dispersion derivatives.
        derivatives = counting(pdc.wave_vector_derivatives)
        for module in (pdc, mehler):
            monkeypatch.setattr(module, "wave_vector_derivatives", derivatives)
        run_pipeline(small_config(pipeline=name, grid=band), out_dir=tmp_path)
        needs_model = name in ("analytic", "compare") or "half_width" not in band
        for model_step in ("characteristic_times", "gaussian_model_params", "mehler_factors"):
            assert calls.count(model_step) == int(needs_model)
        # Pump and downconverted derivatives at zero detuning, once per model.
        assert calls.count("wave_vector_derivatives") == 2 * int(needs_model)
        assert calls.count("build_frequency_grid") == 1


class TestSymplecticCheck:
    """The symplectic residual is computed once per run."""

    def test_one_residual_per_numerical_run(self, monkeypatch, tmp_path):
        calls = []
        original = symplectic.schmidt_squeezer_residual

        def counting(sd):
            calls.append(sd.c.shape[0])
            return original(sd)

        monkeypatch.setattr(symplectic, "schmidt_squeezer_residual", counting)
        # Also the binding imported by name into the pipeline module.
        monkeypatch.setattr(pipeline, "schmidt_squeezer_residual", counting)
        report = run_pipeline(small_config(pipeline="numerical"), out_dir=tmp_path)
        assert calls == [16]
        assert report.residuals["symplectic"] <= 1e-10


class TestRealGamma:
    """Transform-limited pumps at z0 = L/2 give an exactly real Gamma."""

    @pytest.mark.parametrize("m", [16, 64])
    @pytest.mark.parametrize(
        "name, theta0_deg",
        [
            ("bbo_nondegenerate", None),
            ("bbo_near_degenerate", None),
            ("bbo_nondegenerate", 28.50),
            ("bbo_nondegenerate", 28.71),
            ("bbo_nondegenerate", 28.95),
        ],
    )
    def test_gamma_and_imag_fraction(self, monkeypatch, tmp_path, name, theta0_deg, m):
        built = keep_built_gamma(monkeypatch)
        overrides = {"grid__m": m}
        if theta0_deg is not None:
            overrides["crystal__theta0_deg"] = theta0_deg
        report = run_pipeline(bundled_config(name, **overrides), out_dir=tmp_path)
        (sq,) = built
        assert not np.any(sq.gamma.imag)
        assert report.residuals["imag_fraction"] == 0.0
        with np.load(tmp_path / "squeezing_matrix.npz") as data:
            assert data["gamma"].dtype == np.float64


def complex_build(crystal, pump, grid, per_cell_sums=False):
    """Gamma by the all-complex formula: Delta = k_p - (k_j + k_l),
    e^{i Delta (L/2 - z0)} at every z0, the factor -i, then the unit phase
    p / |p| of the peak by numpy's complex division, which multiplies by the
    reciprocal 1 / |p|, and + 0.0 for the sign of every zero.  The sum
    detunings are the grid's exact sums, evaluated before the band, or with
    ``per_cell_sums`` fl(O_j) + fl(O_l) formed per cell."""
    om = grid.detunings
    osum = om[:, None] + om[None, :] if per_cell_sums else grid_sums(grid)
    kp = pdc.wave_vector(osum, "pump", crystal, pump)
    k = pdc.wave_vector(grid.detunings, "downconverted", crystal, pump)
    delta = kp - (k[:, None] + k[None, :])
    length = crystal.length_mm
    gamma = (
        pump.gain
        * pdc.pump_spectrum(osum, pump, crystal).astype(complex)
        * np.exp(1j * delta * (0.5 * length - pump.z0_fraction * length))
        * np.sinc(0.5 * delta * length / np.pi)
        * grid.spacing
    )
    gamma = -1j * gamma
    peak = gamma.flat[np.argmax(np.abs(gamma))]
    return gamma * (peak / abs(peak)).conjugate() + 0.0


def bundled_working_point(name, m, **pump):
    """(crystal, pump, grid) of a bundled config, its band sized as a run sizes it."""
    cfg = bundled_config(name, grid__m=m, **{f"pump__{k}": v for k, v in pump.items()})
    grid = pipeline._resolve_grid(cfg, pipeline._analytic_model(cfg))
    return cfg.crystal, cfg.pump, grid


BUNDLED = ["bbo_nondegenerate", "bbo_near_degenerate"]
COMPLEX_PUMPS = [{"z0_fraction": 0.25}, {"prechirp_compensated": False}]


class TestMatrixDtypes:
    """A real Gamma is float64 from the build through the JSA, the block and
    the Schmidt factors; a complex one is complex128.  Mode matrices are
    complex128 either way."""

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize(
        "pump, dtype",
        [({}, np.float64)] + [(kw, np.complex128) for kw in COMPLEX_PUMPS],
        ids=["real", "z0-quarter", "no-prechirp"],
    )
    def test_dtypes(self, name, pump, dtype):
        sq = pdc.build_squeezing_matrix(*bundled_working_point(name, 16, **pump))
        jsa = pdc.extract_jsa(sq).jsa
        block = twinbeam.block_squeezing_matrix(jsa)
        sd = twinbeam.schmidt_from_jsa(jsa)
        for array in (sq.gamma, jsa.j_matrix, block, sd.c, sd.d):
            assert array.dtype == dtype
        assert twinbeam.eigenmodes_from_schmidt(sd).modes.dtype == np.complex128
        assert twinbeam.associated_spectral(block).modes.dtype == np.complex128
        assert takagi.takagi_general(sq.gamma).v.dtype == np.complex128


class TestBuildMatchesComplexFormula:
    """The build equals the all-complex formula: bit for bit (as uint64, so
    the sign of a zero counts) where Gamma is real, and to rounding where it
    is complex."""

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("m", [None, 256], ids=["default-m", "m256"])
    def test_real_gamma_is_bitwise(self, name, m):
        m = m or parse_config(name).grid.m
        point = bundled_working_point(name, m)
        gamma = pdc.build_squeezing_matrix(*point).gamma
        ref = complex_build(*point)
        assert gamma.dtype == np.float64
        assert np.array_equal(ref.imag.view(np.uint64), np.zeros(ref.shape, np.uint64))
        assert np.array_equal(gamma.view(np.uint64), ref.real.view(np.uint64))

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("pump", COMPLEX_PUMPS, ids=["z0-quarter", "no-prechirp"])
    def test_complex_gamma_within_rounding(self, name, pump):
        point = bundled_working_point(name, 64, **pump)
        gamma = pdc.build_squeezing_matrix(*point).gamma
        ref = complex_build(*point)
        assert gamma.dtype == np.complex128
        assert np.abs(gamma - ref).max() <= 1e-15 * np.abs(ref).max()


class TestGridSums:
    """The grid's exact sums (j + l + 1 - 2m) h differ from fl(O_j) + fl(O_l)
    by up to one ulp, which moves k_p by about one ulp (3.6e-12 rad/mm) and
    Gamma by that times L/2 through the sinc and the e^{i Delta (L/2 - z0)}
    factor.  The worst case measured over these points is 2.0e-12 of
    max|Gamma| (near-degenerate band, chirped pump at z0 = 0)."""

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize(
        "pump",
        [{}] + COMPLEX_PUMPS + [{"z0_fraction": 0.0, "prechirp_compensated": False}],
        ids=["real", "z0-quarter", "no-prechirp", "no-prechirp-z0-zero"],
    )
    def test_build_moves_only_at_rounding(self, name, pump):
        point = bundled_working_point(name, parse_config(name).grid.m, **pump)
        gamma = pdc.build_squeezing_matrix(*point).gamma
        ref = complex_build(*point, per_cell_sums=True)
        assert np.abs(gamma - ref).max() <= 3e-12 * np.abs(ref).max()


class TestValuesOnlySpectrum:
    """No run builds duo modes: the Schmidt route's spectrum is the
    duplicated Schmidt values, and ``spectrum.npz`` stores the factors the
    modes are built from.  The duos are unitary whenever the Schmidt
    factors are, which the Schmidt decomposition checks to 1e-10."""

    @pytest.mark.parametrize("name", PIPELINES)
    def test_no_run_builds_duo_modes(self, monkeypatch, tmp_path, name):
        def refusing(sd):
            raise AssertionError("a run built the duo modes")

        monkeypatch.setattr(twinbeam, "eigenmodes_from_schmidt", refusing)
        report = run_pipeline(small_config(pipeline=name), out_dir=tmp_path)
        assert (tmp_path / "spectrum.npz").exists() == (name != "analytic")
        if name != "analytic":
            assert report.summary["all_paired"]
            assert (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["z0-half", "z0-quarter"])
    @pytest.mark.parametrize("name", ["numerical", "compare"])
    @pytest.mark.parametrize("config", BUNDLED)
    def test_tables_equal_those_of_the_duo_modes(self, tmp_path, config, name, z0_fraction):
        """The duo modes built from the stored factors pair, report and
        tabulate exactly as the run's values-only spectrum."""
        cfg = bundled_config(config, pipeline=name, pump__z0_fraction=z0_fraction)
        report = run_pipeline(cfg, out_dir=tmp_path / "run")
        omega, sd = load_spectrum(tmp_path / "run" / "spectrum.npz")
        duos = twinbeam.eigenmodes_from_schmidt(sd)
        pairing = twinbeam.pair_eigenvalues(duos, cfg.pairing_tol)
        assert report.summary["r1"] == float(duos.values[0])
        assert report.summary["pairs_accepted"] == pairing.n_pairs
        assert report.summary["first_failure_index"] == pairing.first_failure_index
        assert report.summary["all_paired"] == pairing.all_paired
        (tmp_path / "duos").mkdir()
        table, _ = export_spectrum(duos, sd, omega, tmp_path / "duos" / "spectrum", pairing)
        assert table.read_bytes() == (tmp_path / "run" / "spectrum.csv").read_bytes()


HEATMAP_POINTS = [
    ("bbo_nondegenerate", 0.5),
    ("bbo_near_degenerate", 0.5),
    ("bbo_nondegenerate", 0.25),
]


class TestStoredGamma:
    """A run stores its Gamma exactly in ``squeezing_matrix.npz``."""

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["float64", "complex128"])
    def test_npz_is_the_built_gamma(self, monkeypatch, tmp_path, z0_fraction):
        built = keep_built_gamma(monkeypatch)
        cfg = bundled_config("bbo_nondegenerate", grid__m=8, pump__z0_fraction=z0_fraction)
        report = run_pipeline(cfg, out_dir=tmp_path)
        (sq,) = built
        with np.load(tmp_path / "squeezing_matrix.npz") as data:
            gamma, omega = data["gamma"], data["omega"]
        assert gamma.dtype == sq.gamma.dtype == (np.float64 if z0_fraction == 0.5 else np.complex128)
        assert np.array_equal(gamma.view(np.uint64), sq.gamma.view(np.uint64))
        assert np.array_equal(omega.view(np.uint64), sq.grid.detunings.view(np.uint64))
        # Stored first, listed right after the spectrum files.
        kinds = [entry["kind"] for entry in report.artifacts]
        at = kinds.index("squeezing_matrix")
        assert kinds[at - 1] == "spectrum"
        assert report.artifacts[at]["path"] == "squeezing_matrix.npz"
        assert not (tmp_path / "squeezing_matrix.csv").exists()

    def test_identical_runs_give_the_same_npz(self, tmp_path):
        cfg = bundled_config("bbo_nondegenerate", grid__m=8, pump__z0_fraction=0.25)
        digests = set()
        for run in ("a", "b"):
            run_pipeline(cfg, out_dir=tmp_path / run)
            data = (tmp_path / run / "squeezing_matrix.npz").read_bytes()
            digests.add(hashlib.sha256(data).hexdigest())
        assert len(digests) == 1


class TestStoredSpectrum:
    """Every spectrum run stores its own factors in ``spectrum.npz``: Schmidt
    factors of Gamma's dtype on the Schmidt route, complex128 Takagi factors
    in near_degenerate, with the detunings signal band first and the values
    of ``spectrum.csv``."""

    @pytest.mark.parametrize("name", ["numerical", "compare", "near_degenerate"])
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_factors_match_the_run(self, tmp_path, name, z0_fraction):
        cfg = bundled_config("bbo_nondegenerate", pipeline=name, grid__m=16, pump__z0_fraction=z0_fraction)
        report = run_pipeline(cfg, out_dir=tmp_path)
        omega, factors = load_spectrum(tmp_path / "spectrum.npz")
        with np.load(tmp_path / "squeezing_matrix.npz") as data:
            assert np.array_equal(omega, np.roll(data["omega"], 16))
        if name == "near_degenerate":
            assert factors.v.dtype == np.complex128
            values = factors.r
        else:
            dtype = np.float64 if z0_fraction == 0.5 else np.complex128
            assert factors.c.dtype == factors.d.dtype == dtype
            values = np.repeat(factors.values, 2)
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert [float(row[1]) for row in rows] == values.tolist()
        assert values[0] == report.summary["r1"]
        paths = [entry["path"] for entry in report.artifacts]
        at = paths.index("spectrum.csv")
        assert paths[at : at + 3] == ["spectrum.csv", "spectrum.npz", "squeezing_matrix.npz"]


class TestHeatmapBytes:
    """``twinbeams heatmap`` writes the per-cell writer's output for the run's own Gamma."""

    @pytest.mark.parametrize("name, z0_fraction", HEATMAP_POINTS)
    def test_matches_per_cell_writer(self, monkeypatch, tmp_path, name, z0_fraction):
        built = keep_built_gamma(monkeypatch)
        cfg = bundled_config(name, grid__m=8, pump__z0_fraction=z0_fraction)
        run_pipeline(cfg, out_dir=tmp_path / "run")
        (sq,) = built
        # Bitwise symmetric, so the Takagi routes take it as it is.
        for part in (sq.gamma.real, sq.gamma.imag):
            assert np.array_equal(part.view(np.uint64), part.T.view(np.uint64))
        assert np.any(sq.gamma.imag) == (z0_fraction != 0.5)
        result = CliRunner().invoke(cli.main, ["heatmap", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        w = sq.grid.detunings
        want = per_cell_heatmap(sq.gamma, w, w, tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "run" / "squeezing_matrix.csv").read_bytes() == want


class TestSymplecticPath:
    """No exponential is built, and only near_degenerate factors Gamma: with
    the unchecked step of ``takagi_general``, on the real path when Gamma is
    real.  Numerical and compare runs check the Schmidt factors of their duos
    in m x m blocks."""

    @pytest.mark.parametrize("name", ["numerical", "compare", "near_degenerate"])
    @pytest.mark.parametrize(
        "z0_fraction, expected",
        [
            (0.5, {"general": 1, "real": 1, "exp": 0}),
            (0.25, {"general": 1, "real": 0, "exp": 0}),
        ],
    )
    def test_call_counts(self, monkeypatch, tmp_path, name, z0_fraction, expected):
        calls = {"general": 0, "real": 0, "exp": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            symplectic, "exponentiate_generator", counting("exp", symplectic.exponentiate_generator)
        )
        monkeypatch.setattr(takagi, "takagi_general", counting("general", takagi.takagi_general))
        monkeypatch.setattr(
            pipeline, "_takagi_unchecked", counting("general", takagi._takagi_unchecked)
        )
        monkeypatch.setattr(
            takagi, "takagi_real_symmetric", counting("real", takagi.takagi_real_symmetric)
        )
        cfg = bundled_config(
            "bbo_nondegenerate", pipeline=name, grid__m=16, pump__z0_fraction=z0_fraction
        )
        report = run_pipeline(cfg, out_dir=tmp_path)
        factored = name == "near_degenerate"
        assert calls == {key: count * factored for key, count in expected.items()}
        assert report.residuals["symplectic"] <= 1e-14

    @pytest.mark.parametrize("name", ["numerical", "compare"])
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_no_two_band_matrix(self, monkeypatch, tmp_path, z0_fraction, name):
        """The Schmidt route builds no 2m x 2m target or squeezer: a run whose
        every binding of those builders raises still completes."""

        def refused(*args, **kwargs):
            raise AssertionError("2m x 2m check called")

        for module in (symplectic, takagi, twinbeam, pipeline):
            for fn in ("squeezer_from_takagi", "takagi_residual", "block_squeezing_matrix"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refused)
        cfg = bundled_config(
            "bbo_nondegenerate", pipeline=name, grid__m=32, pump__z0_fraction=z0_fraction
        )
        report = run_pipeline(cfg, out_dir=tmp_path)
        assert report.threshold_failures == []
        assert report.residuals["takagi"] <= 1e-14
        assert report.residuals["symplectic"] <= 1e-14


def stored_factors(out):
    """The factors a run stored in its ``spectrum.npz``."""
    return load_spectrum(Path(out) / "spectrum.npz")[1]


def reported_residuals(report, out):
    """The symplectic residual of the returned report and of ``report.json``."""
    payload = json.loads((Path(out) / "report.json").read_text(encoding="utf-8"))
    return report.residuals["symplectic"], payload["residuals"]["symplectic"]


class TestSymplecticFromSpectrum:
    """The symplectic residual checks the factors the run stores in
    ``spectrum.npz``, bit for bit: a near_degenerate run's is the residual of
    the squeezer rebuilt from its (V, R), a numerical or compare run's the
    block residual of its (C, R, D), within 1e-14 of the squeezer of the
    duo modes built from them.  Numerical and compare runs make no
    eigendecomposition."""

    @pytest.mark.parametrize("name", ["numerical", "compare"])
    @pytest.mark.parametrize("m", [16, 64])
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_without_eigh(self, monkeypatch, tmp_path, z0_fraction, m, name):
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        cfg = bundled_config(
            "bbo_nondegenerate", pipeline=name, grid__m=m, pump__z0_fraction=z0_fraction
        )
        report = run_pipeline(cfg, out_dir=tmp_path)
        sd = stored_factors(tmp_path)
        rebuilt = symplectic.schmidt_squeezer_residual(sd)
        assert reported_residuals(report, tmp_path) == (rebuilt, rebuilt)
        spectrum = twinbeam.eigenmodes_from_schmidt(sd)
        duos = symplectic.squeezer_from_takagi(takagi.TakagiFactors(spectrum.modes, spectrum.values))
        assert abs(duos.residual - rebuilt) <= 1e-14

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_near_degenerate(self, tmp_path, z0_fraction):
        cfg = bundled_config("bbo_near_degenerate", grid__m=64, pump__z0_fraction=z0_fraction)
        report = run_pipeline(cfg, out_dir=tmp_path)
        rebuilt = symplectic.squeezer_from_takagi(stored_factors(tmp_path))
        assert reported_residuals(report, tmp_path) == (rebuilt.residual, rebuilt.residual)


class TestAnalysisFromStoredFiles:
    """Pointed at a finished run, the run's analysis reads Gamma from its
    ``squeezing_matrix.npz`` and the factors from its ``spectrum.npz``, builds
    and factors nothing, and rewrites every artifact byte for byte."""

    @pytest.mark.parametrize(
        "config, name",
        [
            ("bbo_nondegenerate", "numerical"),
            ("bbo_nondegenerate", "compare"),
            ("bbo_near_degenerate", "near_degenerate"),
        ],
    )
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_rewrites_every_artifact(self, monkeypatch, tmp_path, config, name, z0_fraction):
        cfg = bundled_config(config, pipeline=name, grid__m=32, pump__z0_fraction=z0_fraction)
        run = tmp_path / "run"
        report = run_pipeline(cfg, out_dir=run)

        def refused(*args):
            raise AssertionError("the analysis built or factored")

        for fn in ("build_squeezing_matrix", "schmidt_from_jsa", "_takagi_unchecked"):
            monkeypatch.setattr(pipeline, fn, refused)
        again = pipeline._run(cfg, tmp_path / "again", run)
        assert again.to_dict() == report.to_dict()
        assert artifact_bytes(tmp_path / "again") == artifact_bytes(run)
        assert len(artifact_bytes(run)) == len(report.artifacts)

    def test_files_of_another_grid_fail_the_matrix_stage(self, tmp_path):
        run = tmp_path / "run"
        run_pipeline(small_config(), out_dir=run)
        with pytest.raises(PipelineError) as info:
            pipeline._run(small_config(grid={"m": 8, "half_width": 0.55}), tmp_path / "again", run)
        assert info.value.stage == "squeezing-matrix"


def former_symplectic_residual(factors):
    """The 2m x 2m symplectic residual by its former formula: blocks cast to
    complex128, then back to contiguous real parts when both imaginary parts
    are zero."""
    w, imag = takagi._real_basis(factors.v)
    sinh = np.sinh(factors.r)
    s0 = ((w * np.cosh(factors.r)) @ w.conj().T).astype(complex)
    sI = ((w * np.where(imag, -sinh, sinh)) @ w.T).astype(complex)
    if not (np.any(s0.imag) or np.any(sI.imag)):
        s0, sI = np.ascontiguousarray(s0.real), np.ascontiguousarray(sI.real)
    top_left = s0 @ s0.conj().T - sI @ sI.conj().T
    top_left[np.diag_indices_from(top_left)] -= 1.0
    x = s0 @ sI.T
    res = max(np.abs(top_left).max(), np.abs(x - x.T).max())
    return float(res / max(np.abs(s0).max() ** 2, np.abs(sI).max() ** 2, 1.0))


def keep_schmidt(monkeypatch):
    """A list that collects each Schmidt decomposition the pipeline makes."""
    kept = []
    original = pipeline.schmidt_from_jsa

    def keeping(jsa):
        kept.append(original(jsa))
        return kept[-1]

    monkeypatch.setattr(pipeline, "schmidt_from_jsa", keeping)
    return kept


class TestSymplecticResidualUnchanged:
    """A real Gamma keeps float64 Schmidt factors, so the block residual runs
    in real arithmetic; the run stores its factors bit for bit, its residual
    is bitwise the block residual of the stored factors, and within 1e-14 of
    the 2m x 2m complex-copy formula applied to its duos."""

    @pytest.mark.parametrize("m", [16, 64])
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
    def test_bitwise(self, monkeypatch, tmp_path, z0_fraction, m):
        kept = keep_schmidt(monkeypatch)
        cfg = bundled_config("bbo_nondegenerate", grid__m=m, pump__z0_fraction=z0_fraction)
        report = run_pipeline(cfg, out_dir=tmp_path)
        (sd,) = kept
        dtype = np.float64 if z0_fraction == 0.5 else np.complex128
        assert sd.c.dtype == sd.d.dtype == dtype
        stored = stored_factors(tmp_path)
        for got, want in ((stored.c, sd.c), (stored.d, sd.d), (stored.values, sd.values)):
            assert got.dtype == want.dtype
            assert np.array_equal(
                np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
            )
        rebuilt = symplectic.schmidt_squeezer_residual(stored)
        assert reported_residuals(report, tmp_path) == (rebuilt, rebuilt)
        spectrum = twinbeam.eigenmodes_from_schmidt(sd)
        former = former_symplectic_residual(takagi.TakagiFactors(spectrum.modes, spectrum.values))
        assert abs(rebuilt - former) <= 1e-14


class TestBlochMessiah:
    """The Bloch-Messiah reduction of the squeezer of each run's factors: the
    near_degenerate run's own squeezer, and the 2m x 2m squeezer of the duos
    built from a numerical run's Schmidt factors."""

    @pytest.mark.parametrize("m", [64, 128])
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25])
    @pytest.mark.parametrize("name", ["bbo_nondegenerate", "bbo_near_degenerate"])
    def test_reduces_pipeline_squeezer(self, monkeypatch, tmp_path, name, z0_fraction, m):
        kept = []
        if name == "bbo_near_degenerate":
            original = pipeline.squeezer_from_takagi

            def keeping(factors):
                kept.append((factors, original(factors)))
                return kept[-1][1]

            monkeypatch.setattr(pipeline, "squeezer_from_takagi", keeping)
        else:
            schmidt = keep_schmidt(monkeypatch)
        cfg = bundled_config(name, grid__m=m, pump__z0_fraction=z0_fraction)
        run_pipeline(cfg, out_dir=tmp_path)
        if name == "bbo_nondegenerate":
            (sd,) = schmidt
            spectrum = twinbeam.eigenmodes_from_schmidt(sd)
            factors = takagi.TakagiFactors(spectrum.modes, spectrum.values)
            kept.append((factors, symplectic.squeezer_from_takagi(factors)))
        ((factors, s),) = kept
        bm = symplectic.bloch_messiah(s)
        assert np.allclose(bm.r, factors.r, atol=1e-10 * factors.r[0], rtol=0)
        n = s.n
        assert np.abs(bm.v.conj().T @ bm.v - np.eye(n)).max() <= 1e-10
        assert np.abs(bm.q.conj().T @ bm.q - np.eye(n)).max() <= 1e-10


def _reject_constant(name):
    raise AssertionError(f"report.json holds {name}")


@pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["real-gamma", "complex-gamma"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(m=st.integers(8, 16), gain=st.one_of(st.just(0.0), st.floats(1.0, 1e5)))
@example(m=16, gain=0.0)
@example(m=16, gain=11675.0)  # r_max = 354.87, just under the overflow bound
@example(m=8, gain=1e5)
def test_gain_edges(z0_fraction, m, gain):
    """Any gain either passes the symplectic check or fails in its stage naming
    r_max; no report ever holds NaN or Infinity."""
    cfg = bundled_config(
        "bbo_nondegenerate", grid__m=m, pump__gain=gain, pump__z0_fraction=z0_fraction
    )
    with tempfile.TemporaryDirectory() as out:
        try:
            report = run_pipeline(cfg, out_dir=out)
        except PipelineError as err:
            assert err.stage == "symplectic"
            assert "squeezing parameter r_max" in str(err)
            return
        assert np.isfinite(report.residuals["symplectic"])
        assert report.residuals["symplectic"] <= 1e-10
        text = (Path(out) / "report.json").read_text(encoding="utf-8")
        json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    length_mm=st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
    theta0_deg=st.floats(24.0, 32.0),
    tau_p_fs=st.floats(0.0, 3.0).map(lambda e: 10.0**e),
    gain=st.one_of(st.just(0.0), st.floats(1e-2, 1e3)),
    z0_fraction=st.floats(0.0, 1.0),
    prechirp=st.booleans(),
    name=st.sampled_from(PIPELINES),
    m=st.integers(1, 8),
    half_width=st.one_of(st.none(), st.floats(0.01, 1.0)),
)
# The Mehler consistency checks fail: a 1000 mm crystal under the bundled pump,
# and a 50 mm crystal under a chirped 1.5 fs pump.
@example(
    length_mm=1000.0, theta0_deg=28.81, tau_p_fs=129.0, gain=10.0, z0_fraction=0.5,
    prechirp=True, name="compare", m=8, half_width=None,
)
@example(
    length_mm=50.0, theta0_deg=28.81, tau_p_fs=1.5, gain=10.0, z0_fraction=0.5,
    prechirp=False, name="numerical", m=8, half_width=None,
)
def test_every_run_reports_or_names_its_stage(
    length_mm, theta0_deg, tau_p_fs, gain, z0_fraction, prechirp, name, m, half_width
):
    """A valid config either gives a report or fails with a stage label;
    nothing else escapes run_pipeline."""
    raw = {
        "crystal": {"length_mm": length_mm, "theta0_deg": theta0_deg},
        "pump": {
            "lambda_p_nm": 397.5,
            "tau_p_fs": tau_p_fs,
            "gain": gain,
            "z0_fraction": z0_fraction,
            "prechirp_compensated": prechirp,
        },
        "grid": {"m": m, "half_width": half_width},
        "pipeline": name,
    }
    with tempfile.TemporaryDirectory() as out:
        try:
            report = run_pipeline(config_from_dict(raw), out_dir=out)
        except PipelineError as err:
            assert str(err).startswith(f"[{err.stage}] ")
            return
    assert report.pipeline == name


class TestOutputDir:
    """Resolution order: argument, config, environment, CWD."""

    def test_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "env"))
        cfg = small_config(output={"directory": str(tmp_path / "cfg")})
        assert resolve_output_dir(cfg, tmp_path / "arg") == tmp_path / "arg"

    def test_config_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "env"))
        cfg = small_config(output={"directory": str(tmp_path / "cfg")})
        assert resolve_output_dir(cfg) == tmp_path / "cfg"

    def test_environment_beats_cwd(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "env"))
        assert resolve_output_dir(small_config()) == tmp_path / "env"

    def test_cwd_fallback(self, monkeypatch):
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        from pathlib import Path

        assert resolve_output_dir(small_config()) == Path.cwd()
