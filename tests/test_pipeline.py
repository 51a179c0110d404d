"""End-to-end tests of the run pipelines and their artifacts."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinbeams.symplectic as symplectic
import twinbeams.takagi as takagi
from twinbeams.io import (
    ENV_OUTPUT_DIR,
    PipelineError,
    config_from_dict,
    config_to_dict,
    parse_config,
    pipeline,
    resolve_output_dir,
    run_pipeline,
)

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
        report = compare_run[0]
        assert np.allclose(report.residuals["kernel_truncation"], 1.2856e-6, atol=2e-8, rtol=0)
        assert any("Mehler series truncated" in note for note in report.notes)
        assert any("(104 terms bring its tail bound under 1e-6)" in note for note in report.notes)

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
        for name in ("report.json", "spectrum.csv", "mode_overlaps.csv"):
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


class TestZeroGain:
    """gain = 0 short-circuits gracefully."""

    def test_zero_matrix_notes(self, tmp_path):
        raw = {
            "crystal": dict(MINIMAL["crystal"]),
            "pump": {"lambda_p_nm": 397.5, "tau_p_fs": 129.0, "gain": 0.0},
            "grid": {"m": 16, "half_width": 0.55},
        }
        report = run_pipeline(config_from_dict(raw), out_dir=tmp_path)
        assert any("identically zero" in note for note in report.notes)
        assert report.summary["r1"] == 0.0
        assert "pairs_accepted" not in report.summary
        assert report.threshold_failures == []
        assert (tmp_path / "spectrum.csv").exists()


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

    def test_raising_terms_clears_truncation_note(self, tmp_path):
        cfg = small_config(pipeline="analytic", mehler_terms=120)
        report = run_pipeline(cfg, out_dir=tmp_path)
        assert report.residuals["kernel_truncation"] <= 1e-6
        assert not any("Mehler series" in note for note in report.notes)


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


class TestSmallGrids:
    """m = 1, 2, 3 either run or fail with a stage label, never a bare error."""

    @pytest.mark.parametrize("name", ["numerical", "analytic", "compare", "near_degenerate"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_grid(self, tmp_path, m, name):
        cfg = small_config(pipeline=name, grid={"m": m})
        try:
            report = run_pipeline(cfg, out_dir=tmp_path)
        except PipelineError as err:
            # m = 1 leaves the analytic modes a single sample per band.
            assert (m, err.stage) == (1, "analytic-modes")
            assert name in ("analytic", "compare")
            assert "1-D detuning array" in str(err)
            return
        assert (tmp_path / "report.json").exists()
        if name == "compare":
            # Overlaps cover the first min(4, m) Schmidt modes.
            _, rows = read_csv(tmp_path / "mode_overlaps.csv")
            assert [(int(r[0]), r[1]) for r in rows] == [
                (k, branch) for k in range(min(4, m)) for branch in ("signal", "idler")
            ]
            assert "mode_overlap_signal_k0" in report.summary


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
        run_pipeline(small_config(pipeline=name, grid=band), out_dir=tmp_path)
        needs_model = name in ("analytic", "compare") or "half_width" not in band
        for model_step in ("characteristic_times", "gaussian_model_params", "mehler_factors"):
            assert calls.count(model_step) == int(needs_model)
        assert calls.count("build_frequency_grid") == 1

    @pytest.mark.parametrize("name", ["analytic", "compare"])
    def test_inconsistent_band_fails_before_any_artifact(self, tmp_path, name):
        cfg = small_config(pipeline=name, grid={"m": 16, "half_width": 0.5, "window_T": 10.0})
        with pytest.raises(PipelineError, match=r"\[grid\] inconsistent grid"):
            run_pipeline(cfg, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestSymplecticCheck:
    """The symplectic residual is computed once per run."""

    def test_one_residual_per_numerical_run(self, monkeypatch, tmp_path):
        calls = []
        original = symplectic.symplectic_residual

        def counting(s):
            calls.append(s.n)
            return original(s)

        monkeypatch.setattr(symplectic, "symplectic_residual", counting)
        # Also any binding imported by name into the pipeline module.
        monkeypatch.setattr(pipeline, "symplectic_residual", counting, raising=False)
        report = run_pipeline(small_config(pipeline="numerical"), out_dir=tmp_path)
        assert calls == [32]
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
        built = []
        original = pipeline.build_squeezing_matrix

        def keeping(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(pipeline, "build_squeezing_matrix", keeping)
        overrides = {"grid__m": m}
        if theta0_deg is not None:
            overrides["crystal__theta0_deg"] = theta0_deg
        report = run_pipeline(bundled_config(name, **overrides), out_dir=tmp_path)
        (sq,) = built
        assert not np.any(sq.gamma.imag)
        assert report.residuals["imag_fraction"] == 0.0
        _, rows = read_csv(tmp_path / "squeezing_matrix.csv")
        assert {row[3] for row in rows} == {"0"}


class TestSymplecticPath:
    """A real Gamma is factored once; a complex one goes through the exponential."""

    @pytest.mark.parametrize("name", ["numerical", "compare"])
    @pytest.mark.parametrize(
        "z0_fraction, expected", [(0.5, {"exp": 0, "takagi": 1}), (0.25, {"exp": 1, "takagi": 0})]
    )
    def test_call_counts(self, monkeypatch, tmp_path, name, z0_fraction, expected):
        calls = {"exp": 0, "takagi": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        exp = counting("exp", symplectic.exponentiate_generator)
        real = counting("takagi", takagi.takagi_real_symmetric)
        for module in (symplectic, pipeline):
            monkeypatch.setattr(module, "exponentiate_generator", exp)
        for module in (takagi, pipeline):
            monkeypatch.setattr(module, "takagi_real_symmetric", real)
        cfg = bundled_config(
            "bbo_nondegenerate", pipeline=name, grid__m=16, pump__z0_fraction=z0_fraction
        )
        report = run_pipeline(cfg, out_dir=tmp_path)
        assert calls == expected
        assert report.residuals["symplectic"] <= 1e-14


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
