"""End-to-end pipelines from a run configuration to artifacts and a report.

Four pipelines share the same plumbing:

* ``numerical``        grid -> squeezing matrix -> JSA -> Takagi factors ->
                       spectrum -> pairing/fit -> symplectic check
* ``analytic``         characteristic times -> Gaussian model -> Mehler factors
* ``compare``          both of the above plus mode overlaps and ratio tables
* ``near_degenerate``  numerical, but the spectrum is the Takagi factorization
                       of the full matrix (leakage blocks included) instead of
                       the SVD of the JSA block

The squeezing matrix is factored once per run; the symplectic check and the
``near_degenerate`` spectrum both use those factors.

Every run writes ``report.json`` with the resolved config (Sellmeier data
included), a summary, the residual diagnostics with their thresholds, and a
manifest of the artifact files, so each reported number can be traced to an
output file.  Stage failures are re-raised as :class:`PipelineError` with the
stage label; leakage and Takagi residuals past their thresholds are collected
in ``RunReport.threshold_failures`` (the CLI exits 3 on either), while a
symplectic residual past its threshold fails the ``symplectic`` stage.  The
checks take no settings; the Mehler series is summed to its tail bound.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..mehler import (
    analytic_schmidt_mode,
    characteristic_times,
    evaluate_kernel_lhs,
    evaluate_kernel_sum,
    gaussian_model_params,
    mehler_factors,
    mode_overlap,
    terms_for_tail_bound,
)
from ..pdc import build_frequency_grid, build_squeezing_matrix, extract_jsa, wave_vector
from ..symplectic import SYMPLECTIC_THRESHOLD, squeezer_from_takagi
from ..takagi import TAKAGI_THRESHOLD, TakagiFactors, takagi_general, takagi_residual
from ..twinbeam import (
    _duo_means,
    block_squeezing_matrix,
    eigenmodes_from_schmidt,
    fit_geometric,
    pair_eigenvalues,
    schmidt_from_jsa,
    schmidt_number,
    signal_first,
    spectrum_from_takagi,
)
from .config import RunConfig, config_to_dict
from .exports import export_matrix_heatmap, export_spectrum, write_csv

__all__ = [
    "ENV_OUTPUT_DIR",
    "PipelineError",
    "RunReport",
    "resolve_output_dir",
    "run_pipeline",
]

#: Environment variable naming the default output directory.
ENV_OUTPUT_DIR = "TWINBEAMS_OUTPUT_DIR"

#: Band-leakage fraction above which the twin-beam block structure is degraded.
LEAKAGE_THRESHOLD = 1e-3
#: Mehler series against closed-form kernel, relative to the kernel norm.
KERNEL_THRESHOLD = 1e-6
#: Number of leading modes written by the analytic/compare artifacts.
N_MODE_EXPORTS = 4


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message carries the stage label."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as err:
        raise PipelineError(name, str(err)) from err


def resolve_output_dir(cfg: RunConfig, override=None) -> Path:
    """Output directory: explicit override, then config, then environment, then CWD."""
    for candidate in (override, cfg.output.directory, os.environ.get(ENV_OUTPUT_DIR)):
        if candidate:
            return Path(candidate)
    return Path.cwd()


@dataclass
class RunReport:
    """One run's echo, summary, residuals and manifest, in ``report.json`` order."""

    pipeline: str
    config: dict
    summary: dict
    residuals: dict
    thresholds: dict
    threshold_failures: list
    notes: list
    artifacts: list

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    def summary_lines(self) -> list[str]:
        """Human-readable digest printed by the CLI after a run."""
        s = self.summary
        lines = [f"pipeline: {self.pipeline}"]
        if "grid_m" in s:
            lines.append(
                f"grid: 2m = {2 * s['grid_m']} detunings, half-width "
                f"{s['grid_half_width']:.6g} rad/fs"
            )
        if "r1" in s:
            lines.append(f"leading eigenvalue r1 = {s['r1']:.6g}")
        if "q_fit" in s:
            lines.append(
                f"geometric fit: q = {s['q_fit']:.6g} (log-domain RMS {s['fit_rms']:.2e})"
            )
        if "schmidt_number" in s:
            lines.append(f"Schmidt number K = {s['schmidt_number']:.4g}")
        if "q_analytic" in s:
            lines.append(
                f"analytic model: q = {s['q_analytic']:.6g}, "
                f"K = {s['schmidt_number_analytic']:.4g}"
            )
        if "pairs_accepted" in s:
            if s.get("all_paired"):
                lines.append(f"pairing: all {s['pairs_accepted']} pairs accepted")
            else:
                lines.append(
                    f"pairing: {s['pairs_accepted']} pairs accepted, first failure "
                    f"at eigenvalue {s['first_failure_index']}"
                )
        if "mode_overlap_signal_k0" in s:
            lines.append(
                f"mode overlap (k=0): signal {s['mode_overlap_signal_k0']:.4f}, "
                f"idler {s['mode_overlap_idler_k0']:.4f}"
            )
        for key, value in self.residuals.items():
            lines.append(f"residual {key}: {value:.3e}")
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.threshold_failures:
            lines.append("threshold failures: " + ", ".join(self.threshold_failures))
        lines.append(f"artifacts: {len(self.artifacts)} files")
        return lines


def _band_sizing(_label: str, fn, *args):
    """Run one model step for automatic band sizing; a failure names the grid."""
    try:
        return fn(*args)
    except ValueError as err:
        raise PipelineError(
            "grid",
            f"automatic band sizing needs the nondegenerate analytic model ({err}); "
            "set grid.half_width explicitly",
        ) from err


def _analytic_model(cfg: RunConfig, stage=_stage):
    """(times, Gaussian model, Mehler factors); ``stage`` runs each step."""
    t = stage("characteristic-times", characteristic_times, cfg.crystal, cfg.pump)
    params = stage("gaussian-model", gaussian_model_params, t)
    return t, params, stage("mehler-factors", mehler_factors, params)


def _resolve_grid(cfg: RunConfig, model):
    """Build the detuning grid; an automatic band is sized from the analytic model."""
    spec = cfg.grid
    half_width = spec.half_width
    if half_width is None:
        t, _, f = model
        half_width = t.omega_s + max(spec.width_factor / f.tau1, 3.0 * t.omega_p)
    return build_frequency_grid(spec.m, half_width)


def _numerical_stages(cfg: RunConfig, report: RunReport, out: Path, grid):
    """Spectrum and checks; returns (Schmidt, spectrum), or None at zero gain."""
    report.summary["grid_m"] = int(grid.m)
    report.summary["grid_half_width"] = float(grid.half_width)
    report.summary["grid_spacing"] = float(grid.spacing)

    sq = _stage("squeezing-matrix", build_squeezing_matrix, cfg.crystal, cfg.pump, grid)
    ext = _stage("jsa-extraction", extract_jsa, sq)
    report.residuals["leakage"] = float(ext.leakage)
    if ext.leakage > LEAKAGE_THRESHOLD:
        report.threshold_failures.append("leakage")
        report.notes.append(
            f"band leakage {ext.leakage:.3e} exceeds {LEAKAGE_THRESHOLD:g}: the "
            "twin-beam block structure is degraded at this working point"
        )

    scale = float(np.abs(sq.gamma).max())
    zero = scale == 0.0
    imag_fraction = 0.0 if zero else float(np.abs(sq.gamma.imag).max() / scale)
    report.residuals["imag_fraction"] = imag_fraction
    if zero:
        report.notes.append(
            "squeezing matrix is identically zero (gain = 0); spectrum, fit and "
            "pairing are trivial"
        )

    # The one factorization of the run: Gamma = V R V^T in grid order.
    factors = _stage("takagi", takagi_general, sq.gamma)

    sd = None
    if cfg.pipeline == "near_degenerate" and not zero:
        # The same factors, rows reordered signal-band first.
        rolled = TakagiFactors(v=np.roll(factors.v, grid.m, axis=0), r=factors.r)
        spectrum = _stage("spectrum", spectrum_from_takagi, rolled)
        target = signal_first(sq.gamma)
    else:
        sd = _stage("spectrum", schmidt_from_jsa, ext.jsa)
        spectrum = eigenmodes_from_schmidt(sd)
        target = block_squeezing_matrix(ext.jsa)

    takagi_res = float(
        takagi_residual(target, TakagiFactors(v=spectrum.modes, r=spectrum.values))
    )
    report.residuals["takagi"] = takagi_res
    if takagi_res > TAKAGI_THRESHOLD:
        report.threshold_failures.append("takagi")

    report.summary["r1"] = float(spectrum.values[0])
    pairing = None
    if not zero:
        pairing = pair_eigenvalues(spectrum, cfg.pairing_tol)
        report.summary["pairs_accepted"] = pairing.n_pairs
        report.summary["first_failure_index"] = pairing.first_failure_index
        report.summary["all_paired"] = pairing.all_paired
        if not pairing.all_paired:
            report.notes.append(
                f"pairing failed at eigenvalue {pairing.first_failure_index}: duo "
                f"gap above pairing_tol = {cfg.pairing_tol:g}"
            )
        try:
            fit = fit_geometric(spectrum.values, max_pairs=cfg.fit_pairs)
            report.summary["q_fit"] = float(fit.q)
            report.summary["r1_fit"] = float(fit.r1)
            report.summary["fit_rms"] = float(fit.rms_residual)
            # Schmidt number of the fitted geometric law (200 duplicated
            # pairs reach the closed form 2(1+q)/(1-q) to ~1e-9).  The raw
            # values are not used: their tail sits at the grid-truncation
            # noise floor and would inflate the count.
            geometric = fit.r1 * fit.q ** np.arange(200)
            report.summary["schmidt_number"] = float(
                schmidt_number(np.repeat(geometric, 2))
            )
        except ValueError as err:
            report.notes.append(f"geometric fit skipped: {err}")

    # The squeezer and its Bloch-Messiah factors (V, R, V) from the same factors.
    s_matrix = _stage("symplectic", squeezer_from_takagi, factors)
    report.residuals["symplectic"] = s_matrix.residual

    detunings = np.concatenate([grid.signal, grid.idler])
    for path in export_spectrum(
        spectrum, out / "spectrum", cfg.output.format, detunings=detunings, pairing=pairing
    ):
        report.artifacts.append({"kind": "spectrum", "path": path.name})
    heat = export_matrix_heatmap(
        sq.gamma, grid.detunings, grid.detunings, out / "squeezing_matrix.csv"
    )
    report.artifacts.append({"kind": "squeezing_matrix", "path": heat.name})

    return None if zero else (sd, spectrum)


def _analytic_stages(cfg: RunConfig, report: RunReport, out: Path, model, grid) -> list:
    """Model artifacts; returns the (signal, idler) modes k < N_MODE_EXPORTS."""
    t, params, f = model

    report.summary["q_analytic"] = float(f.q)
    report.summary["schmidt_number_analytic"] = float(2.0 * (1.0 + f.q) / (1.0 - f.q))
    report.summary["tau1_fs"] = float(f.tau1)
    report.summary["tau2_fs"] = float(f.tau2)
    report.summary["zeta1"] = float(f.zeta1)
    report.summary["zeta2"] = float(f.zeta2)
    report.summary["omega_s"] = float(t.omega_s)

    # The model's dispersion holds only where the Sellmeier data do.
    try:
        wave_vector(grid.detunings[[0, -1]], "downconverted", cfg.crystal, cfg.pump)
    except ValueError as err:
        report.notes.append(f"band edges lie outside the dispersion model's range: {err}")

    # Mehler series, summed to a tail bound under KERNEL_THRESHOLD, against the
    # closed-form kernel on a fixed 41 x 41 probe of the rescaled coordinates;
    # they disagree only if the Mehler factors miss the Gaussian model.
    x = np.linspace(-4.0, 4.0, 41)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    lhs = evaluate_kernel_lhs(params, xx, yy)
    terms = terms_for_tail_bound(f, KERNEL_THRESHOLD)
    total, _bound = evaluate_kernel_sum(f, xx, yy, terms)
    deviation = float(np.abs(lhs - total).max() / f.norm)
    report.residuals["kernel_truncation"] = deviation
    if deviation > KERNEL_THRESHOLD:
        report.notes.append(
            f"Mehler series ({terms} terms) and closed-form kernel disagree by "
            f"{deviation:.2e} of the kernel norm, above {KERNEL_THRESHOLD:g}"
        )

    factors_path = out / "analytic_factors.json"
    factors_path.write_text(
        json.dumps(
            {
                "characteristic_times": dataclasses.asdict(t),
                "gaussian_model": dataclasses.asdict(params),
                "mehler_factors": dataclasses.asdict(f),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    report.artifacts.append({"kind": "analytic_factors", "path": factors_path.name})

    bands = (("signal", grid.signal), ("idler", grid.idler))
    modes = [
        tuple(
            _stage("analytic-modes", analytic_schmidt_mode, k, branch, f, t, band)
            for branch, band in bands
        )
        for k in range(N_MODE_EXPORTS)
    ]

    def mode_rows():
        for k, pair in enumerate(modes):
            for (branch, band), mode in zip(bands, pair):
                for omega, value in zip(band, mode):
                    yield (k, branch, omega, value.real, value.imag)

    modes_path = write_csv(
        out / "analytic_modes.csv", ["k", "branch", "omega", "re", "im"], mode_rows()
    )
    report.artifacts.append({"kind": "analytic_modes", "path": modes_path.name})

    return modes


def _compare_stages(report: RunReport, out: Path, grid, q, modes, sd, spectrum) -> None:
    # SVD columns carry plain l2 normalization; dividing by sqrt(spacing)
    # puts them on the grid-weighted normalization of the analytic modes.
    weight = 1.0 / np.sqrt(grid.spacing)
    overlap_rows = []
    for k, (a_signal, a_idler) in enumerate(modes[: grid.m]):
        ov_signal = abs(mode_overlap(sd.c[:, k] * weight, a_signal, grid.spacing))
        ov_idler = abs(mode_overlap(sd.d[:, k].conj() * weight, a_idler, grid.spacing))
        overlap_rows.append((k, "signal", ov_signal))
        overlap_rows.append((k, "idler", ov_idler))
    overlaps_path = write_csv(
        out / "mode_overlaps.csv", ["k", "branch", "overlap_abs"], overlap_rows
    )
    report.artifacts.append({"kind": "mode_overlaps", "path": overlaps_path.name})
    report.summary["mode_overlap_signal_k0"] = float(overlap_rows[0][2])
    report.summary["mode_overlap_idler_k0"] = float(overlap_rows[1][2])

    means = _duo_means(spectrum.values)[:20]

    def ratio_rows():
        for k, mean in enumerate(means):
            ratio = "" if k == 0 else means[k] / means[k - 1]
            diff = "" if k == 0 else means[k] / means[k - 1] - q
            yield (k, mean, mean / means[0], ratio, diff)

    ratios_path = write_csv(
        out / "eigenvalue_ratios.csv",
        ["pair", "r_mean", "r_rel", "ratio", "ratio_minus_q_analytic"],
        ratio_rows(),
    )
    report.artifacts.append({"kind": "eigenvalue_ratios", "path": ratios_path.name})


def run_pipeline(cfg: RunConfig, out_dir=None) -> RunReport:
    """Execute the configured pipeline, write all artifacts, return the report.

    The output directory is resolved from the ``out_dir`` argument, the
    config, the ``TWINBEAMS_OUTPUT_DIR`` environment variable, and the
    current directory, in that order, and is created if missing.  Identical
    configs produce byte-identical artifacts (nothing time- or
    machine-dependent is written).
    """
    out = resolve_output_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    report = RunReport(
        pipeline=cfg.pipeline,
        config=config_to_dict(cfg),
        summary={},
        residuals={},
        thresholds={
            "leakage": LEAKAGE_THRESHOLD,
            "takagi": TAKAGI_THRESHOLD,
            "symplectic": SYMPLECTIC_THRESHOLD,
        },
        threshold_failures=[],
        notes=[],
        artifacts=[],
    )

    # The analytic model and the grid are built once and handed to the stages.
    analytic = cfg.pipeline in ("analytic", "compare")
    model = None
    if analytic:
        model = _analytic_model(cfg)
    elif cfg.grid.half_width is None:
        model = _stage("grid", _analytic_model, cfg, _band_sizing)
    grid = _stage("grid", _resolve_grid, cfg, model)

    if analytic:
        modes = _analytic_stages(cfg, report, out, model, grid)
    if cfg.pipeline != "analytic":
        numerical = _numerical_stages(cfg, report, out, grid)
    if cfg.pipeline == "compare":
        if numerical is None:
            report.notes.append("comparison skipped: spectrum is identically zero")
        else:
            _compare_stages(report, out, grid, model[2].q, modes, *numerical)

    report.artifacts.append({"kind": "report", "path": "report.json"})
    report.write(out / "report.json")
    return report
