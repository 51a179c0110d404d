"""End-to-end pipelines from a run configuration to artifacts and a report.

Four pipelines share the same plumbing:

* ``numerical``        grid -> squeezing matrix (stored as an npz) -> JSA ->
                       Schmidt factors -> Takagi residual -> symplectic
                       check -> pairing/fit -> spectrum table and factors
* ``analytic``         characteristic times -> Gaussian model -> Mehler factors
* ``compare``          both of the above plus mode overlaps and ratio tables
* ``near_degenerate``  numerical, but the spectrum is the Takagi factorization
                       of the full matrix (leakage blocks included) instead of
                       the SVD of the JSA block

Each run factors once: the SVD of the JSA block, or in ``near_degenerate``
the Takagi factorization of the full matrix.  The Takagi residual and the
symplectic check both take the factors the run stores in ``spectrum.npz``:
the Schmidt factors (C, R, D) in m x m blocks, which is exact for the duo
modes built from them, or the full-matrix factors (V, R) of
``near_degenerate``.  No run builds the duo modes: the Schmidt route
reports a values-only spectrum, the Schmidt values twice each, and
``eigenmodes_from_schmidt`` of the stored factors rebuilds the modes.
Gamma and the factors come from the build and that factorization or, for
each later point of a ``pairing_tol`` or ``fit_pairs`` sweep, from a finished
run's ``squeezing_matrix.npz`` and ``spectrum.npz``; one analysis follows.

Memory: Gamma is stored exactly in ``squeezing_matrix.npz`` right after it
is built, which holds one copy of it, and each stage result is dropped
after its last reader; of the checks only their residuals are kept.  A
traced ``compare`` run at m = 256 peaks in the JSA SVD at 2.09 (real
Gamma) and 2.51 (complex) times the bytes of Gamma.  max|Gamma| takes no
full-size temporary for a real Gamma, half its bytes for a complex one,
and writing ``spectrum.npz`` from the factors held leaves the peak as it
was.  The manifest lists the matrix after the spectrum files, and a run
that fails after the matrix build leaves ``squeezing_matrix.npz`` on
disk.  Its CSV heatmap is written on request, by ``twinbeams heatmap DIR``.

Every run writes ``report.json`` with the resolved config (Sellmeier data
included), a summary, the residual diagnostics with their thresholds, and a
manifest of the artifact files, so each reported number can be traced to an
output file.  Stage failures are re-raised as :class:`PipelineError` with the
stage label.  Each check is recorded by ``_check``: on a miss (NaN always is
one), a check gated in ``thresholds`` is a threshold failure (the CLI exits
3) and a check with a note adds it; a symplectic miss fails its stage first,
and a ``near_degenerate`` Takagi miss is a threshold failure for a complex
Gamma as for a real one.  The checks take no settings; the Mehler series is
summed to its tail bound.  One flattening of the report (``RunReport._flat``)
is both its ``sweep_summary.csv`` row and the ``twinbeams run`` digest.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
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
from ..pdc import (
    SqueezingMatrixPhysical, build_frequency_grid, build_squeezing_matrix, extract_jsa, wave_vector,
)
from ..symplectic import SYMPLECTIC_THRESHOLD, schmidt_squeezer_residual, squeezer_from_takagi
from ..takagi import TAKAGI_THRESHOLD, _takagi_unchecked, takagi_residual
from ..twinbeam import (
    SqueezingSpectrum,
    _duo_means,
    _schmidt_residual,
    fit_geometric,
    pair_eigenvalues,
    schmidt_from_jsa,
    schmidt_number,
    signal_first,
    spectrum_from_takagi,
)
from .config import RunConfig, config_to_dict
from .exports import (
    _write_table, export_spectrum, export_squeezing_matrix, load_spectrum, load_squeezing_matrix,
    write_csv,
)

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
    except (ValueError, ArithmeticError, RuntimeError, MemoryError) as err:
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
    summary: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    thresholds: dict = field(
        default_factory=lambda: dict(
            leakage=LEAKAGE_THRESHOLD, takagi=TAKAGI_THRESHOLD, symplectic=SYMPLECTIC_THRESHOLD
        )
    )
    threshold_failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as plain data; a non-finite residual is None, so JSON stays strict."""
        residuals = {k: v if math.isfinite(v) else None for k, v in self.residuals.items()}
        return {**dataclasses.asdict(self), "residuals": residuals}

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    def _flat(self) -> dict:
        """The scalar summary values, the residuals (a non-finite one as None)
        and ``<name>_margin`` = residual / threshold of each gated residual,
        in report order: a sweep row and the CLI digest both read this."""
        residuals = self.to_dict()["residuals"]
        flat = {k: v for k, v in self.summary.items() if not isinstance(v, (list, dict))}
        flat.update(residuals)
        flat.update(
            (f"{k}_margin", None if v is None else v / self.thresholds[k])
            for k, v in residuals.items() if k in self.thresholds
        )
        return flat

    def summary_lines(self) -> list[str]:
        """The CLI digest: the report flattened, one ``key: value`` line per
        item (a residual as ``residual <name>: %.3e``, other floats %.6g),
        then the notes, the threshold failures and the artifact count."""
        lines = [f"pipeline: {self.pipeline}"]
        for key, value in self._flat().items():
            if key in self.residuals:
                lines.append(f"residual {key}: {self.residuals[key]:.3e}")
            else:
                lines.append(f"{key}: {f'{value:.6g}' if isinstance(value, float) else value}")
        lines += [f"note: {note}" for note in self.notes]
        if self.threshold_failures:
            lines.append("threshold failures: " + ", ".join(self.threshold_failures))
        lines.append(f"artifacts: {len(self.artifacts)} files")
        return lines


def _check(report: RunReport, name: str, value, note: str = "", threshold=math.inf) -> None:
    """Store a check's residual; on a miss, fail it if it is gated and add its note.

    A gated check is held to its ``report.thresholds`` entry, any other to ``threshold``.
    """
    report.residuals[name] = float(value)
    if not value <= report.thresholds.get(name, threshold):
        if name in report.thresholds:
            report.threshold_failures.append(name)
        if note:
            report.notes.append(note)


def _analytic_model(cfg: RunConfig):
    """(times, Gaussian model, Mehler factors), each step a labelled stage."""
    t = _stage("characteristic-times", characteristic_times, cfg.crystal, cfg.pump)
    params = _stage("gaussian-model", gaussian_model_params, t)
    return t, params, _stage("mehler-factors", mehler_factors, params)


def _resolve_grid(cfg: RunConfig, model):
    """Build the detuning grid; an automatic band is sized from the analytic model."""
    spec = cfg.grid
    half_width = spec.half_width
    if half_width is None:
        t, _, f = model
        half_width = t.omega_s + max(spec.width_factor / f.tau1, 3.0 * t.omega_p)
    return build_frequency_grid(spec.m, half_width)


def _numerical_stages(cfg: RunConfig, report: RunReport, out: Path, grid, stored=None):
    """Spectrum, checks and spectrum files; returns (Schmidt factors,
    spectrum), or None at zero gain.

    With ``stored``, Gamma and the factors are read from that finished
    run's files.  Each stage result is dropped once its last reader is done.
    """
    report.summary["grid_m"] = int(grid.m)
    report.summary["grid_half_width"] = float(grid.half_width)
    report.summary["grid_spacing"] = float(grid.spacing)

    if stored is None:
        sq = _stage("squeezing-matrix", build_squeezing_matrix, cfg.crystal, cfg.pump, grid)
    else:
        sq = _stage("squeezing-matrix", load_squeezing_matrix, stored / "squeezing_matrix.npz")[1]
        sq = _stage("squeezing-matrix", SqueezingMatrixPhysical, grid, sq)
    # Stored at once, so a run that fails later still leaves it; its
    # manifest entry follows those of the spectrum files.
    matrix = export_squeezing_matrix(sq.gamma, grid.detunings, out / "squeezing_matrix.npz")
    # Stored factors are read only now, as np.savez copies Gamma whole.
    factors = stored and _stage("spectrum", load_spectrum, stored / "spectrum.npz")[1]
    ext = _stage("jsa-extraction", extract_jsa, sq)
    _check(
        report, "leakage", ext.leakage,
        f"band leakage {ext.leakage:.3e} exceeds {LEAKAGE_THRESHOLD:g}: the "
        "twin-beam block structure is degraded at this working point",
    )

    # A float64 Gamma has no imaginary part to build or measure, and its
    # max|Gamma| takes no full-size temporary.
    real = np.isrealobj(sq.gamma)
    scale = float(max(sq.gamma.max(), -sq.gamma.min()) if real else np.abs(sq.gamma).max())
    zero = scale == 0.0
    _check(report, "imag_fraction", 0.0 if real or zero else np.abs(sq.gamma.imag).max() / scale)
    if zero:
        report.notes.append(
            "squeezing matrix is identically zero (gain = 0); spectrum, fit and "
            "pairing are trivial"
        )

    if cfg.pipeline == "near_degenerate" and not zero:
        # The one factorization of the run: Gamma = V R V^T of the
        # signal-first Gamma, so V runs signal band first like the spectrum
        # and its labels.  The spectrum, both checks and spectrum.npz all
        # read these factors, and only the run measures their residual.
        target = signal_first(sq.gamma)
        del sq, ext
        if factors is None:
            _, factors = _stage("takagi", _takagi_unchecked, target)
        spectrum = _stage("spectrum", spectrum_from_takagi, factors)
        _check(report, "takagi", takagi_residual(target, factors))
        del target
        # The squeezer and its Bloch-Messiah factors (V, R, V) from the stored
        # factors; the report keeps only the residual.
        _check(report, "symplectic", _stage("symplectic", squeezer_from_takagi, factors).residual)
    else:
        # The one factorization of the run: J = C R D^H.  Both checks read the
        # Schmidt factors in m x m blocks, exactly those of the duo modes,
        # which are unitary whenever C and D are and are never built.
        if factors is None:
            factors = _stage("spectrum", schmidt_from_jsa, ext.jsa)
        del sq
        _check(report, "takagi", _schmidt_residual(ext.jsa, factors))
        del ext
        _check(report, "symplectic", _stage("symplectic", schmidt_squeezer_residual, factors))
        spectrum = SqueezingSpectrum(np.repeat(factors.values, 2), None)

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

    # The grid runs idler band first; spectra and their labels run signal band first.
    detunings = np.roll(grid.detunings, grid.m)
    for path in export_spectrum(spectrum, factors, detunings, out / "spectrum", pairing):
        report.artifacts.append({"kind": "spectrum", "path": path.name})
    report.artifacts.append({"kind": "squeezing_matrix", "path": matrix.name})

    return None if zero else (factors, spectrum)


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
    # closed-form kernel on the 41 x 41 probe of two rescaled axes; they
    # disagree only if the Mehler factors miss the Gaussian model.
    x = np.linspace(-4.0, 4.0, 41)
    xx, yy = x[:, None], x[None, :]
    lhs = evaluate_kernel_lhs(params, xx, yy)
    terms = terms_for_tail_bound(f, KERNEL_THRESHOLD)
    total, _bound = evaluate_kernel_sum(f, xx, yy, terms)
    deviation = float(np.abs(lhs - total).max() / f.norm)
    _check(
        report, "kernel_truncation", deviation,
        f"Mehler series ({terms} terms) and closed-form kernel disagree by "
        f"{deviation:.2e} of the kernel norm, above {KERNEL_THRESHOLD:g}",
        KERNEL_THRESHOLD,
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
            _stage("analytic-modes", analytic_schmidt_mode, k, branch, f, t, band, grid.spacing)
            for branch, band in bands
        )
        for k in range(N_MODE_EXPORTS)
    ]

    # One block of rows per (mode, branch), each row spelled by one format.
    blocks = (
        zip(
            [k] * len(band), [branch] * len(band),
            band.tolist(), mode.real.tolist(), mode.imag.tolist(),
        )
        for k, pair in enumerate(modes)
        for (branch, band), mode in zip(bands, pair)
    )
    modes_path = _write_table(
        out / "analytic_modes.csv", ["k", "branch", "omega", "re", "im"],
        "%d,%s,%.17g,%.17g,%.17g\n", blocks,
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
    overlaps_path = _write_table(
        out / "mode_overlaps.csv", ["k", "branch", "overlap_abs"], "%d,%s,%.17g\n", [overlap_rows]
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
    configs produce byte-identical artifacts on one machine at one BLAS
    thread count: nothing time- or machine-dependent is written, but the
    factorizations' rounding follows the BLAS build and its thread count
    (a ``near_degenerate`` r1 of 0.15976253319174122 at one OpenBLAS thread
    reads ...114 at two).
    """
    return _run(cfg, out_dir)


def _run(cfg: RunConfig, out_dir=None, stored: Path | None = None) -> RunReport:
    """``run_pipeline``; given ``stored``, Gamma and the factors come from that run's files."""
    out = resolve_output_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    report = RunReport(cfg.pipeline, config_to_dict(cfg))

    # The analytic model and the grid are built once and handed to the stages.
    analytic = cfg.pipeline in ("analytic", "compare")
    model = None
    if analytic:
        model = _analytic_model(cfg)
    elif cfg.grid.half_width is None:
        try:
            model = _analytic_model(cfg)
        except PipelineError as err:
            raise PipelineError(
                "grid",
                f"automatic band sizing needs the nondegenerate analytic model "
                f"({err.__cause__}); set grid.half_width explicitly",
            ) from err.__cause__
    grid = _stage("grid", _resolve_grid, cfg, model)

    if analytic:
        modes = _analytic_stages(cfg, report, out, model, grid)
    if cfg.pipeline != "analytic":
        numerical = _numerical_stages(cfg, report, out, grid, stored)
    if cfg.pipeline == "compare":
        if numerical is None:
            report.notes.append("comparison skipped: spectrum is identically zero")
        else:
            _compare_stages(report, out, grid, model[2].q, modes, *numerical)

    report.artifacts.append({"kind": "report", "path": "report.json"})
    report.write(out / "report.json")
    return report
