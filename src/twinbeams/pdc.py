"""Physical squeezing matrix for collinear type-I parametric downconversion.

Builds the first-order interaction generator on a discrete frequency
grid from crystal dispersion (Sellmeier data), pump parameters, and grid
geometry; extracts the joint-spectral-amplitude block and locates the
central detuning of the phase-matched bands.

Conventions: detunings in rad/fs, wave vectors in rad/mm, crystal length
in mm, wavelengths in um inside the dispersion model.  The pump is
extraordinary-polarized at the optic-axis angle theta0; the downconverted
light is ordinary (type-I phase matching).

scipy is imported only inside ``find_central_detuning``, the one caller
of ``scipy.optimize.brentq``, when it is first called.  No pipeline calls
it, and a module-level import would cost every run about 0.65 s of
import time and a second OpenBLAS runtime (scipy's own, about 45 MB
resident) next to numpy's.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .takagi import _as_square, _bit_symmetric, _check_finite, _check_symmetric
from .takagi import _float_or_complex, _mirror_blocks
from .twinbeam import JointSpectralAmplitude
from .units import C_UM_PER_FS, UM_PER_MM, nm_to_um

__all__ = [
    "SellmeierSet",
    "CrystalConfig",
    "PumpConfig",
    "FrequencyGrid",
    "SqueezingMatrixPhysical",
    "JsaExtraction",
    "BBO_SELLMEIER_ORDINARY",
    "BBO_SELLMEIER_EXTRAORDINARY",
    "bbo_crystal",
    "refractive_index",
    "wave_vector",
    "wave_vector_derivatives",
    "phase_mismatch",
    "pump_spectrum",
    "pump_bandwidth",
    "build_frequency_grid",
    "build_squeezing_matrix",
    "extract_jsa",
    "find_central_detuning",
]


@dataclass(frozen=True)
class SellmeierSet:
    """One-pole Sellmeier fit n^2 = a + b/(lambda^2 - c) - d lambda^2 (lambda in um).

    ``lambda_min_um``/``lambda_max_um`` declare the validity window; queries
    outside it raise.  The coefficients are configuration data — every run
    report echoes the set actually used.
    """

    a: float
    b: float
    c: float
    d: float
    lambda_min_um: float = 0.19
    lambda_max_um: float = 1.50

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "lambda_min_um", "lambda_max_um"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def check_range(self, lambda_um) -> None:
        lam = np.asarray(lambda_um, dtype=float)
        lo, hi = float(lam.min()), float(lam.max())
        # Written so that a NaN wavelength fails the test too.
        if not (self.lambda_min_um <= lo and hi <= self.lambda_max_um):
            raise ValueError(
                f"wavelength {lo:.4f}-{hi:.4f} um outside Sellmeier validity "
                f"range [{self.lambda_min_um}, {self.lambda_max_um}] um"
            )

    def n_squared(self, lambda_um):
        lam2 = np.square(np.asarray(lambda_um, dtype=float))
        return self.a + self.b / (lam2 - self.c) - self.d * lam2

    def n_squared_derivatives(self, lambda_um):
        """(f, f', f'') of f(lambda) = n^2 with respect to lambda in um."""
        lam = np.asarray(lambda_um, dtype=float)
        lam2 = lam * lam
        pole = lam2 - self.c
        f = self.a + self.b / pole - self.d * lam2
        fp = -2.0 * self.b * lam / pole**2 - 2.0 * self.d * lam
        fpp = -2.0 * self.b / pole**2 + 8.0 * self.b * lam2 / pole**3 - 2.0 * self.d
        return f, fp, fpp


#: Default BBO data set shipped with the package (fit to the 0.6328-um
#: golden value 1.668051 recorded in the test suite).  Configs may override.
BBO_SELLMEIER_ORDINARY = SellmeierSet(a=2.7405, b=0.0184, c=0.0179, d=0.0155)
BBO_SELLMEIER_EXTRAORDINARY = SellmeierSet(a=2.3730, b=0.0128, c=0.0156, d=0.0044)


@dataclass(frozen=True)
class CrystalConfig:
    """Crystal length, optic-axis angle, and dispersion data."""

    length_mm: float
    theta0_deg: float
    sellmeier_o: SellmeierSet = BBO_SELLMEIER_ORDINARY
    sellmeier_e: SellmeierSet = BBO_SELLMEIER_EXTRAORDINARY

    def __post_init__(self):
        if not 0.0 < self.length_mm < math.inf:
            raise ValueError(f"length_mm must be positive and finite, got {self.length_mm}")
        if not 0.0 < self.theta0_deg < 90.0:
            raise ValueError(
                f"theta0_deg must lie strictly between 0 and 90, got {self.theta0_deg}"
            )


def bbo_crystal(length_mm: float, theta0_deg: float) -> CrystalConfig:
    """Convenience constructor with the shipped BBO Sellmeier data."""
    return CrystalConfig(length_mm=length_mm, theta0_deg=theta0_deg)


@dataclass(frozen=True)
class PumpConfig:
    """Pump pulse parameters.

    ``gain`` is the dimensionless coupling |sigma| L E0; ``z0_fraction``
    places the interaction-picture origin z0 = z0_fraction * L;
    ``prechirp_compensated`` removes the quadratic (and higher) pump
    spectral phase so the pulse is transform-limited at the crystal
    center.
    """

    lambda_p_nm: float
    tau_p_fs: float
    gain: float = 1.0
    z0_fraction: float = 0.5
    prechirp_compensated: bool = True

    def __post_init__(self):
        if not 0.0 < self.lambda_p_nm < math.inf:
            raise ValueError(f"lambda_p_nm must be positive and finite, got {self.lambda_p_nm}")
        if not 0.0 < self.tau_p_fs < math.inf:
            raise ValueError(f"tau_p_fs must be positive and finite, got {self.tau_p_fs}")
        if not 0.0 <= self.gain < math.inf:
            raise ValueError(f"gain must be nonnegative and finite, got {self.gain}")
        if not 0.0 <= self.z0_fraction <= 1.0:
            raise ValueError(f"z0_fraction must lie in [0, 1], got {self.z0_fraction}")

    @property
    def omega_p0(self) -> float:
        """Central pump angular frequency (rad/fs)."""
        return 2.0 * math.pi * C_UM_PER_FS / nm_to_um(self.lambda_p_nm)

    @property
    def omega_0(self) -> float:
        """Central frequency of the downconverted light, omega_p0 / 2 (rad/fs)."""
        return 0.5 * self.omega_p0


def pump_bandwidth(pump: PumpConfig) -> float:
    """Gaussian amplitude bandwidth Omega_p = 2 sqrt(ln 2) / tau_p (rad/fs)."""
    return 2.0 * math.sqrt(math.log(2.0)) / pump.tau_p_fs


def _check_grid_size(m) -> None:
    """ValueError naming ``m`` unless it is an integer (a bool is not one) >= 1."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform detuning grid: Omega_l = (l - m - 1/2) spacing, l = 1..2m.

    The grid is stored as ``(m, spacing)``; the half-width, the window T and
    the detunings are derived.  The lower half (negative detunings) is the
    idler band, the upper half the signal band.
    """

    m: int
    spacing: float

    def __post_init__(self):
        _check_grid_size(self.m)
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")

    @property
    def half_width(self) -> float:
        """Band half-width m * spacing (rad/fs)."""
        return self.m * self.spacing

    @property
    def window_T(self) -> float:
        """Quantization window T = 2 pi / spacing (fs)."""
        return 2.0 * math.pi / self.spacing

    @functools.cached_property
    def detunings(self) -> np.ndarray:
        return (np.arange(1, 2 * self.m + 1, dtype=float) - self.m - 0.5) * self.spacing

    @property
    def idler(self) -> np.ndarray:
        return self.detunings[: self.m]

    @property
    def signal(self) -> np.ndarray:
        return self.detunings[self.m:]


def build_frequency_grid(m: int, half_width: float) -> FrequencyGrid:
    """Grid of 2m detunings covering +-half_width, spacing half_width / m."""
    _check_grid_size(m)
    if not 0.0 < half_width < math.inf:
        raise ValueError("half_width must be positive and finite")
    return FrequencyGrid(m=m, spacing=half_width / m)


@dataclass(frozen=True)
class SqueezingMatrixPhysical:
    """Discrete squeezing matrix Gamma = -i H_I^(1) on a frequency grid.

    A float64 ``gamma`` stays float64 (a real Gamma); any other input is
    stored as complex128.  NaN or infinite entries are rejected, and so is
    an asymmetry above 1e-12 of max|Gamma|; a Gamma that equals its
    transpose bit for bit skips that tolerance test.
    """

    grid: FrequencyGrid
    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = _float_or_complex(self.gamma)
        n = 2 * self.grid.m
        if g.shape != (n, n):
            raise ValueError("gamma must be 2m x 2m")
        if not _bit_symmetric(_as_square(g, "gamma")):
            _check_symmetric(g, 1e-12, "gamma must be symmetric")
        object.__setattr__(self, "gamma", g)


def _check_range(crystal: CrystalConfig, lambda_um, polarization: str) -> None:
    """Sellmeier validity checks of a polarization (extraordinary uses both sets)."""
    if polarization not in ("ordinary", "extraordinary"):
        raise ValueError(f"unknown polarization {polarization!r}")
    crystal.sellmeier_o.check_range(lambda_um)
    if polarization == "extraordinary":
        crystal.sellmeier_e.check_range(lambda_um)


def refractive_index(crystal: CrystalConfig, lambda_um, polarization: str):
    """Refractive index at a wavelength for ordinary or extraordinary rays.

    The extraordinary branch applies the uniaxial angle-dependent index
    1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2 at the crystal's
    optic-axis angle, reducing to n_o at theta = 0 and to the principal
    n_e at theta = 90 deg.
    """
    _check_range(crystal, lambda_um, polarization)
    if polarization == "ordinary":
        return np.sqrt(crystal.sellmeier_o.n_squared(lambda_um))
    theta = math.radians(crystal.theta0_deg)
    no2 = crystal.sellmeier_o.n_squared(lambda_um)
    ne2 = crystal.sellmeier_e.n_squared(lambda_um)
    inv_n2 = np.cos(theta) ** 2 / no2 + np.sin(theta) ** 2 / ne2
    return 1.0 / np.sqrt(inv_n2)


def _index_derivatives(crystal: CrystalConfig, lambda_um, polarization: str):
    """(n, dn/dlambda, d2n/dlambda2) with lambda in um, closed form."""
    if polarization == "ordinary":
        f, fp, fpp = crystal.sellmeier_o.n_squared_derivatives(lambda_um)
        n = np.sqrt(f)
        np1 = fp / (2.0 * n)
        np2 = (fpp - 2.0 * np1**2) / (2.0 * n)
        return n, np1, np2
    # extraordinary at the crystal angle: u(lambda) = 1/n^2
    theta = math.radians(crystal.theta0_deg)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    fo, fop, fopp = crystal.sellmeier_o.n_squared_derivatives(lambda_um)
    fe, fep, fepp = crystal.sellmeier_e.n_squared_derivatives(lambda_um)
    u = c2 / fo + s2 / fe
    up = -c2 * fop / fo**2 - s2 * fep / fe**2
    upp = c2 * (2.0 * fop**2 / fo**3 - fopp / fo**2) + s2 * (
        2.0 * fep**2 / fe**3 - fepp / fe**2
    )
    n = u ** (-0.5)
    np1 = -0.5 * u ** (-1.5) * up
    np2 = 0.75 * u ** (-2.5) * up**2 - 0.5 * u ** (-1.5) * upp
    return n, np1, np2


def _branch_optics(detuning, branch: str, pump: PumpConfig):
    """(omega, lambda in um, polarization) of a branch at a detuning.

    A detuning that puts the optical frequency at or below zero is a
    ValueError naming the branch and that detuning.
    """
    if branch == "pump":
        center, pol = pump.omega_p0, "extraordinary"
    elif branch == "downconverted":
        center, pol = pump.omega_0, "ordinary"
    else:
        raise ValueError(f"unknown branch {branch!r}")
    detuning = np.asarray(detuning, dtype=float)
    omega = center + detuning
    if np.any(omega <= 0.0):
        low = float(detuning.min())
        raise ValueError(
            f"{branch} detuning {low:.6g} rad/fs puts the optical frequency at "
            f"{center + low:.6g} rad/fs (center {center:.6g} rad/fs), at or below zero"
        )
    return omega, 2.0 * math.pi * C_UM_PER_FS / omega, pol


def wave_vector(detuning, branch: str, crystal: CrystalConfig, pump: PumpConfig):
    """Wave vector k = n(omega) omega / c (rad/mm) for either branch.

    ``detuning`` is measured from the pump center (branch ``pump``) or from
    omega_0 = omega_p0 / 2 (branch ``downconverted``); the pump is
    extraordinary at theta0, the downconverted light ordinary.
    """
    omega, lam, pol = _branch_optics(detuning, branch, pump)
    return refractive_index(crystal, lam, pol) * omega / C_UM_PER_FS * UM_PER_MM


def wave_vector_derivatives(
    detuning: float, branch: str, crystal: CrystalConfig, pump: PumpConfig
):
    """(k, k', k'') at one detuning: rad/mm, fs/mm, fs^2/mm.

    Frequency derivatives are evaluated in closed form from the Sellmeier
    model: k' = (n - lambda dn/dlambda)/c and
    k'' = lambda^3 d2n/dlambda2 / (2 pi c^2).
    """
    omega, lam, pol = _branch_optics(detuning, branch, pump)
    omega, lam = float(omega), float(lam)
    _check_range(crystal, lam, pol)
    n, np1, np2 = _index_derivatives(crystal, lam, pol)
    k = n * omega / C_UM_PER_FS * UM_PER_MM
    kp = (n - lam * np1) / C_UM_PER_FS * UM_PER_MM
    kpp = lam**3 * np2 / (2.0 * math.pi * C_UM_PER_FS**2) * UM_PER_MM
    return k, kp, kpp


def phase_mismatch(omega_j, omega_l, crystal: CrystalConfig, pump: PumpConfig):
    """Delta_jl = k_p(Omega_j + Omega_l) - (k(Omega_j) + k(Omega_l)) (rad/mm).

    The two band wave vectors are added first, so Delta_jl = Delta_lj exactly.
    """
    oj = np.asarray(omega_j, dtype=float)
    ol = np.asarray(omega_l, dtype=float)
    kp = wave_vector(oj + ol, "pump", crystal, pump)
    return kp - (
        wave_vector(oj, "downconverted", crystal, pump)
        + wave_vector(ol, "downconverted", crystal, pump)
    )


def pump_spectrum(sum_detuning, pump: PumpConfig, crystal: CrystalConfig):
    """Pump spectral amplitude at the interaction-picture origin z0.

    Gaussian exp(-Omega_+^2 / (2 Omega_p^2)) with Omega_p = 2 sqrt(ln 2)/tau_p,
    normalized to 1 at the peak.  Constant and group-delay phases are removed
    by convention; with ``prechirp_compensated`` the remaining dispersion
    phase is compensated too and the amplitude is real (float64),
    otherwise the factor exp(i (k_p(O) - k_p0 - k'_p0 O) z0) is kept.  A NaN
    or infinite sum detuning raises on both branches.
    """
    osum = np.asarray(sum_detuning, dtype=float)
    _check_finite(osum, "sum detuning")
    amp = np.exp(-(osum**2) / (2.0 * pump_bandwidth(pump) ** 2))
    if pump.prechirp_compensated:
        return amp
    kp0, kp1, _ = wave_vector_derivatives(0.0, "pump", crystal, pump)
    kp = wave_vector(osum, "pump", crystal, pump)
    phase = (kp - kp0 - kp1 * osum) * (pump.z0_fraction * crystal.length_mm)
    return amp * np.exp(1j * phase)


def build_squeezing_matrix(
    crystal: CrystalConfig, pump: PumpConfig, grid: FrequencyGrid
) -> SqueezingMatrixPhysical:
    """Assemble Gamma_jl = gain E0(O_j+O_l) e^{i Delta_jl (L/2 - z0)} sinc(Delta_jl L/2).

    Each continuum sample is scaled by the grid spacing so the spectrum is
    grid-independent, and the global phase is removed by multiplying with
    conj(p / |p|), p the largest element.  The factor -i of
    Gamma = -i H_I^(1) is a global phase too, so this rotation absorbs it.
    The factor e^{i Delta (L/2 - z0)} is exactly 1 at z0 = L/2 and is
    applied only elsewhere.  For a transform-limited pump (real E0) at
    z0 = L/2 Gamma is therefore computed in real arithmetic and is float64;
    otherwise it is complex128.

    Gamma is symmetric by construction.  The pump enters only through the
    sum detuning O_j + O_l, and Delta = k_p - (k_j + k_l) is formed with
    ``phase_mismatch``'s grouping, whose one addition commutes exactly.  On
    the uniform grid every sum is one of the 2n - 1 values
    O_j + O_l = (j + l + 1 - n) spacing (0-based j, l; n = 2m), each formed
    as one rounding of that product.  k_p is taken from the checked
    ``wave_vector`` and gain E0 from ``pump_spectrum`` (which evaluates k_p
    once more for a chirped pump) on those 2n - 1 sums only, once per
    build, and each cell reads them through Hankel views H[j, l] = v[j + l]
    (``sliding_window_view``, no copy).  k(Omega) of the band is computed
    once.  The pump call sees every sum, so an invalid grid raises the
    whole grid's error; the pump sums are checked before the band.

    Gamma is preallocated and filled in one pass over the square blocks on
    and above the diagonal (``takagi._mirror_blocks``): each block is
    evaluated once, written in place and written transposed to its mirror
    (a diagonal block is its own, symmetric like Delta and the sums), so
    Gamma equals its transpose bit for bit and each mirror pair costs one
    evaluation.  The peak is the first largest |element| in row order,
    tracked block by block.  The unit phase is formed as p (1/|p|), the
    value numpy's complex division gives for p / |p|; for a real p it is
    sign(p) |p| (1/|p|), within one rounding of sign(p).  After the
    rotation, adding +0.0 in place turns each -0.0 (a Gaussian that
    underflows to 0 times a negative sinc) into +0.0, so every zero element
    has the same bits.  Every element goes through the operations of the
    whole-matrix expression on the same sums in the same order, so Gamma is
    bit-identical to it.  Besides Gamma the build holds block-sized
    temporaries and, in the final checks, one boolean matrix; at m = 512
    its traced peak is under three times the bytes of Gamma.
    """
    om = grid.detunings
    n = om.size
    length = crystal.length_mm
    offset = 0.5 * length - pump.z0_fraction * length
    # sums[j + l] = O_j + O_l for 0-based j, l.
    sums = np.arange(1 - n, n, dtype=float) * grid.spacing
    kp = sliding_window_view(wave_vector(sums, "pump", crystal, pump), n)
    e0 = sliding_window_view(pump.gain * pump_spectrum(sums, pump, crystal), n)
    k = wave_vector(om, "downconverted", crystal, pump)
    real = pump.prechirp_compensated and offset == 0.0
    gamma = np.empty((n, n), dtype=float if real else complex)

    # The first largest |element| in row order: np.argmax over the whole
    # Gamma, whose first hit is always on or above the diagonal.
    peak, peak_abs, peak_at = 0.0, -1.0, (n, n)
    for rows, cols in _mirror_blocks(n):
        delta = kp[rows, cols] - (k[rows, None] + k[cols])
        block = e0[rows, cols]
        if offset != 0.0:
            block = block * np.exp(1j * delta * offset)
        out = gamma[rows, cols]
        np.multiply(block * np.sinc(0.5 * delta * length / math.pi), grid.spacing, out=out)
        if rows != cols:
            gamma[cols, rows] = out.T
        mag = np.abs(out)
        i = np.argmax(mag)
        r, c = divmod(int(i), out.shape[1])
        at = (rows.start + r, cols.start + c)
        if mag.flat[i] > peak_abs or (mag.flat[i] == peak_abs and at < peak_at):
            peak, peak_abs, peak_at = out.flat[i], mag.flat[i], at
    if peak != 0.0:
        gamma *= (peak * (1.0 / abs(peak))).conjugate()
    gamma += 0.0
    return SqueezingMatrixPhysical(grid=grid, gamma=gamma)


@dataclass(frozen=True)
class JsaExtraction:
    """JSA block plus the band-leakage diagnostic of the extraction."""

    jsa: JointSpectralAmplitude
    leakage: float


def extract_jsa(sq: SqueezingMatrixPhysical) -> JsaExtraction:
    """Signal x idler block of Gamma with a leakage report.

    Leakage is the energy fraction of the two diagonal (signal x signal,
    idler x idler) blocks, ||ss||_F^2 + ||ii||_F^2 over ||Gamma||_F^2;
    it vanishes when the twin-beam block structure is exact.  The caller
    judges it against its own threshold.  A Gamma whose energy overflows
    double precision raises ValueError.
    """
    m = sq.grid.m
    g = sq.gamma
    with np.errstate(over="ignore"):
        total = np.linalg.norm(g) ** 2
    if total == math.inf:
        raise ValueError(
            f"squeezing-matrix energy ||Gamma||_F^2 overflows double precision "
            f"(max|Gamma| = {np.abs(g).max():.3e}); lower the gain"
        )
    if total == 0.0:
        leakage = 0.0
    else:
        diag_energy = np.linalg.norm(g[:m, :m]) ** 2 + np.linalg.norm(g[m:, m:]) ** 2
        leakage = float(diag_energy / total)
    jsa = JointSpectralAmplitude(m=m, j_matrix=g[m:, :m].copy())
    return JsaExtraction(jsa=jsa, leakage=leakage)


def _max_valid_detuning(crystal: CrystalConfig, pump: PumpConfig) -> float:
    """Largest |detuning| keeping both downconverted wavelengths in Sellmeier range."""
    lo = crystal.sellmeier_o.lambda_min_um
    hi = crystal.sellmeier_o.lambda_max_um
    omega0 = pump.omega_0
    upper = 2.0 * math.pi * C_UM_PER_FS / lo - omega0
    lower = omega0 - 2.0 * math.pi * C_UM_PER_FS / hi
    return 0.999999 * min(upper, lower)


def find_central_detuning(crystal: CrystalConfig, pump: PumpConfig) -> float:
    """Central detuning Omega_s >= 0 of the phase-matched signal band.

    Solves the full Delta(Omega, -Omega) = 0 within the Sellmeier validity
    window.  The quadratic-model closed form sqrt(Delta_0 / k''_0) is
    ``mehler.characteristic_times(...).omega_s``.  The first scan sample
    is Delta_0 itself, so Delta_0 = 0 returns exactly 0.0.
    """
    from scipy.optimize import brentq  # deferred: see the module docstring

    fun = lambda w: float(phase_mismatch(w, -w, crystal, pump))
    hi = _max_valid_detuning(crystal, pump)
    omegas = np.linspace(0.0, hi, 129)
    vals = np.array([fun(w) for w in omegas])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        raise ValueError("no phase-matched solution in band")
    i = sign_change[0]
    return float(brentq(fun, omegas[i], omegas[i + 1], xtol=1e-14))
