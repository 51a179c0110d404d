"""Physical squeezing matrix for collinear type-I parametric downconversion.

Builds the first-order interaction generator on a discrete frequency
grid from crystal dispersion (Sellmeier data), pump parameters, and grid
geometry; extracts the joint-spectral-amplitude block and locates the
central detuning of the phase-matched bands.

Conventions: detunings in rad/fs, wave vectors in rad/mm, crystal length
in mm, wavelengths in um inside the dispersion model.  The pump is
extraordinary-polarized at the optic-axis angle theta0; the downconverted
light is ordinary (type-I phase matching).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

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
        if lo < self.lambda_min_um or hi > self.lambda_max_um:
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
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
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
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 < half_width < math.inf:
        raise ValueError("half_width must be positive and finite")
    return FrequencyGrid(m=m, spacing=half_width / m)


@dataclass(frozen=True)
class SqueezingMatrixPhysical:
    """Discrete squeezing matrix Gamma = -i H_I^(1) on a frequency grid."""

    grid: FrequencyGrid
    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=complex)
        n = 2 * self.grid.m
        if g.shape != (n, n):
            raise ValueError("gamma must be 2m x 2m")
        scale = np.abs(g).max()
        if scale > 0 and np.abs(g - g.T).max() > 1e-12 * scale:
            raise ValueError("gamma must be symmetric")
        object.__setattr__(self, "gamma", g)


def _check_range(crystal: CrystalConfig, lambda_um, polarization: str) -> None:
    """Sellmeier validity checks of a polarization (extraordinary uses both sets)."""
    if polarization not in ("ordinary", "extraordinary"):
        raise ValueError(f"unknown polarization {polarization!r}")
    crystal.sellmeier_o.check_range(lambda_um)
    if polarization == "extraordinary":
        crystal.sellmeier_e.check_range(lambda_um)


def refractive_index(
    crystal: CrystalConfig,
    lambda_um,
    polarization: str,
    theta_deg: float | None = None,
):
    """Refractive index at a wavelength for ordinary or extraordinary rays.

    The extraordinary branch applies the uniaxial angle-dependent index
    1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2, reducing to n_o at
    theta = 0 and to the principal n_e at theta = 90 deg.  ``theta_deg``
    defaults to the crystal's optic-axis angle.
    """
    _check_range(crystal, lambda_um, polarization)
    if polarization == "ordinary":
        return np.sqrt(crystal.sellmeier_o.n_squared(lambda_um))
    theta = math.radians(crystal.theta0_deg if theta_deg is None else float(theta_deg))
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
    n = refractive_index(crystal, lam, pol)
    return n * omega / C_UM_PER_FS * UM_PER_MM


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
    """Delta_jl = k_p(Omega_j + Omega_l) - k(Omega_j) - k(Omega_l) (rad/mm)."""
    oj = np.asarray(omega_j, dtype=float)
    ol = np.asarray(omega_l, dtype=float)
    kp = wave_vector(oj + ol, "pump", crystal, pump)
    return kp - wave_vector(oj, "downconverted", crystal, pump) - wave_vector(
        ol, "downconverted", crystal, pump
    )


def pump_spectrum(sum_detuning, pump: PumpConfig, crystal: CrystalConfig):
    """Pump spectral amplitude at the interaction-picture origin z0.

    Gaussian exp(-Omega_+^2 / (2 Omega_p^2)) with Omega_p = 2 sqrt(ln 2)/tau_p,
    normalized to 1 at the peak.  Constant and group-delay phases are removed
    by convention; with ``prechirp_compensated`` the remaining dispersion
    phase is compensated too and the amplitude is real, otherwise the factor
    exp(i (k_p(O) - k_p0 - k'_p0 O) z0) is kept.
    """
    osum = np.asarray(sum_detuning, dtype=float)
    omega_p = pump_bandwidth(pump)
    amp = np.exp(-(osum**2) / (2.0 * omega_p**2))
    if pump.prechirp_compensated:
        return amp.astype(complex)
    z0_mm = pump.z0_fraction * crystal.length_mm
    kp = wave_vector(osum, "pump", crystal, pump)
    kp0, kp1, _ = wave_vector_derivatives(0.0, "pump", crystal, pump)
    phase = (kp - kp0 - kp1 * osum) * z0_mm
    return amp * np.exp(1j * phase)


def _sinc(x):
    """sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / math.pi)


def build_squeezing_matrix(
    crystal: CrystalConfig, pump: PumpConfig, grid: FrequencyGrid
) -> SqueezingMatrixPhysical:
    """Assemble Gamma_jl = gain E0(O_j+O_l) e^{i Delta_jl (L/2 - z0)} sinc(Delta_jl L/2).

    Each continuum sample is scaled by the grid spacing so the spectrum is
    grid-independent, the whole matrix is multiplied by -i, and the global
    phase is removed by multiplying with conj(p / |p|), p the largest
    element.  For a transform-limited pump (real E0) at z0 = L/2 every
    element before the rotation is a real number times -i, p / |p| is
    exactly -i or i, and the rotated Gamma has an imaginary part that is
    exactly zero; otherwise Gamma is complex.
    """
    om = grid.detunings
    osum = om[:, None] + om[None, :]
    e0 = pump_spectrum(osum, pump, crystal)
    delta = phase_mismatch(om[:, None], om[None, :], crystal, pump)
    length = crystal.length_mm
    z0_mm = pump.z0_fraction * length
    gamma = (
        pump.gain
        * e0
        * np.exp(1j * delta * (0.5 * length - z0_mm))
        * _sinc(0.5 * delta * length)
        * grid.spacing
    )
    gamma = -1j * gamma
    peak = gamma.flat[np.argmax(np.abs(gamma))]
    if peak != 0.0:
        gamma = gamma * (peak / abs(peak)).conjugate()
    gamma = 0.5 * (gamma + gamma.T)
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
    judges it against its own threshold.
    """
    m = sq.grid.m
    g = sq.gamma
    total = np.linalg.norm(g) ** 2
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
    fun = lambda w: float(phase_mismatch(w, -w, crystal, pump))
    hi = _max_valid_detuning(crystal, pump)
    omegas = np.linspace(0.0, hi, 129)
    vals = np.array([fun(w) for w in omegas])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        raise ValueError("no phase-matched solution in band")
    i = sign_change[0]
    return float(brentq(fun, omegas[i], omegas[i + 1], xtol=1e-14))
