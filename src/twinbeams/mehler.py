"""Analytic Gaussian model of the twin-beam JSA.

Within the quadratic-dispersion, narrow-pump approximations the JSA
kernel is a complex double Gaussian, and its singular-value
decomposition is available in closed form as a complex Mehler series:
the Schmidt modes are chirped Hermite-Gauss functions and the singular
values decay geometrically.  This module computes the crystal's
characteristic times, the double-Gaussian parameters, the Mehler
factors (mode scales, chirp rates, ratio q, phases), the analytic
Schmidt modes sampled on a grid, and direct evaluations of both sides
of the kernel identity for verification.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .pdc import (
    CrystalConfig,
    PumpConfig,
    pump_bandwidth,
    wave_vector_derivatives,
)

__all__ = [
    "SIGMA0",
    "HERMITE_MAX_ORDER",
    "CharacteristicTimes",
    "GaussianModelParams",
    "MehlerFactors",
    "hermite_gauss",
    "characteristic_times",
    "gaussian_model_params",
    "mehler_factors",
    "analytic_schmidt_mode",
    "evaluate_kernel_lhs",
    "evaluate_kernel_sum",
    "terms_for_tail_bound",
    "mode_overlap",
]

#: Width-matching constant of the sinc -> Gaussian replacement
#: (equal full width at half maximum).
SIGMA0 = 1.61

#: The normalized three-term recurrence is numerically safe far beyond
#: physically relevant orders; this bound is generous.
HERMITE_MAX_ORDER = 10_000


def _hermite_functions(xa: np.ndarray):
    """Yield h_0(xa), h_1(xa), ... by the normalized three-term recurrence."""
    h_prev = np.zeros_like(xa)
    h = math.pi ** (-0.25) * np.exp(-0.5 * xa**2)
    for j in itertools.count():
        yield h
        h, h_prev = xa * math.sqrt(2.0 / (j + 1)) * h - math.sqrt(j / (j + 1)) * h_prev, h


def hermite_gauss(k: int, x):
    """Hermite-Gauss function h_k(x) = (2^k k! sqrt(pi))^(-1/2) H_k(x) e^(-x^2/2).

    Evaluated by the stable recurrence on the normalized functions,
    h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x),
    which avoids the factorial overflow of raw Hermite polynomials.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    if k > HERMITE_MAX_ORDER:
        raise ValueError(f"order {k} beyond supported bound {HERMITE_MAX_ORDER}")
    h = next(itertools.islice(_hermite_functions(np.asarray(x, dtype=float)), k, None))
    return h if np.ndim(x) else float(h)


@dataclass(frozen=True)
class CharacteristicTimes:
    """Characteristic times of the crystal-pump configuration.

    tau_pd = k'_p0 L is the absolute pump group delay, tau_ps =
    sqrt(k''_p0 L) the pump spread time, tau_d = (k'_p0 - k'_0) L the
    relative pump-signal group delay and tau_s = sqrt(k''_0 Delta_0) L
    the phase-matched spread time; omega_p and omega_s are the pump
    bandwidth and the central signal detuning (rad/fs).
    """

    tau_pd: float
    tau_ps: float
    tau_d: float
    tau_s: float
    omega_p: float
    omega_s: float

    def __post_init__(self):
        fields = (
            self.tau_pd, self.tau_ps, self.tau_d, self.tau_s,
            self.omega_p, self.omega_s,
        )
        if not all(math.isfinite(v) for v in fields):
            raise ValueError("characteristic times must be finite")
        if not self.omega_p > 0:
            raise ValueError("omega_p must be positive")


def characteristic_times(
    crystal: CrystalConfig, pump: PumpConfig
) -> CharacteristicTimes:
    """Characteristic times from the dispersion model.

    omega_s = sqrt(Delta_0 / k''_0) is the central detuning of the
    quadratic model.  Requires the nondegenerate regime Delta_0 / k''_0 > 0;
    at or past the degenerate cut the Gaussian model has no central detuning.
    """
    length = crystal.length_mm
    kp0, kp1, kp2 = wave_vector_derivatives(0.0, "pump", crystal, pump)
    k0, k1, k2 = wave_vector_derivatives(0.0, "downconverted", crystal, pump)
    delta0 = kp0 - 2.0 * k0
    if delta0 == 0.0 or delta0 / k2 <= 0.0:
        raise ValueError(
            "degenerate regime (no real central detuning): the Gaussian model "
            "does not apply; use the numerical pipeline"
        )
    return CharacteristicTimes(
        tau_pd=kp1 * length,
        tau_ps=math.sqrt(kp2 * length),
        tau_d=(kp1 - k1) * length,
        tau_s=math.sqrt(k2 * delta0) * length,
        omega_p=pump_bandwidth(pump),
        omega_s=math.sqrt(delta0 / k2),
    )


@dataclass(frozen=True)
class GaussianModelParams:
    """Double-Gaussian kernel parameters (fs^2).

    The kernel exp(-(mu x^2 + nu y^2)/2 + (eta + i xi) x y) is
    square-integrable iff mu, nu > 0 and sqrt(mu nu) > |eta|.
    """

    mu: float
    nu: float
    eta: float
    xi: float

    def __post_init__(self):
        if not (self.mu > 0 and self.nu > 0):
            raise ValueError(f"mu, nu must be positive, got {self.mu}, {self.nu}")
        root = math.sqrt(self.mu * self.nu)
        if root <= abs(self.eta):
            raise ValueError(
                "kernel is not square-integrable: sqrt(mu nu) = "
                f"{root:.6g} <= |eta| = {abs(self.eta):.6g}"
            )


def gaussian_model_params(t: CharacteristicTimes) -> GaussianModelParams:
    """Double-Gaussian parameters from the characteristic times.

    mu = 1/Omega_p^2 + (tau_d - tau_s)^2/(4 sigma_0^2) and cyclic
    companions; xi = tau_ps^2 / 2.  The sigma_0 constant matches the
    sinc and Gaussian full widths at half maximum.
    """
    inv_op2 = 1.0 / t.omega_p**2
    four_s2 = 4.0 * SIGMA0**2
    return GaussianModelParams(
        mu=inv_op2 + (t.tau_d - t.tau_s) ** 2 / four_s2,
        nu=inv_op2 + (t.tau_d + t.tau_s) ** 2 / four_s2,
        eta=-inv_op2 - (t.tau_d**2 - t.tau_s**2) / four_s2,
        xi=0.5 * t.tau_ps**2,
    )


@dataclass(frozen=True)
class MehlerFactors:
    """Closed-form SVD factors of the double-Gaussian kernel.

    tau1, tau2 are the signal/idler mode time scales (fs); zeta1, zeta2
    the dimensionless chirp rates; q the geometric ratio of the
    singular values and p = sqrt(1 - q^2); theta0, theta the phases of
    the complex factors p_c, q_c; ``norm`` the Hilbert-Schmidt norm of
    the rescaled symmetric kernel, (1 + xi'^2)^(1/4), whose singular
    values are norm * p * q^k.  (The physical, unrescaled kernel has
    Hilbert-Schmidt norm v^(-1/2) instead.)  ``zeta`` and ``xi_prime``
    carry the rescaled chirp and coupling needed to evaluate the kernel
    series.
    """

    tau1: float
    tau2: float
    zeta1: float
    zeta2: float
    q: float
    p: float
    theta0: float
    theta: float
    norm: float
    zeta: float
    xi_prime: float

    def __post_init__(self):
        if not (self.tau1 > 0 and self.tau2 > 0):
            raise ValueError("tau1, tau2 must be positive")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
        if abs(self.p**2 + self.q**2 - 1.0) > 1e-12:
            raise ValueError("p^2 + q^2 must equal 1")


def _rescaled_coupling(params: GaussianModelParams) -> tuple[float, float, float]:
    """eta', xi' (eta, xi over sqrt(mu nu)) and w = sqrt((1+xi'^2)(1-eta'^2))."""
    root = math.sqrt(params.mu * params.nu)
    eta_p = params.eta / root
    xi_p = params.xi / root
    return eta_p, xi_p, math.sqrt((1.0 + xi_p**2) * (1.0 - eta_p**2))


def mehler_factors(params: GaussianModelParams) -> MehlerFactors:
    """Mehler factorization parameters of a double-Gaussian kernel.

    u = sqrt(mu nu + xi^2) and v = sqrt(mu nu - eta^2) fix the mode
    scales tau1 = sqrt(uv/nu), tau2 = sqrt(uv/mu), the ratio
    q = sqrt((u-v)/(u+v)) and the chirps zeta = eta xi/(2uv),
    zeta1 = xi(nu+eta)/(2uv), zeta2 = xi(mu+eta)/(2uv).  The phases
    come from the complex factors of the rescaled kernel,
    q_c = (eta' + i xi')/(1 + w + i eta' xi') and
    p_c = sqrt(2w/(1 + w + i eta' xi')) with eta' = eta/sqrt(mu nu),
    xi' = xi/sqrt(mu nu), w = sqrt((1+xi'^2)(1-eta'^2)); principal
    square root and argument throughout.  |q_c| = q and
    |p_c| = p (1+xi'^2)^(1/4) are verified internally.
    """
    mu, nu, eta, xi = params.mu, params.nu, params.eta, params.xi
    mn = mu * nu
    u = math.sqrt(mn + xi * xi)
    v = math.sqrt(mn - eta * eta)
    if u < v:
        raise AssertionError("u < v cannot occur for square-integrable input")
    uv = u * v
    tau1 = math.sqrt(uv / nu)
    tau2 = math.sqrt(uv / mu)
    q = math.sqrt((u - v) / (u + v))
    p = math.sqrt(1.0 - q * q)
    zeta = eta * xi / (2.0 * uv)
    zeta1 = xi * (nu + eta) / (2.0 * uv)
    zeta2 = xi * (mu + eta) / (2.0 * uv)
    eta_p, xi_p, w = _rescaled_coupling(params)
    denom = 1.0 + w + 1j * eta_p * xi_p
    q_c = (eta_p + 1j * xi_p) / denom
    p_c = cmath.sqrt(2.0 * w / denom)
    norm = (1.0 + xi_p**2) ** 0.25
    if abs(abs(q_c) - q) > 1e-12:
        raise AssertionError(f"|q_c| = {abs(q_c)} inconsistent with q = {q}")
    if abs(abs(p_c) - p * norm) > 1e-12:
        raise AssertionError("|p_c| inconsistent with p (1+xi'^2)^(1/4)")
    if abs(p_c**2 + q_c**2 - 1.0) > 1e-12:
        raise AssertionError("p_c^2 + q_c^2 != 1")
    return MehlerFactors(
        tau1=tau1,
        tau2=tau2,
        zeta1=zeta1,
        zeta2=zeta2,
        q=q,
        p=p,
        theta0=cmath.phase(p_c),
        theta=cmath.phase(q_c),
        norm=norm,
        zeta=zeta,
        xi_prime=xi_p,
    )


def analytic_schmidt_mode(
    k: int,
    branch: str,
    f: MehlerFactors,
    t: CharacteristicTimes,
    grid,
) -> np.ndarray:
    """Chirped Hermite-Gauss Schmidt mode sampled on a detuning grid.

    Signal: C_k(Omega) = sqrt(tau1) h_k(tau1 dO) e^{i zeta1 tau1^2 dO^2}
    with dO = Omega - omega_s; the idler mode uses tau2, dO = Omega +
    omega_s, and the conjugated phase sign.  The pump group-delay phase
    e^{i tau_pd dO} is left out (the "properly delayed" mode), which is
    how the modes are compared against numerical SVD modes.  The result
    is l2-normalized with the grid-spacing weight.
    """
    om = np.asarray(grid, dtype=float)
    if om.ndim != 1 or len(om) < 2:
        raise ValueError("grid must be a 1-D detuning array of at least 2 points")
    spacing = om[1] - om[0]
    if branch == "signal":
        d_om = om - t.omega_s
        tau, chirp, sign = f.tau1, f.zeta1, +1.0
    elif branch == "idler":
        d_om = om + t.omega_s
        tau, chirp, sign = f.tau2, f.zeta2, -1.0
    else:
        raise ValueError(f"unknown branch {branch!r}")
    phase = sign * chirp * tau**2 * d_om**2
    mode = math.sqrt(tau) * hermite_gauss(k, tau * d_om) * np.exp(1j * phase)
    norm = math.sqrt(float(np.sum(np.abs(mode) ** 2)) * spacing)
    if norm > 0:
        mode = mode / norm
    return mode


def evaluate_kernel_lhs(params: GaussianModelParams, x, y):
    """Rescaled symmetric double-Gaussian kernel, evaluated directly.

    K(x, y) = pi^(-1/2) exp(-(x^2+y^2)/(2w) + (eta' + i xi') x y / w)
    in the rescaled coordinates x = tau1 * (physical), y = tau2 * (physical).
    """
    eta_p, xi_p, w = _rescaled_coupling(params)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    # (xa * ya) is grouped first so K(x, y) == K(y, x) holds bitwise.
    val = math.pi ** (-0.5) * np.exp(
        -(xa**2 + ya**2) / (2.0 * w) + ((eta_p + 1j * xi_p) / w) * (xa * ya)
    )
    return val if (np.ndim(x) or np.ndim(y)) else complex(val)


def evaluate_kernel_sum(f: MehlerFactors, x, y, terms: int):
    """Partial Mehler series of the rescaled kernel, with an error bound.

    Sums norm * p * e^{i theta0} sum_k (q e^{i theta})^k h_k(x) h_k(y)
    e^{i zeta (x^2+y^2)} over k < terms and returns (value, bound) where
    the bound is the tail estimate
    norm * p * q^terms / (1-q) * max|h|^2 (max|h| = pi^(-1/4)).
    In exact arithmetic it is a rigorous bound on |K(x, y) - value| at
    every real x, y: |h_k(x)| <= pi^(-1/4) for every k and every real x
    (Indritz 1961), and the chirp factors have unit modulus.  It does not
    cover the rounding error of the summation, so the computed deviation
    may exceed it by a few ulps of the kernel norm when the tail is tiny.
    """
    if terms < 1:
        raise ValueError("terms must be at least 1")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    xa, ya = np.broadcast_arrays(xa, ya)
    ratio = f.q * cmath.exp(1j * f.theta)
    coeff = 1.0 + 0.0j
    total = np.zeros(xa.shape, dtype=complex)
    for _, hx, hy in zip(range(terms), _hermite_functions(xa), _hermite_functions(ya)):
        total = total + coeff * hx * hy
        coeff *= ratio
    value = (
        f.norm
        * f.p
        * cmath.exp(1j * f.theta0)
        * total
        * np.exp(1j * f.zeta * (xa**2 + ya**2))
    )
    bound = _tail_bound(f, terms)
    if not (np.ndim(x) or np.ndim(y)):
        return complex(value), bound
    return value, bound


def _tail_bound(f: MehlerFactors, terms: int) -> float:
    if f.q == 0.0:
        return 0.0
    return f.norm * f.p * f.q**terms / (1.0 - f.q) / math.sqrt(math.pi)


def terms_for_tail_bound(f: MehlerFactors, rel_tol: float) -> int:
    """Fewest terms whose ``evaluate_kernel_sum`` tail bound is <= rel_tol * norm.

    Solves p q^N / ((1 - q) sqrt(pi)) = rel_tol for N, then steps N past
    the rounding of the logarithms against the bound itself.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    limit = rel_tol * f.norm
    if _tail_bound(f, 1) <= limit:
        return 1
    terms = math.ceil(
        math.log(rel_tol * (1.0 - f.q) * math.sqrt(math.pi) / f.p) / math.log(f.q)
    )
    while terms > 1 and _tail_bound(f, terms - 1) <= limit:
        terms -= 1
    while _tail_bound(f, terms) > limit:
        terms += 1
    return terms


def mode_overlap(a, b, spacing: float = 1.0) -> complex:
    """Discrete inner product sum(conj(a) * b) * spacing.

    For modes l2-normalized with the same grid-spacing weight the
    magnitude is at most 1 (up to rounding).
    """
    av = np.asarray(a)
    bv = np.asarray(b)
    if av.shape != bv.shape:
        raise ValueError("modal vectors must have equal length")
    return complex(np.sum(av.conj() * bv) * spacing)
