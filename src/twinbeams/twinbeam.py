"""Twin-beam analysis of a two-band squeezing matrix.

A squeezing matrix whose diagonal (signal-signal, idler-idler) blocks
vanish couples the two bands only through the joint spectral amplitude.
Its squeezing eigenmodes then come in degenerate duos built from the
Schmidt modes of the JSA block; this module implements that
construction, the associated-Hermitian-matrix route to the same
spectrum, the degeneracy pairing diagnostic, the Schmidt-number-like
mode count, and the geometric-progression fit of the eigenvalue decay.

Block layout convention: full-grid vectors and matrices in this module
stack the signal band first and the idler band second, matching the
JSA block orientation (signal rows, idler columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .takagi import (
    TakagiFactors,
    _largest_entry_phase,
    _unitarity_defect,
    takagi_real_symmetric,
)

__all__ = [
    "JointSpectralAmplitude",
    "SchmidtDecomposition",
    "SqueezingSpectrum",
    "PairRecord",
    "PairingReport",
    "GeometricFit",
    "block_squeezing_matrix",
    "signal_first",
    "schmidt_from_jsa",
    "eigenmodes_from_schmidt",
    "associated_spectral",
    "spectrum_from_takagi",
    "pair_eigenvalues",
    "schmidt_number",
    "fit_geometric",
]

SPECTRUM_SOURCES = ("jsa_svd", "associated_spectral", "direct_takagi")


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Signal x idler coupling block of the squeezing matrix.

    ``j_matrix`` holds the block of the full (already -i-rotated)
    squeezing matrix, so it is consumed directly by the SVD.
    """

    m: int
    j_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        j = np.asarray(self.j_matrix, dtype=complex)
        if j.shape != (self.m, self.m):
            raise ValueError("j_matrix must be m x m")
        object.__setattr__(self, "j_matrix", j)


def _check_descending(r: np.ndarray) -> None:
    """ValueError unless ``r`` is nonnegative and descending; NaN fails too."""
    scale = max(r[0], 1.0) if len(r) else 1.0
    if not (np.all(r >= -1e-15) and np.all(np.diff(r) <= 1e-12 * scale)):
        raise ValueError("values must be nonnegative and descending")


@dataclass(frozen=True)
class SchmidtDecomposition:
    """SVD of the JSA block: J = C diag(values) D^dagger.

    Columns of ``c`` are the signal Schmidt modes; the idler modal
    function of mode j is the conjugate of column j of ``d``.
    """

    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    values: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        d = np.asarray(self.d, dtype=complex)
        r = np.asarray(self.values, dtype=float)
        m = c.shape[0]
        if c.shape != (m, m) or d.shape != (m, m) or r.shape != (m,):
            raise ValueError("c, d must be m x m and values length m")
        for name, u in (("c", c), ("d", d)):
            if _unitarity_defect(u) > 1e-10:
                raise ValueError(f"{name} is not unitary")
        _check_descending(r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "values", r)


def _duo_gaps(values: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    """Relative gap of every consecutive duo, normalized by the leading value."""
    r1 = values[0] if len(values) else 0.0
    pairs = []
    for k in range(len(values) // 2):
        i0, i1 = 2 * k, 2 * k + 1
        gap = 0.0 if r1 == 0.0 else abs(values[i0] - values[i1]) / r1
        pairs.append((i0, i1, float(gap)))
    return tuple(pairs)


@dataclass(frozen=True)
class SqueezingSpectrum:
    """Squeezing eigenvalues and eigenmodes of a two-band matrix.

    ``pairs`` is derived from ``values``: (i0, i1, relative gap) for every
    consecutive duo of the descending values.  ``source`` names the path
    that produced the spectrum.  The modes must be unitary to 1e-10,
    max|V^H V - I|, which runs in real arithmetic when every column is
    purely real or purely imaginary (every path, for a real matrix).
    """

    values: np.ndarray
    modes: np.ndarray = field(repr=False)
    pairs: tuple = field(init=False)
    source: str = "direct_takagi"

    def __post_init__(self):
        r = np.asarray(self.values, dtype=float)
        v = np.asarray(self.modes, dtype=complex)
        n = len(r)
        if v.shape != (n, n):
            raise ValueError("modes must be n x n for n values")
        _check_descending(r)
        if _unitarity_defect(v) > 1e-10:
            raise ValueError("modes are not unitary")
        if self.source not in SPECTRUM_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        object.__setattr__(self, "values", r)
        object.__setattr__(self, "modes", v)
        object.__setattr__(self, "pairs", _duo_gaps(r))


def block_squeezing_matrix(jsa: JointSpectralAmplitude) -> np.ndarray:
    """Full 2m x 2m matrix [[0, J], [J^T, 0]] with exact block structure."""
    m = jsa.m
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, m:] = jsa.j_matrix
    out[m:, :m] = jsa.j_matrix.T
    return out


def signal_first(gamma: np.ndarray) -> np.ndarray:
    """Reorder a grid-ordered (idler band first) 2m x 2m matrix to signal-band-first."""
    return np.roll(gamma, gamma.shape[0] // 2, axis=(0, 1))


def schmidt_from_jsa(jsa: JointSpectralAmplitude) -> SchmidtDecomposition:
    """Schmidt decomposition of the JSA via SVD of the stored block.

    Each (c_k, d_k) pair is rotated by one common phase, which leaves
    C diag(r) D^dagger unchanged, so that the largest entry of c_k is
    real positive.
    """
    u, s, vh = np.linalg.svd(jsa.j_matrix)
    phase = _largest_entry_phase(u)
    u /= phase
    d = vh.conj().T
    d /= phase
    return SchmidtDecomposition(c=u, d=d, values=s)


def eigenmodes_from_schmidt(sd: SchmidtDecomposition) -> SqueezingSpectrum:
    """Degenerate duo of squeezing eigenmodes for each Schmidt mode.

    Mode A_j concatenates the signal Schmidt mode with the conjugated
    idler mode, (C_j; D_j*)/sqrt(2); its partner B_j = (i C_j; -i D_j*)/sqrt(2)
    shares the Takagi value r_j, so the spectrum has exact double
    multiplicity.
    """
    m = sd.c.shape[0]
    c = sd.c
    d_bar = sd.d.conj()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    modes = np.empty((2 * m, 2 * m), dtype=complex)
    modes[:m, 0::2] = c * inv_sqrt2
    modes[m:, 0::2] = d_bar * inv_sqrt2
    modes[:m, 1::2] = 1j * c * inv_sqrt2
    modes[m:, 1::2] = -1j * d_bar * inv_sqrt2
    values = np.repeat(sd.values, 2)
    return SqueezingSpectrum(values=values, modes=modes, source="jsa_svd")


def associated_spectral(gamma: np.ndarray) -> SqueezingSpectrum:
    """Squeezing spectrum through the associated Hermitian matrix.

    Conjugating the idler-band rows of the (signal-first) symmetric
    matrix yields a Hermitian matrix whose eigenpairs (lambda, U) map to
    squeezing eigenmodes: r = |lambda|, mode = U with the idler half
    conjugated, times i when lambda < 0.  The +-lambda signs of each duo
    are what distinguishes the two partners.  Eigenpairs are ordered as in
    the Takagi module (descending |lambda|, stable), and a matrix with an
    exactly zero imaginary part, which is its own associated matrix, takes
    ``takagi_real_symmetric`` (the rule of ``takagi_general``).
    """
    g = np.asarray(gamma, dtype=complex)
    n = g.shape[0]
    if g.ndim != 2 or g.shape != (n, n) or n % 2:
        raise ValueError("gamma must be square with even dimension")
    m = n // 2
    ga = g.copy()
    ga[m:, :] = ga[m:, :].conj()
    scale = max(np.abs(ga).max(), 1e-300)
    if np.abs(ga - ga.conj().T).max() > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian after the associated-matrix reshuffle")
    if not np.any(ga.imag):
        f = takagi_real_symmetric(ga.real)
        return SqueezingSpectrum(values=f.r, modes=f.v, source="associated_spectral")
    lam, u = np.linalg.eigh(ga)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    modes = u[:, order]
    modes /= _largest_entry_phase(modes)
    modes[m:, :] = modes[m:, :].conj()
    modes[:, lam < 0] *= 1j
    # Complex eigh mixes the +-lambda partners of small eigenvalues, which
    # the idler conjugation makes non-orthogonal: take the polar factor.
    w, _, vh = np.linalg.svd(modes)
    return SqueezingSpectrum(
        values=np.abs(lam), modes=w @ vh, source="associated_spectral"
    )


def spectrum_from_takagi(factors: TakagiFactors) -> SqueezingSpectrum:
    """Wrap a Takagi factorization of the full matrix as a spectrum."""
    return SqueezingSpectrum(
        values=factors.r, modes=factors.v, source="direct_takagi"
    )


@dataclass(frozen=True)
class PairRecord:
    """One accepted duo: 1-based pair id, element indices, relative gap."""

    pair_id: int
    i0: int
    i1: int
    gap: float


@dataclass(frozen=True)
class PairingReport:
    """Greedy consecutive pairing of a descending spectrum.

    ``first_failure_index`` is the 1-based rank of the first eigenvalue
    that could not be paired (None when everything paired).
    """

    rel_tol: float
    accepted: tuple
    first_failure_index: int | None

    @property
    def n_pairs(self) -> int:
        return len(self.accepted)

    @property
    def all_paired(self) -> bool:
        return self.first_failure_index is None


def pair_eigenvalues(
    spectrum: SqueezingSpectrum, rel_tol: float = 1e-2
) -> PairingReport:
    """Pair consecutive eigenvalues while their relative gap stays within tol.

    The gap is |r_{2k-1} - r_{2k}| / r_1.  Pairing stops at the first duo
    exceeding ``rel_tol`` (or at an odd leftover value) and reports the
    1-based index where it failed.
    """
    values = spectrum.values
    n = len(values)
    accepted = []
    failure = None
    for k, (i0, i1, gap) in enumerate(spectrum.pairs):
        if gap <= rel_tol:
            accepted.append(PairRecord(pair_id=k + 1, i0=i0, i1=i1, gap=gap))
        else:
            failure = i0 + 1
            break
    if failure is None and n % 2 == 1 and 2 * len(accepted) == n - 1:
        failure = n
    return PairingReport(
        rel_tol=rel_tol, accepted=tuple(accepted), first_failure_index=failure
    )


def schmidt_number(values) -> float:
    """Effective mode count K_S = (sum r)^2 / sum r^2."""
    r = np.asarray(values, dtype=float)
    if np.any(r < 0):
        raise ValueError("values must be nonnegative")
    total_sq = float(np.sum(r * r))
    if total_sq == 0.0:
        raise ValueError("all-zero values have no Schmidt number")
    return float(np.sum(r)) ** 2 / total_sq


class GeometricFit(NamedTuple):
    r1: float
    q: float
    rms_residual: float


def _duo_means(values) -> np.ndarray:
    """Means of consecutive duos, dropping those below 1e-6 of the leading one."""
    r = np.asarray(values, dtype=float)
    n_pairs = len(r) // 2
    means = 0.5 * (r[0 : 2 * n_pairs : 2] + r[1 : 2 * n_pairs : 2])
    if n_pairs == 0 or means[0] <= 0:
        raise ValueError("leading pair must be positive")
    return means[(means >= 1e-6 * means[0]) & (means > 0)]


def fit_geometric(values, max_pairs: int | None = None) -> GeometricFit:
    """Least-squares geometric fit r_l ~ r1 q^l of the duo means.

    Consecutive duos are averaged to one value per pair index l; pairs
    below 1e-6 of the leading one are dropped (numerical-noise floor)
    and ``max_pairs`` optionally caps the window.  The fit is linear in
    log r, so the residual is a log-domain RMS.
    """
    means = _duo_means(values)
    if max_pairs is not None:
        means = means[:max_pairs]
    if len(means) < 3:
        raise ValueError("need at least 3 pairs above the noise floor to fit")
    l = np.arange(len(means), dtype=float)
    logr = np.log(means)
    slope, intercept = np.polyfit(l, logr, 1)
    resid = logr - (intercept + slope * l)
    return GeometricFit(
        r1=float(np.exp(intercept)),
        q=float(np.exp(slope)),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )

