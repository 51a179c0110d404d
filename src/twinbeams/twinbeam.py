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
    _abs_max,
    _as_square,
    _check_symmetric,
    _factors_from_signed,
    _float_or_complex,
    _gram_minus_identity,
    _largest_entry_phase,
    _minus,
    _polar,
    _unitarity_defect,
    takagi_real_symmetric,
)

__all__ = [
    "JointSpectralAmplitude",
    "SchmidtDecomposition",
    "SqueezingSpectrum",
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

@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Signal x idler coupling block of the squeezing matrix.

    ``j_matrix`` holds the block of the full (already phase-rotated)
    squeezing matrix, so it is consumed directly by the SVD.  A float64
    block stays float64; any other input is stored as complex128.  NaN or
    infinite entries are rejected.
    """

    m: int
    j_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        j = _float_or_complex(self.j_matrix)
        if j.shape != (self.m, self.m):
            raise ValueError("j_matrix must be m x m")
        object.__setattr__(self, "j_matrix", _as_square(j, "JSA j_matrix"))


def _check_descending(r: np.ndarray) -> None:
    """ValueError unless ``r`` is finite, nonnegative and descending."""
    scale = max(r[0], 1.0) if len(r) else 1.0
    if not (
        np.all(np.isfinite(r))
        and np.all(r >= -1e-15)
        and np.all(np.diff(r) <= 1e-12 * scale)
    ):
        raise ValueError("values must be finite, nonnegative and descending")


@dataclass(frozen=True)
class SchmidtDecomposition:
    """SVD of the JSA block: J = C diag(values) D^dagger.

    Columns of ``c`` are the signal Schmidt modes; the idler modal
    function of mode j is the conjugate of column j of ``d``.  Each of
    ``c`` and ``d`` stays float64 when given as float64 (the SVD of a real
    JSA) and is stored as complex128 otherwise.  Each must be unitary to
    1e-10, max|U^H U - I|, which a NaN or infinite entry fails.
    """

    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    values: np.ndarray

    def __post_init__(self):
        c = _float_or_complex(self.c)
        d = _float_or_complex(self.d)
        r = np.asarray(self.values, dtype=float)
        m = c.shape[0]
        if c.shape != (m, m) or d.shape != (m, m) or r.shape != (m,):
            raise ValueError("c, d must be m x m and values length m")
        for name, u in (("c", c), ("d", d)):
            if not _unitarity_defect(u) <= 1e-10:
                raise ValueError(f"{name} is not unitary")
        _check_descending(r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "values", r)


def _duo_gaps(values: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    """Relative gap of every consecutive duo, normalized by the leading value."""
    n = len(values) // 2 * 2
    r1 = values[0] if n else 0.0
    gaps = np.abs(values[0:n:2] - values[1:n:2])
    gaps = np.zeros_like(gaps) if r1 == 0.0 else gaps / r1
    return tuple(zip(range(0, n, 2), range(1, n, 2), gaps.tolist()))


@dataclass(frozen=True)
class SqueezingSpectrum:
    """Squeezing eigenvalues and eigenmodes of a two-band matrix.

    ``pairs`` is derived from ``values``: (i0, i1, relative gap) for every
    consecutive duo of the descending values.  The route that produced it
    is named by the factors a run stores (a ``SchmidtDecomposition`` or
    ``TakagiFactors``), and so by the key set of ``spectrum.npz``.  The
    modes must be unitary to 1e-10, max|V^H V - I|, which runs in real
    arithmetic when every column is purely real or purely imaginary (every
    path, for a real matrix); a NaN or infinite entry fails it.
    ``modes`` is stored as complex128, whatever the matrix dtype: a duo
    partner of a real mode is imaginary.  ``modes=None`` gives a
    values-only spectrum, for a caller that stores no mode; the pairs, the
    pairing and the spectrum table need only the values.
    """

    values: np.ndarray
    modes: np.ndarray | None = field(repr=False)
    pairs: tuple = field(init=False)

    def __post_init__(self):
        self._check_and_store(defect=None)

    @classmethod
    def _with_defect(cls, values, modes, defect: float) -> SqueezingSpectrum:
        """The spectrum of ``modes`` whose max|V^H V - I| is known to be ``defect``."""
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "values", values)
        object.__setattr__(spectrum, "modes", modes)
        spectrum._check_and_store(defect)
        return spectrum

    def _check_and_store(self, defect: float | None) -> None:
        """Check and store the fields; a ``defect`` of None is measured from the modes."""
        r = np.asarray(self.values, dtype=float)
        v = None if self.modes is None else np.asarray(self.modes, dtype=complex)
        n = len(r)
        if v is not None and v.shape != (n, n):
            raise ValueError("modes must be n x n for n values")
        _check_descending(r)
        if v is not None and defect is None:
            defect = _unitarity_defect(v)
        if v is not None and not defect <= 1e-10:
            raise ValueError("modes are not unitary")
        object.__setattr__(self, "values", r)
        object.__setattr__(self, "modes", v)
        object.__setattr__(self, "pairs", _duo_gaps(r))


def block_squeezing_matrix(jsa: JointSpectralAmplitude) -> np.ndarray:
    """Full 2m x 2m matrix [[0, J], [J^T, 0]] with exact block structure.

    The matrix has the dtype of J: float64 for a real JSA, else complex128.
    """
    m = jsa.m
    out = np.zeros((2 * m, 2 * m), dtype=jsa.j_matrix.dtype)
    out[:m, m:] = jsa.j_matrix
    out[m:, :m] = jsa.j_matrix.T
    return out


def signal_first(gamma: np.ndarray) -> np.ndarray:
    """Reorder a grid-ordered (idler band first) 2m x 2m matrix to signal-band-first."""
    return np.roll(gamma, gamma.shape[0] // 2, axis=(0, 1))


def schmidt_from_jsa(jsa: JointSpectralAmplitude) -> SchmidtDecomposition:
    """Schmidt decomposition of the JSA via SVD of the stored block.

    A float64 block takes a real SVD and gives real ``c`` and ``d``.  Each
    (c_k, d_k) pair is rotated by one common phase, which leaves
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
    multiplicity.  Each column block is computed in its slice of the
    output by the products of the expressions above, in their order, so
    the one m x m temporary is the conjugate of a complex D.

    The duos are unitary whenever C and D are.  With G_c = C^H C and
    G_d = D^H D, the Gram entries of the duos are
    A_j^H A_k = B_j^H B_k = (G_c + conj(G_d))_jk / 2 and
    A_j^H B_k = -B_j^H A_k = i (G_c - conj(G_d))_jk / 2, so every entry of
    the Gram matrix minus I is (E_c +- conj(E_d))_jk / 2 up to a unit
    factor, E = G - I.  The spectrum's check therefore takes the duos'
    defect max|V^H V - I| as max(max|E_c + conj E_d|, max|E_c - conj E_d|) / 2
    from two m x m Gram matrices, without the 2m x 2m one; it equals the
    defect of the modes up to rounding of the products.  It is at most
    max(defect of C, defect of D), which ``SchmidtDecomposition`` holds to
    1e-10, so a caller that stores the Schmidt factors instead, as every
    pipeline run does, loses no check.
    """
    m = sd.c.shape[0]
    d_bar = sd.d.conj()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    modes = np.empty((2 * m, 2 * m), dtype=complex)
    for rows, u, phase in ((modes[:m], sd.c, 1j), (modes[m:], d_bar, -1j)):
        np.multiply(u, inv_sqrt2, out=rows[:, 0::2])
        partner = rows[:, 1::2]
        np.multiply(phase, u, out=partner)
        partner *= inv_sqrt2
    values = np.repeat(sd.values, 2)
    return SqueezingSpectrum._with_defect(values, modes, _duo_defect(sd.c, sd.d))


def _duo_defect(c: np.ndarray, d: np.ndarray) -> float:
    """max|V^H V - I| of the duos of ``eigenmodes_from_schmidt``, from m x m blocks.

    It is max(max|E_c + conj E_d|, max|E_c - conj E_d|) / 2 with
    E_c = C^H C - I and E_d = D^H D - I (see ``eigenmodes_from_schmidt``).
    """
    e_c = _gram_minus_identity(c)
    e_d = _gram_minus_identity(d).conj()
    return 0.5 * float(max(_abs_max(e_c + e_d), _abs_max(_minus(e_c, e_d))))


def _schmidt_residual(jsa: JointSpectralAmplitude, sd: SchmidtDecomposition) -> float:
    """||J - C R D^H||_F / max(||J||_F, eps), the Takagi residual of the duo spectrum.

    The duos of ``eigenmodes_from_schmidt`` give V R V^T =
    [[0, C R D^H], [conj(D) R C^T, 0]] exactly, and the block matrix has
    ||[[0, J], [J^T, 0]]||_F = sqrt(2) ||J||_F, so this is the
    ``takagi_residual`` of the duos against ``block_squeezing_matrix(jsa)``
    without its zero blocks.  Real factors of a real J stay real.
    """
    j = jsa.j_matrix
    recon = (sd.c * sd.values) @ sd.d.conj().T
    denom = max(np.linalg.norm(j), np.finfo(float).eps)
    return float(np.linalg.norm(_minus(recon, j)) / denom)


def associated_spectral(gamma: np.ndarray) -> SqueezingSpectrum:
    """Squeezing spectrum through the associated Hermitian matrix.

    Conjugating the idler-band rows of the (signal-first) symmetric
    matrix yields a Hermitian matrix whose eigenpairs (lambda, U) map to
    squeezing eigenmodes: r = |lambda|, mode = U with the idler half
    conjugated, times i when lambda < 0.  The +-lambda signs of each duo
    are what distinguishes the two partners.  The Takagi module's assembly
    step orders the eigenpairs and applies the i.  A real matrix, which is
    its own associated matrix, goes straight to ``takagi_real_symmetric``,
    and so does a complex one whose imaginary part is exactly zero after
    the reshuffle (the rule of ``takagi_general``).  A NaN or infinite
    entry raises the same ValueError on either branch.
    """
    g = _float_or_complex(gamma)
    n = g.shape[0]
    if g.ndim != 2 or g.shape != (n, n) or n % 2:
        raise ValueError("gamma must be square with even dimension")
    m = n // 2
    if np.iscomplexobj(g):
        g = _as_square(g).copy()
        g[m:, :] = g[m:, :].conj()
        message = "matrix is not Hermitian after the associated-matrix reshuffle"
        _check_symmetric(g, 1e-10, message, hermitian=True)
    if np.isrealobj(g) or not np.any(g.imag):
        f = takagi_real_symmetric(g.real)
        return SqueezingSpectrum(values=f.r, modes=f.v)
    lam, u = np.linalg.eigh(g)
    u /= _largest_entry_phase(u)
    u[m:, :] = u[m:, :].conj()
    f = _factors_from_signed(lam, u)
    # Complex eigh mixes the +-lambda partners of small eigenvalues, which
    # the idler conjugation makes non-orthogonal: take the polar factor.
    return SqueezingSpectrum(values=f.r, modes=_polar(f.v))


def spectrum_from_takagi(factors: TakagiFactors) -> SqueezingSpectrum:
    """Wrap a Takagi factorization of the full matrix as a spectrum."""
    return SqueezingSpectrum(values=factors.r, modes=factors.v)


@dataclass(frozen=True)
class PairingReport:
    """Greedy consecutive pairing of a descending spectrum.

    The accepted duos are ``spectrum.pairs[:n_pairs]``.
    ``first_failure_index`` is the 1-based rank of the first eigenvalue
    that could not be paired (None when everything paired).
    """

    rel_tol: float
    n_pairs: int
    first_failure_index: int | None

    @property
    def all_paired(self) -> bool:
        return self.first_failure_index is None


def pair_eigenvalues(
    spectrum: SqueezingSpectrum, rel_tol: float = 1e-2
) -> PairingReport:
    """Pair consecutive eigenvalues while their relative gap stays within tol.

    The gap is |r_{2k-1} - r_{2k}| / r_1.  Pairing stops at the first duo
    exceeding ``rel_tol`` (or at an odd leftover value) and reports the
    1-based index where it failed.  ``rel_tol`` must lie strictly between
    0 and 1, the rule of ``RunConfig.pairing_tol``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie strictly between 0 and 1, got {rel_tol}")
    n_pairs = next(
        (k for k, (_, _, gap) in enumerate(spectrum.pairs) if gap > rel_tol),
        len(spectrum.pairs),
    )
    # The first eigenvalue outside the accepted duos: a failed duo or an odd leftover.
    failure = 2 * n_pairs + 1 if 2 * n_pairs < len(spectrum.values) else None
    return PairingReport(rel_tol=rel_tol, n_pairs=n_pairs, first_failure_index=failure)


def schmidt_number(values) -> float:
    """Effective mode count K_S = (sum r)^2 / sum r^2.

    ValueError for negative or non-finite values, for all-zero values, and
    for values whose sums overflow double precision.
    """
    r = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(r >= 0)):
        raise ValueError("values must be nonnegative and finite")
    with np.errstate(over="ignore"):
        total = float(np.sum(r))
        total_sq = float(np.sum(r * r))
    if total_sq == 0.0:
        raise ValueError("all-zero values have no Schmidt number")
    if not math.isfinite(total * total):
        raise ValueError(f"values up to {r.max():.3e} overflow double precision in (sum r)^2")
    return total**2 / total_sq


class GeometricFit(NamedTuple):
    r1: float
    q: float
    rms_residual: float


def _duo_means(values) -> np.ndarray:
    """Means of consecutive duos, dropping those below 1e-6 of the leading one."""
    r = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("values must be finite")
    n_pairs = len(r) // 2
    means = 0.5 * (r[0 : 2 * n_pairs : 2] + r[1 : 2 * n_pairs : 2])
    if n_pairs == 0 or means[0] <= 0:
        raise ValueError("leading pair must be positive")
    return means[(means >= 1e-6 * means[0]) & (means > 0)]


def fit_geometric(values, max_pairs: int | None = None) -> GeometricFit:
    """Least-squares geometric fit r_l ~ r1 q^l of the duo means.

    Consecutive duos are averaged to one value per pair index l; pairs
    below 1e-6 of the leading one are dropped (numerical-noise floor)
    and ``max_pairs`` optionally caps the window; it must be at least 3,
    the rule of ``RunConfig.fit_pairs``.  The fit is linear in log r, so
    the residual is a log-domain RMS.
    """
    if max_pairs is not None and max_pairs < 3:
        raise ValueError(f"max_pairs must be at least 3, got {max_pairs}")
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

