"""Takagi factorization A = V R V^T of complex symmetric matrices.

Two algorithmic paths are provided: a spectral shortcut for real
symmetric input, and a general path (one real symmetric eigensolve of
twice the size plus a polar step) that stays accurate for degenerate and
near-degenerate singular values.  ``takagi_residual`` measures the
reconstruction quality of any candidate factorization.  Every route,
``twinbeam.associated_spectral`` included, assembles its factors from
signed eigenpairs in the one step ``_factors_from_signed``.

Factors of a real symmetric matrix (and the twin-beam duos built from a
real JSA) have columns that are each purely real or purely imaginary,
V = W diag(1 or i) with W real.  ``_real_basis`` returns that W, or V
itself for any other V, and each check is written once in W: numpy runs
it in real arithmetic whenever W is real.

The package's matrix checks are written here once.  ``_as_square`` names
an argument with a NaN or infinite entry; ``_check_symmetric`` requires
max|A - A^T| (A^H when Hermitian) <= tol max|A|, tol = 1e-10 for the
factorizations and the associated matrix, 1e-12 for Gamma and the
generator and covariance blocks.  Input equal to its transpose bit for bit
(``_bit_symmetric``) skips that test and is factored as it is; other
input is factored as 0.5 (A + A^T).  Each
tolerance test reads ``not x <= tol``, which a NaN fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TakagiFactors",
    "takagi_real_symmetric",
    "takagi_general",
    "takagi_residual",
]

#: Relative reconstruction residual above which a Takagi factorization fails.
TAKAGI_THRESHOLD = 1e-10


@dataclass(frozen=True)
class TakagiFactors:
    """Factors of A = V R V^T: unitary ``v`` and nonnegative ``r`` (descending)."""

    v: np.ndarray
    r: np.ndarray


def _float_or_complex(a) -> np.ndarray:
    """``a`` as float64 when it is float64 already, else as complex128."""
    a = np.asarray(a)
    return a if a.dtype == np.float64 else a.astype(complex, copy=False)


def _check_finite(a: np.ndarray, what: str) -> None:
    """ValueError naming ``what`` when ``a`` has a NaN or infinite entry."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} has non-finite (NaN or inf) entries")


def _as_square(a, what: str = "matrix") -> np.ndarray:
    """``a`` as an array, checked square and finite (``what`` names it)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _check_finite(a, what)
    return a


#: Side of the square blocks in which a matrix meets its transpose: a block
#: and its mirror stay in cache, where a whole-matrix transpose would not.
_MIRROR_BLOCK = 64


def _mirror_blocks(n: int):
    """(rows, cols) slices of the n x n blocks on and above the diagonal."""
    for r0 in range(0, n, _MIRROR_BLOCK):
        for c0 in range(r0, n, _MIRROR_BLOCK):
            yield slice(r0, r0 + _MIRROR_BLOCK), slice(c0, c0 + _MIRROR_BLOCK)


def _bit_symmetric(a: np.ndarray) -> bool:
    """True when a float64 or complex128 ``a`` equals its transpose bit for bit.

    Entries are compared as uint64 words, so a +0/-0 mirror pair, equal as
    floats, counts as asymmetric; any other dtype gives False.  Such an
    ``a`` is exactly its own symmetric part, since 0.5 (x + x) = x, and
    needs neither the tolerance test nor the copy 0.5 (A + A^T) (which
    would overflow to inf where |x| > max/2).
    """
    parts = (a.real, a.imag) if a.dtype == np.complex128 else (a,)
    if parts[0].dtype != np.float64:
        return False
    words = [p.view(np.uint64) for p in parts]
    return all(
        np.array_equal(w[rows, cols], w[cols, rows].T)
        for rows, cols in _mirror_blocks(a.shape[0])
        for w in words
    )


def _check_symmetric(a: np.ndarray, tol=1e-10, message="", hermitian=False) -> None:
    """ValueError unless max|A - A^T| (A^H if ``hermitian``) <= tol max|A|."""
    bound = tol * np.abs(a).max()
    asym = np.abs(a - (a.conj().T if hermitian else a.T)).max()
    if not asym <= bound:
        raise ValueError(message or (
            f"matrix is not symmetric: max|A - A^T| = {asym:.3e} "
            f"exceeds {tol:.1e} * max|A| = {bound:.3e}"
        ))


def _symmetric_part(a: np.ndarray) -> np.ndarray:
    """``a`` itself when bit-symmetric, else 0.5 (A + A^T) after ``_check_symmetric``."""
    if _bit_symmetric(a):
        return a
    _check_symmetric(a)
    return 0.5 * (a + a.T)


def _largest_entry_phase(u: np.ndarray) -> np.ndarray:
    """Phase of the largest-magnitude entry of each column of ``u``.

    ``u / _largest_entry_phase(u)`` makes that entry real positive and so
    removes the per-column phase (sign, for real input) ambiguity of a
    decomposition; repeated runs then produce identical output.  Columns
    whose largest entry is zero get phase 1.
    """
    mag = np.abs(u)
    peak = mag.max(axis=0)
    # The first row reaching the column maximum is np.argmax's pivot.  An
    # axis-0 argmax copies the transpose of its input: of these bool flags
    # (one byte each), not of the float64 magnitudes.
    rows = np.argmax(mag == peak, axis=0)
    nan = np.isnan(peak)
    if np.any(nan):  # np.argmax stops at a column's first NaN
        rows[nan] = np.argmax(np.isnan(mag[:, nan]), axis=0)
    pivot = u[rows, np.arange(u.shape[1])]
    if not np.iscomplexobj(u):
        return np.where(pivot == 0, 1.0, np.sign(pivot))
    size = np.hypot(pivot.real, pivot.imag)
    return np.divide(pivot, size, out=np.ones_like(pivot), where=size != 0)


def _real_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, imag) with v = w diag(where(imag, i, 1)).

    When every column of ``v`` is purely real or purely imaginary, one part
    of each column is +-0, so w = v.real + v.imag is real and exact, and
    ``imag`` flags the imaginary columns (a zero column counts as real).
    A real ``v`` is its own w, returned at once.  Otherwise w is ``v``
    itself and no column is flagged.
    """
    if np.isrealobj(v):
        return v, np.zeros(v.shape[1], dtype=bool)
    parts = _nonzero_parts(v)
    imag = parts[:, 1]
    if np.any(imag & parts[:, 0]):
        return v, np.zeros_like(imag)
    return v.real + v.imag, imag


def _nonzero_parts(v: np.ndarray) -> np.ndarray:
    """(any nonzero real part, any nonzero imaginary part) of each column of a
    complex ``v``, shape (columns, 2); NaN counts as nonzero, +-0 as zero.

    A C- or F-contiguous ``v`` is read once, through its float view.  Each
    entry's two flags form one uint16 word, so the OR down a column runs on
    whole words: np.any on the float view would step through (re, im) pairs
    two at a time when the columns are contiguous.
    """
    if v.flags.c_contiguous:
        floats, axis = v.view(np.float64).reshape(*v.shape, 2), 0
    elif v.flags.f_contiguous:
        floats, axis = v.T.view(np.float64).reshape(*v.T.shape, 2), 1
    else:
        return np.stack((np.any(v.real, axis=0), np.any(v.imag, axis=0)), axis=1)
    words = floats.astype(bool).view(np.uint16)
    return np.bitwise_or.reduce(words, axis=axis).view(bool)


def _abs_max(x: np.ndarray):
    """max|x| of a temporary: a float64 ``x`` is overwritten by |x|."""
    if x.dtype == np.float64:
        return np.abs(x, out=x).max()
    return np.abs(x).max()


def _minus(x: np.ndarray, y) -> np.ndarray:
    """x - y for a temporary ``x``: in its buffer when its dtype holds the result."""
    if np.result_type(x, y) != x.dtype:
        return x - y
    x -= y
    return x


def _identity_defect(g: np.ndarray) -> float:
    """max|G - I| of a temporary square ``g``, taken in its buffer."""
    g[np.diag_indices_from(g)] -= 1.0
    return float(_abs_max(g))


def _relative_residual(a: np.ndarray, recon: np.ndarray) -> float:
    """||a - recon||_F / max(||a||_F, eps) of a temporary ``recon``.  recon - a,
    whose norm is that of a - recon bit for bit, is taken in the buffer of
    ``recon`` when its dtype holds the result."""
    denom = max(np.linalg.norm(a), np.finfo(float).eps)
    return float(np.linalg.norm(_minus(recon, a)) / denom)


def _unitarity_defect(v: np.ndarray) -> float:
    """max|V^H V - I|, evaluated as max|W^H W - I| in the ``_real_basis`` W.

    The column factors i of V = W diag(1 or i) cancel on the diagonal of
    V^H V and only change the phase of the off-diagonal entries, so a real
    W gives a real Gram matrix.
    """
    w = _real_basis(v)[0]
    # A non-finite entry gives a NaN or inf defect, which ``not x <= tol`` rejects.
    with np.errstate(invalid="ignore", over="ignore"):
        return _identity_defect(w.conj().T @ w)


def _factors_from_signed(lam: np.ndarray, vectors: np.ndarray) -> TakagiFactors:
    """Takagi factors from signed eigenpairs (lam, columns of ``vectors``).

    The one ordering and sign rule of every route: r = |lam| descending,
    ties kept in solver order, and each column times i where lam < 0.
    ``vectors`` is finite, as every solver gives it.
    """
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    # np.take copies row by row; the fancy index vectors[:, order] takes
    # numpy's general mapping path, about 8x slower on an n = 1024 matrix.
    v = np.take(vectors, order, axis=1)
    if np.isrealobj(v):
        # x (1 + 0i) = x + 0i, exactly what a complex cast of a finite x gives.
        v = v * np.where(lam < 0, 1j, 1)
    else:
        # (1 + 0i) would flip the sign of some complex zeros: scale only lam < 0.
        np.multiply(v, 1j, out=v, where=lam < 0)
    return TakagiFactors(v=v, r=np.abs(lam))


def _polar(v: np.ndarray) -> np.ndarray:
    """Unitary polar factor U W^H of V = U Sigma W^H."""
    u, _, wh = np.linalg.svd(v)
    return u @ wh


def takagi_real_symmetric(a: np.ndarray) -> TakagiFactors:
    """Takagi factorization of a real symmetric matrix via its spectrum.

    With a = O diag(lam) O^T, the columns are V_j = O_j for lam_j >= 0 and
    V_j = i O_j for lam_j < 0, and r_j = |lam_j|.  Every output column is
    purely real or purely imaginary.

    Parameters
    ----------
    a : (n, n) array_like
        Real symmetric matrix.

    Returns
    -------
    TakagiFactors
        Unitary ``v`` and descending nonnegative ``r`` with a = V R V^T.

    Complex-typed input is accepted only when its imaginary part is
    exactly zero, the rule of ``takagi_general``; any nonzero imaginary
    part, however small, raises ValueError.  So does a NaN or infinite
    entry.
    """
    a = _as_square(a)
    if np.iscomplexobj(a) and np.any(a.imag):
        raise ValueError("matrix has a nonzero imaginary part")
    a = _symmetric_part(np.asarray(a.real, dtype=float))

    lam, o = np.linalg.eigh(a)
    o /= _largest_entry_phase(o)
    return _factors_from_signed(lam, o)


def takagi_general(a: np.ndarray) -> TakagiFactors:
    """Takagi factorization of a complex symmetric matrix.

    Real input, or complex input whose imaginary part is exactly zero,
    goes to ``takagi_real_symmetric`` without a complex copy.  Otherwise
    A conj(z) is a real-linear map of z = x + i y with the real symmetric
    matrix M = [[Re A, Im A], [Im A, -Re A]]; its eigenvalues come in
    pairs +-s_k (z and i z), and the top n eigenvectors [x; y] give the
    columns of V = X + i Y with A conj(V) = V diag(s).  One ``eigh`` of M
    therefore solves every degenerate or near-degenerate cluster at once.
    Eigenvectors of +s and -s are orthogonal in M only for s != 0, so V is
    replaced by its polar factor U W^H (V = U Sigma W^H); since the +-s
    vectors mix by about eps ||A|| / (s_k + s_l), this moves each
    s_k v_k v_k^T by about eps ||A|| only.  A column whose eigenvalue came
    out negative is multiplied by i, and r = |s|.

    Raises
    ------
    ValueError
        If the input is not symmetric or has a NaN or infinite entry.
    RuntimeError
        If the reconstruction residual exceeds tolerance (reported).
    """
    checked, factors = _takagi_unchecked(a)
    if checked is not None:
        residual = takagi_residual(checked, factors)
        if not residual <= TAKAGI_THRESHOLD:
            raise RuntimeError(
                f"Takagi factorization residual {residual:.3e} exceeds {TAKAGI_THRESHOLD:g}"
            )
    return factors


def _takagi_unchecked(a) -> tuple[np.ndarray | None, TakagiFactors]:
    """(symmetric matrix factored, factors) of ``takagi_general`` without its
    residual check; the matrix is None on the real route, which has none."""
    # The real route checks its own input; a NaN or inf imaginary part is nonzero.
    if np.isrealobj(a) or not np.any(np.imag(a)):
        return None, takagi_real_symmetric(np.real(a))
    a = _symmetric_part(_as_square(a))
    n = a.shape[0]

    lam, w = np.linalg.eigh(np.block([[a.real, a.imag], [a.imag, -a.real]]))
    s = lam[n:][::-1]
    top = w[:, n:][:, ::-1]
    return a, _factors_from_signed(s, _polar(top[:n] + 1j * top[n:]))


def takagi_residual(a: np.ndarray, factors: TakagiFactors) -> float:
    """Relative reconstruction residual ||a - V R V^T||_F / max(||a||_F, eps).

    V R V^T = W (D^2 R) W^T in the ``_real_basis`` W of V = W D, with
    D^2 = -1 for each imaginary column (i^2 = -1); it runs in real
    arithmetic when W is real.
    """
    a = _as_square(a)
    v, r = factors.v, factors.r
    if v.shape[0] != a.shape[0] or len(r) != a.shape[0]:
        raise ValueError("factor dimensions do not match the matrix")
    w, imag = _real_basis(v)
    return _relative_residual(a, (w * np.where(imag, -r, r)) @ w.T)
