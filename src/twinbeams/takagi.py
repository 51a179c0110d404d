"""Takagi factorization A = V R V^T of complex symmetric matrices.

Two algorithmic paths are provided: a spectral shortcut for real
symmetric input, and a general path (one real symmetric eigensolve of
twice the size plus a polar step) that stays accurate for degenerate and
near-degenerate singular values.  ``takagi_residual`` measures the
reconstruction quality of any candidate factorization.

Factors of a real symmetric matrix (and the twin-beam duos built from a
real JSA) have columns that are each purely real or purely imaginary,
V = W diag(1 or i) with W real.  ``_real_basis`` returns that W, or V
itself for any other V, and each check is written once in W: numpy runs
it in real arithmetic whenever W is real.
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


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # Checked before any imaginary part is tested or dropped: NaN fails
    # every comparison, so no later tolerance test would catch it.
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite (NaN or inf) entries")
    return a


def _check_symmetric(a: np.ndarray) -> None:
    scale = np.abs(a).max()
    if scale == 0.0:
        return
    asym = np.abs(a - a.T).max()
    if asym > 1e-10 * scale:
        raise ValueError(
            f"matrix is not symmetric: max|A - A^T| = {asym:.3e} "
            f"exceeds 1.0e-10 * max|A| = {1e-10 * scale:.3e}"
        )


def _largest_entry_phase(u: np.ndarray) -> np.ndarray:
    """Phase of the largest-magnitude entry of each column of ``u``.

    ``u / _largest_entry_phase(u)`` makes that entry real positive and so
    removes the per-column phase (sign, for real input) ambiguity of a
    decomposition; repeated runs then produce identical output.  Columns
    whose largest entry is zero get phase 1.
    """
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    if not np.iscomplexobj(u):
        return np.where(pivot == 0, 1.0, np.sign(pivot))
    mag = np.hypot(pivot.real, pivot.imag)
    return np.divide(pivot, mag, out=np.ones_like(pivot), where=mag != 0)


def _real_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, imag) with v = w diag(where(imag, i, 1)).

    When every column of ``v`` is purely real or purely imaginary, one part
    of each column is +-0, so w = v.real + v.imag is real and exact, and
    ``imag`` flags the imaginary columns (a zero column counts as real).
    Otherwise w is ``v`` itself and no column is flagged.
    """
    re, im = v.real, v.imag
    imag = np.any(im, axis=0)
    if np.any(imag & np.any(re, axis=0)):
        return v, np.zeros_like(imag)
    return re + im, imag


def _unitarity_defect(v: np.ndarray) -> float:
    """max|V^H V - I|, evaluated as max|W^H W - I| in the ``_real_basis`` W.

    The column factors i of V = W diag(1 or i) cancel on the diagonal of
    V^H V and only change the phase of the off-diagonal entries.
    """
    w = _real_basis(v)[0]
    gram = w.conj().T @ w
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram).max())


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

    A NaN or infinite entry raises ValueError before any imaginary part
    is dropped.
    """
    a = _as_square(a)
    scale = np.abs(a).max()
    if np.iscomplexobj(a):
        if scale > 0 and np.abs(a.imag).max() > 1e-10 * scale:
            raise ValueError("matrix has a non-negligible imaginary part")
        a = a.real.copy()
    a = np.asarray(a, dtype=float)
    _check_symmetric(a)
    a = 0.5 * (a + a.T)

    lam, o = np.linalg.eigh(a)
    o /= _largest_entry_phase(o)
    # Descending by magnitude; ties keep the eigh output order.
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    o = o[:, order]

    v = o.astype(complex)
    v[:, lam < 0] *= 1j
    return TakagiFactors(v=v, r=np.abs(lam))


def takagi_general(a: np.ndarray) -> TakagiFactors:
    """Takagi factorization of a complex symmetric matrix.

    Exactly real input goes to ``takagi_real_symmetric``.  Otherwise
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
    a = _as_square(a)
    if not np.any(np.imag(a)):
        return takagi_real_symmetric(np.real(a))
    _check_symmetric(a)
    a = 0.5 * (a + a.T)
    n = a.shape[0]

    lam, w = np.linalg.eigh(np.block([[a.real, a.imag], [a.imag, -a.real]]))
    s = lam[n:][::-1]
    top = w[:, n:][:, ::-1]
    v = top[:n] + 1j * top[n:]
    u, _, wh = np.linalg.svd(v)
    v = u @ wh
    v[:, s < 0] *= 1j
    order = np.argsort(-np.abs(s), kind="stable")

    factors = TakagiFactors(v=v[:, order], r=np.abs(s[order]))
    residual = takagi_residual(a, factors)
    if residual > TAKAGI_THRESHOLD:
        raise RuntimeError(
            f"Takagi factorization residual {residual:.3e} exceeds {TAKAGI_THRESHOLD:g}"
        )
    return factors


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
    recon = (w * np.where(imag, -r, r)) @ w.T
    denom = max(np.linalg.norm(a), np.finfo(float).eps)
    return float(np.linalg.norm(a - recon) / denom)
