"""Takagi factorization A = V R V^T of complex symmetric matrices.

Two algorithmic paths are provided: a spectral shortcut for real
symmetric input and a general SVD-plus-balancing algorithm that remains
stable for degenerate singular values.  ``takagi_residual`` measures the
reconstruction quality of any candidate factorization.
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

#: Relative gap below which neighbouring singular values are treated as
#: one degenerate cluster by the balancing step of ``takagi_general``.
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class TakagiFactors:
    """Factors of A = V R V^T: unitary ``v`` and nonnegative ``r`` (descending)."""

    v: np.ndarray
    r: np.ndarray


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: np.ndarray, rtol: float = 1e-10) -> None:
    scale = np.abs(a).max()
    if scale == 0.0:
        return
    asym = np.abs(a - a.T).max()
    if asym > rtol * scale:
        raise ValueError(
            f"matrix is not symmetric: max|A - A^T| = {asym:.3e} "
            f"exceeds {rtol:.1e} * max|A| = {rtol * scale:.3e}"
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


def _degenerate_clusters(s: np.ndarray) -> list[slice]:
    """Split descending singular values into degeneracy clusters.

    Neighbours stay in one cluster when their gap is below the local
    relative threshold ``DEGENERACY_GAP * s[i-1]`` or below a small
    absolute floor of a few machine epsilons of the largest value.  The
    floor keeps exactly degenerate pairs together far down a decaying
    spectrum (their computed splitting is a few ulps of ``s[0]``
    regardless of their own size), while the local relative criterion
    stops genuinely distinct values from being lumped together just
    because both are tiny.
    """
    n = len(s)
    scale = s[0] if n and s[0] > 0 else 1.0
    floor = 32.0 * np.finfo(float).eps * scale
    clusters = []
    start = 0
    for i in range(1, n):
        if (s[i - 1] - s[i]) > max(DEGENERACY_GAP * s[i - 1], floor):
            clusters.append(slice(start, i))
            start = i
    clusters.append(slice(start, n))
    return clusters


def _unitary_symmetric_root(block: np.ndarray) -> np.ndarray:
    """Balancing factor X with block @ conj(X) = X and X unitary.

    ``block`` is (numerically) unitary and complex symmetric, so its real
    and imaginary parts are commuting real symmetric matrices and share a
    real orthogonal eigenbasis: block = E diag(e^{i phi}) E^T.  The
    half-angle factor X = E diag(e^{i phi/2}) satisfies the balancing
    relation.  Unlike a principal matrix square root this has no branch
    cut to fall over (a real twin-beam duo puts an eigenvalue exactly at
    -1), and X is unitary by construction even when the cluster block
    itself is noisy.
    """
    re_part = block.real
    im_part = block.imag
    rvals, basis = np.linalg.eigh(re_part)
    # Re-diagonalize the imaginary part inside degenerate eigenspaces of
    # the real part; outside them the shared basis is already fixed.
    start = 0
    for i in range(1, len(rvals) + 1):
        if i == len(rvals) or (rvals[i] - rvals[start]) > 1e-8:
            if i - start > 1:
                sub = basis[:, start:i]
                _, w = np.linalg.eigh(sub.T @ im_part @ sub)
                basis[:, start:i] = sub @ w
            start = i
    phases = np.arctan2(
        np.einsum("ji,ji->i", basis, im_part @ basis),
        np.einsum("ji,ji->i", basis, re_part @ basis),
    )
    return basis * np.exp(0.5j * phases)[None, :]


def takagi_general(a: np.ndarray) -> TakagiFactors:
    """Takagi factorization of a complex symmetric matrix.

    Computes the SVD a = P S W^H.  The unitary matrix D = W^H conj(P) is
    block diagonal over clusters c of equal singular values and symmetric
    on each, so only its diagonal blocks D_c are formed.  The balancing
    relation D_c conj(X_c) = X_c is solved on each cluster by joint
    diagonalization of Re D_c and Im D_c, and V[:, c] = P[:, c] X_c gives
    V R V^T = a.  Stable for degenerate spectra.

    Raises
    ------
    ValueError
        If the input is not symmetric.
    RuntimeError
        If the reconstruction residual exceeds tolerance (reported).
    """
    a = _as_square(a).astype(complex)
    _check_symmetric(a)
    a = 0.5 * (a + a.T)
    n = a.shape[0]

    scale = np.abs(a).max()
    if scale == 0.0:
        return TakagiFactors(v=np.eye(n, dtype=complex), r=np.zeros(n))

    p, s, wh = np.linalg.svd(a)
    v = np.empty_like(p)
    for c in _degenerate_clusters(s):
        if s[c.start] <= 1e-14 * s[0]:
            # Zero block: columns are free, P's own keep V unitary.
            v[:, c] = p[:, c]
            continue
        block = wh[c, :] @ p[:, c].conj()
        block = 0.5 * (block + block.T)
        v[:, c] = p[:, c] @ _unitary_symmetric_root(block)

    factors = TakagiFactors(v=v, r=s.copy())
    residual = takagi_residual(a, factors)
    if residual > 1e-10:
        raise RuntimeError(
            f"Takagi balancing failed to converge: residual {residual:.3e}"
        )
    return factors


def takagi_residual(a: np.ndarray, factors: TakagiFactors) -> float:
    """Relative reconstruction residual ||a - V R V^T||_F / max(||a||_F, eps)."""
    a = _as_square(a)
    v, r = factors.v, factors.r
    if v.shape[0] != a.shape[0] or len(r) != a.shape[0]:
        raise ValueError("factor dimensions do not match the matrix")
    recon = (v * r) @ v.T
    denom = max(np.linalg.norm(a), np.finfo(float).eps)
    return float(np.linalg.norm(a - recon) / denom)
