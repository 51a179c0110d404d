"""Complex-symplectic matrix algebra for Gaussian transformations.

A transformation of n bosonic modes is stored through its Bogoliubov
blocks (s0, sI) acting on the stacked vector (a, a^dagger); the full
2n x 2n matrix S = [[s0, sI], [conj(sI), conj(s0)]] satisfies
S K S^dagger = K with K = diag(I, -I).  Generators are Hermitian
matrices H with blocks (h0 Hermitian, hI complex symmetric) and map to
symplectic matrices through S = exp(-i K H).

The general-h0 branch of ``exponentiate_generator``
(``scipy.linalg.expm``) is the package's one scipy user, and imports
scipy only when that branch is first reached.  No pipeline reaches it,
and a module-level import would cost every run about 0.65 s of import
time and a second OpenBLAS runtime (scipy's own, about 45 MB resident)
next to numpy's.  Any future route on the run path, here or in the other
layers, must keep to ``np.linalg`` or defer its scipy import in the same
way, and then pays that cost on every run that takes it; one such idea
is ``scipy.linalg.eigh(subset_by_index=...)`` for the top half of the
Takagi embedding spectrum (an open item in ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .takagi import (
    TakagiFactors,
    _abs_max,
    _as_square,
    _check_finite,
    _check_symmetric,
    _float_or_complex,
    _identity_defect,
    _minus,
    _real_basis,
    takagi_general,
)
from .twinbeam import SchmidtDecomposition

__all__ = [
    "GeneratorMatrix",
    "SymplecticMatrix",
    "GaussianState",
    "BlochMessiahFactors",
    "exponentiate_generator",
    "squeezer_from_takagi",
    "two_mode_squeezer",
    "bloch_messiah",
    "propagate_state",
    "symplectic_residual",
    "schmidt_squeezer_residual",
]


#: Largest ``symplectic_residual`` a ``SymplecticMatrix`` accepts.
SYMPLECTIC_THRESHOLD = 1e-10


def _bogoliubov(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (a, a^dagger) block layout [[a, b], [conj(b), conj(a)]]."""
    return np.block([[a, b], [b.conj(), a.conj()]])


@dataclass(frozen=True)
class GeneratorMatrix:
    """Blocks of a Hermitian generator: ``h0`` Hermitian, ``hI`` complex symmetric."""

    n: int
    h0: np.ndarray
    hI: np.ndarray

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        hI = np.asarray(self.hI, dtype=complex)
        if h0.shape != (self.n, self.n) or hI.shape != (self.n, self.n):
            raise ValueError("generator blocks must be n x n")
        _check_symmetric(_as_square(h0, "h0"), 1e-12, "h0 is not Hermitian", hermitian=True)
        _check_symmetric(_as_square(hI, "hI"), 1e-12, "hI is not complex symmetric")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "hI", hI)


@dataclass(frozen=True)
class SymplecticMatrix:
    """Bogoliubov blocks (s0, sI) of a complex symplectic matrix.

    Each block stays float64 when given as float64 (the squeezer of a real
    matrix) and is stored as complex128 otherwise.  ``residual`` is the
    ``symplectic_residual`` computed once on construction.
    """

    n: int
    s0: np.ndarray
    sI: np.ndarray
    residual: float = field(init=False)

    def __post_init__(self):
        s0 = _float_or_complex(self.s0)
        sI = _float_or_complex(self.sI)
        if s0.shape != (self.n, self.n) or sI.shape != (self.n, self.n):
            raise ValueError("symplectic blocks must be n x n")
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "sI", sI)
        res = symplectic_residual(self)
        if not res <= SYMPLECTIC_THRESHOLD:
            raise ValueError(f"matrix is not symplectic: residual {res:.3e}")
        object.__setattr__(self, "residual", res)

    def full(self) -> np.ndarray:
        """Assemble the 2n x 2n matrix [[s0, sI], [conj(sI), conj(s0)]]."""
        return _bogoliubov(self.s0, self.sI)


def symplectic_residual(s: SymplecticMatrix) -> float:
    """max|S K S^dagger - K| scaled by ||S||^2 (cosh growth makes absolute errors misleading).

    Evaluated from the blocks: the top row of S K S^dagger - K is
    (s0 s0^H - sI sI^H - I, s0 sI^T - sI s0^T) and the bottom row is minus
    its conjugate, so the two top blocks carry the whole maximum.  For a
    squeezer built by ``squeezer_from_takagi`` from factors (V, R), both
    blocks depend on V only through V^H V: with V unitary the top-left
    block is V (cosh^2 - sinh^2)(R) V^H - I = 0 and the top-right block
    V (cosh sinh - sinh cosh)(R) V^T = 0, so the residual measures how far
    V is from unitary.

    The top-right block is X - X^T with X = s0 sI^T, one product.  The
    products take the dtype of the blocks, so float64 blocks (the squeezer
    of a real matrix) run in real arithmetic.  Each block is reduced to
    its maximum before the next is formed, in its own buffer (in place
    when real), so at most two n x n temporaries are live at once.
    """
    s0, sI = s.s0, s.sI
    res_left = _diagonal_block_defect(s0, sI)
    x = s0 @ sI.T
    res = max(res_left, _abs_max(x - x.T))
    return float(res / _residual_scale(s0, sI))


def _diagonal_block_defect(a: np.ndarray, b: np.ndarray) -> float:
    """max|A A^H - B B^H - I|, a diagonal block of S K S^dagger - K."""
    return _identity_defect(_minus(a @ a.conj().T, b @ b.conj().T))


def _residual_scale(*blocks: np.ndarray) -> float:
    """max(max|X|^2 over the blocks, 1), the scale of a symplectic residual."""
    return max(*(np.abs(x).max() ** 2 for x in blocks), 1.0)


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance blocks of an n-mode Gaussian state.

    ``sigma0`` is the Hermitian phase-insensitive block <da^dagger da>
    (coherency matrix), ``sigmaI`` the complex symmetric phase-sensitive
    block <da da>; the full covariance is
    Sigma = [[sigma0, sigmaI], [conj(sigmaI), conj(sigma0)]].  Entries must be finite.
    """

    n: int
    mean: np.ndarray
    sigma0: np.ndarray
    sigmaI: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=complex).reshape(self.n)
        s0 = np.asarray(self.sigma0, dtype=complex)
        sI = np.asarray(self.sigmaI, dtype=complex)
        if s0.shape != (self.n, self.n) or sI.shape != (self.n, self.n):
            raise ValueError("covariance blocks must be n x n")
        _check_finite(mean, "mean")
        _check_symmetric(
            _as_square(s0, "sigma0"), 1e-12, "sigma0 is not Hermitian", hermitian=True
        )
        _check_symmetric(_as_square(sI, "sigmaI"), 1e-12, "sigmaI is not symmetric")
        full = _bogoliubov(s0, sI)
        eigmin = np.linalg.eigvalsh(0.5 * (full + full.conj().T)).min()
        if not eigmin >= -1e-10 * max(np.abs(full).max(), 1.0):
            raise ValueError(f"covariance is not positive semidefinite (min eig {eigmin:.3e})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma0", s0)
        object.__setattr__(self, "sigmaI", sI)

    def full_covariance(self) -> np.ndarray:
        return _bogoliubov(self.sigma0, self.sigmaI)

    @classmethod
    def vacuum(cls, n: int) -> "GaussianState":
        return cls(
            n=n,
            mean=np.zeros(n, dtype=complex),
            sigma0=0.5 * np.eye(n, dtype=complex),
            sigmaI=np.zeros((n, n), dtype=complex),
        )


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Passive–squeeze–passive factors: s0 = V cosh(R) Q^H, sI = V sinh(R) Q^T."""

    v: np.ndarray
    r: np.ndarray
    q: np.ndarray


#: Largest squeezing parameter whose cosh(r)^2 (the scale of s0 s0^H in the
#: symplectic residual) stays finite in double precision.
_R_OVERFLOW = 0.5 * float(np.log(np.finfo(float).max))


def _check_r_max(r: np.ndarray) -> None:
    """ValueError naming r_max when cosh(r_max)^2 would overflow."""
    r_max = float(r.max())
    if r_max > _R_OVERFLOW:
        raise ValueError(
            f"squeezing parameter r_max = {r_max:.4g} exceeds {_R_OVERFLOW:.4g}: "
            "cosh(r_max)^2 overflows double precision"
        )


def _pure_squeezer_blocks(hI: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s0, sI) of exp(-i K H) for h0 = 0, from one Hermitian eigendecomposition."""
    b = -1j * hI
    lam, w = np.linalg.eigh(b @ b.conj().T)
    r = np.sqrt(np.clip(lam, 0.0, None))
    _check_r_max(r)
    sinhc = np.divide(np.sinh(r), r, out=np.ones_like(r), where=r > 0.0)
    s0 = (w * np.cosh(r)) @ w.conj().T
    sI = (w * sinhc) @ (w.conj().T @ b)
    return s0, sI


def exponentiate_generator(g: GeneratorMatrix) -> SymplecticMatrix:
    """exp(-i K H) for the Hermitian generator with blocks (h0, hI).

    Pure squeezer (h0 identically zero): with B = -i hI, -i K H is
    [[0, B], [conj(B), 0]], whose square is block diagonal with top block
    B B^H = W diag(r^2) W^H (B is symmetric, so conj(B) = B^H).  Hence,
    exactly,

        s0 = W cosh(r) W^H,    sI = W diag(sinh(r) / r) W^H B,

    with sinh(r)/r = 1 at r = 0.  cosh(r) and sinh(r)/r are functions of
    r^2, so s0 and the factor in front of B are functions of B B^H itself:
    the freedom of W inside a degenerate eigenspace does not matter, the
    form is exact for every complex symmetric hI, and no Takagi
    factorization is needed.  A ValueError names r_max when cosh(r_max)^2
    would overflow.

    General h0: the exponential is evaluated on the full 2n x 2n matrix
    -i K H with scaling-and-squaring Pade approximation, which is robust
    for the non-normal matrices this produces.
    """
    n = g.n
    if not np.any(g.h0):
        s0, sI = _pure_squeezer_blocks(g.hI)
        return SymplecticMatrix(n=n, s0=s0, sI=sI)
    from scipy.linalg import expm  # deferred: see the module docstring

    h = _bogoliubov(g.h0, g.hI)
    k = np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)
    s = expm(-1j * k @ h)
    return SymplecticMatrix(n=n, s0=s[:n, :n], sI=s[:n, n:])


def squeezer_from_takagi(factors: TakagiFactors) -> SymplecticMatrix:
    """Pure squeezer exp(-i K H) with hI = i V R V^T, from its Takagi factors.

    With B = -i hI = V R V^T the closed form of ``exponentiate_generator``
    reads, exactly,

        s0 = V cosh(R) V^H,    sI = V sinh(R) V^T,

    so (V, R, V) are its Bloch-Messiah factors.  No second factorization is
    made: the symplectic residual of the result measures how far V is from
    unitary.  A ValueError names r_max when cosh(r_max)^2 would overflow.

    Both blocks are built once in the ``_real_basis`` W of V = W D,
    s0 = W cosh(R) W^H and sI = W (D^2 sinh(R)) W^T with D^2 = -1 for
    each imaginary column, so they run in real arithmetic and stay
    float64 when W is real.  The two column-scaled copies of W share one
    buffer, which is released with W before the residual is taken, so the
    check runs next to the two blocks and its own temporaries only.
    """
    v, r = factors.v, factors.r
    _check_r_max(r)
    w, imag = _real_basis(v)
    sinh = np.sinh(r)
    scaled = w * np.cosh(r)
    s0 = scaled @ w.conj().T
    np.multiply(w, np.where(imag, -sinh, sinh), out=scaled)
    sI = scaled @ w.T
    del w, scaled
    return SymplecticMatrix(n=v.shape[0], s0=s0, sI=sI)


def schmidt_squeezer_residual(sd: SchmidtDecomposition) -> float:
    """``symplectic_residual`` of the twin-beam squeezer of Schmidt factors, in m x m blocks.

    The duo modes of ``eigenmodes_from_schmidt`` give ``squeezer_from_takagi``
    the blocks s0 = diag(P, Q) and sI = [[0, X], [X^T, 0]] with

        P = C cosh(R) C^H,    Q = conj(D) cosh(R) D^T,    X = C sinh(R) D^H,

    exactly: the cross terms of each duo cancel.  The top row of
    S K S^dagger - K is then diag(P P^H - X X^H - I, Q Q^H - X^T conj(X) - I)
    and [[0, Y], [-Y^T, 0]] with Y = P X - X Q^T, so the residual is

        max(|P P^H - X X^H - I|, |Q Q^H - X^T conj(X) - I|, |Y|)
            / max(|P|^2, |Q|^2, |X|^2, 1),

    that of the 2m x 2m squeezer without its exact zero blocks.  Real c and
    d keep every product in real arithmetic, and each block is reduced to
    its maximum in its own buffer before the next is formed.  A ValueError
    names r_max when cosh(r_max)^2 would overflow, and another gives the
    residual when it exceeds ``SYMPLECTIC_THRESHOLD``.
    """
    c, d, r = sd.c, sd.d, sd.values
    _check_r_max(r)
    cosh, sinh = np.cosh(r), np.sinh(r)
    d_bar = d.conj()
    p = (c * cosh) @ c.conj().T
    q = (d_bar * cosh) @ d.T
    x = (c * sinh) @ d_bar.T
    norm2 = _residual_scale(p, q, x)
    res = max(_diagonal_block_defect(p, x), _diagonal_block_defect(q, x.T))
    res = float(max(res, _abs_max(_minus(p @ x, x @ q.T))) / norm2)
    if not res <= SYMPLECTIC_THRESHOLD:
        raise ValueError(f"matrix is not symplectic: residual {res:.3e}")
    return res


def two_mode_squeezer(r: float) -> SymplecticMatrix:
    """Two-mode squeezing exp(r(ab - a^dagger b^dagger)): s0 = cosh(r) I, sI = -sinh(r) sigma_x."""
    r = float(r)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return SymplecticMatrix(
        n=2,
        s0=np.cosh(r) * np.eye(2, dtype=complex),
        sI=-np.sinh(r) * sx,
    )


def bloch_messiah(s: SymplecticMatrix) -> BlochMessiahFactors:
    """Simultaneous SVD of the Bogoliubov blocks: s0 = V cosh(R) Q^H, sI = V sinh(R) Q^T.

    V is obtained from the Takagi factorization of the symmetric product
    s0 sI^T = V (cosh R sinh R) V^T, which synchronizes the degenerate-block
    freedom between the two blocks; Q = s0^H V cosh(R)^{-1} is then exactly
    unitary.  The reconstruction residual is the contract — V and Q are not
    unique for degenerate r.
    """
    z = s.s0 @ s.sI.T
    z = 0.5 * (z + z.T)
    factors = takagi_general(z)
    v = factors.v
    # Takagi values are cosh(r) sinh(r) = sinh(2r)/2, already descending.
    r = 0.5 * np.arcsinh(2.0 * factors.r)
    ch = np.cosh(r)
    q = s.s0.conj().T @ v / ch[np.newaxis, :]

    recon0 = (v * ch) @ q.conj().T
    reconI = (v * np.sinh(r)) @ q.T
    scale = max(np.abs(s.s0).max(), np.abs(s.sI).max())
    resid = max(np.abs(recon0 - s.s0).max(), np.abs(reconI - s.sI).max()) / scale
    if not resid <= 1e-8:
        raise RuntimeError(f"Bloch-Messiah reconstruction failed: residual {resid:.3e}")
    return BlochMessiahFactors(v=v, r=r, q=q)


def propagate_state(s: SymplecticMatrix, st: GaussianState) -> GaussianState:
    """Propagate mean and covariance: mean' = S mean-stack, Sigma' = S Sigma S^dagger."""
    if s.n != st.n:
        raise ValueError("mode counts differ")
    n = s.n
    full = s.full()
    stack = np.concatenate([st.mean, st.mean.conj()])
    mean = (full @ stack)[:n]
    sigma = full @ st.full_covariance() @ full.conj().T
    sigma0 = sigma[:n, :n]
    sigmaI = sigma[:n, n:]
    sigma0 = 0.5 * (sigma0 + sigma0.conj().T)
    sigmaI = 0.5 * (sigmaI + sigmaI.T)
    return GaussianState(n=n, mean=mean, sigma0=sigma0, sigmaI=sigmaI)

