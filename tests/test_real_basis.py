"""Checks of real-or-imaginary factors in real arithmetic.

A Takagi factor V whose columns are each purely real or purely imaginary is
V = W D with W real and D = diag(1 or i); ``_real_basis`` returns that W,
and V itself (with D = I) for any other V.  The checks evaluate, from W,
the same quantities as the complex formulas written out here:

    V R V^T = W (D^2 R) W^T          D^2 = diag(1 or -1)
    V^H V   = D^* (W^H W) D          same moduli as W^H W, same diagonal
    s0 = V cosh(R) V^H = W cosh(R) W^H
    sI = V sinh(R) V^T = W (D^2 sinh(R)) W^T
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeams.symplectic import SymplecticMatrix, squeezer_from_takagi, symplectic_residual
from twinbeams.takagi import (
    TakagiFactors,
    _real_basis,
    _unitarity_defect,
    takagi_residual,
)
from twinbeams.twinbeam import SchmidtDecomposition, SqueezingSpectrum

EPS = np.finfo(float).eps


def complex_residual(a, v, r):
    """||a - V R V^T||_F / max(||a||_F, eps) with complex products."""
    return np.linalg.norm(a - (v * r) @ v.T) / max(np.linalg.norm(a), EPS)


def complex_defect(v):
    """max|V^H V - I| with complex products."""
    return np.abs(v.conj().T @ v - np.eye(v.shape[1])).max()


def complex_symplectic_residual(s0, sI):
    """max|S K S^dagger - K| / max(max|S|^2, 1) from the complex blocks."""
    n = s0.shape[0]
    top_left = s0 @ s0.conj().T - sI @ sI.conj().T - np.eye(n)
    top_right = s0 @ sI.T - sI @ s0.T
    res = max(np.abs(top_left).max(), np.abs(top_right).max())
    return res / max(np.abs(s0).max() ** 2, np.abs(sI).max() ** 2, 1.0)


def real_structured(n, mask, seed, zero_column=False):
    """(v, r): V = O diag(1 or i) for a random orthogonal O, r in [0, 1] descending.

    Imaginary columns are made by multiplying by i, so their real parts are
    +-0.0; every other column is conjugated, which gives real columns -0.0
    imaginary parts and turns i O_j into -i O_j.  ``zero_column`` replaces
    column 0 by signed zeros.
    """
    rng = np.random.default_rng(seed)
    o = np.linalg.qr(rng.standard_normal((n, n)))[0]
    imag = {
        "random": rng.random(n) < 0.5,
        "real": np.zeros(n, dtype=bool),
        "imaginary": np.ones(n, dtype=bool),
    }[mask]
    v = o.astype(complex)
    v[:, imag] *= 1j
    v[:, 1::2] = v[:, 1::2].conj()
    if zero_column:
        v[:, 0] *= -0.0
    r = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    return v, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 64),
    mask=st.sampled_from(["random", "real", "imaginary"]),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, mask="real", zero_column=False, seed=0)
@example(n=2, mask="imaginary", zero_column=False, seed=0)
@example(n=17, mask="random", zero_column=True, seed=1)
@example(n=64, mask="imaginary", zero_column=True, seed=2)
def test_real_path_matches_complex_formulas(n, mask, zero_column, seed):
    v, r = real_structured(n, mask, seed, zero_column)
    w, imag = _real_basis(v)
    assert w.dtype == float
    assert np.array_equal(w * np.where(imag, 1j, 1.0), v)

    factors = TakagiFactors(v=v, r=r)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    exact = (v * r) @ v.T
    for a in (exact, exact + 1e-3 * (noise + noise.T)):
        assert abs(takagi_residual(a, factors) - complex_residual(a, v, r)) <= 1e-14
    assert abs(_unitarity_defect(v) - complex_defect(v)) <= 1e-14

    if zero_column:
        # V is not unitary, so its squeezer is not symplectic on either path.
        with pytest.raises(ValueError, match="not symplectic"):
            squeezer_from_takagi(factors)
        return
    s = squeezer_from_takagi(factors)
    s0 = (v * np.cosh(r)) @ v.conj().T
    sI = (v * np.sinh(r)) @ v.T
    assert not np.any(s.s0.imag) and not np.any(s.sI.imag)
    assert np.abs(s.s0 - s0).max() <= 1e-14
    assert np.abs(s.sI - sI).max() <= 1e-14
    assert abs(s.residual - complex_symplectic_residual(s0, sI)) <= 1e-14


def test_tiny_imaginary_entry_takes_the_complex_path():
    v, r = real_structured(8, "random", seed=3)
    column = int(np.flatnonzero(~np.any(v.imag, axis=0))[0])
    v[5, column] += 1e-300j
    w, imag = _real_basis(v)
    assert w is v and not np.any(imag)
    a = (v * r) @ v.T
    factors = TakagiFactors(v=v, r=r)
    assert takagi_residual(a, factors) == complex_residual(a, v, r)
    assert _unitarity_defect(v) == complex_defect(v)

    s = squeezer_from_takagi(factors)
    s0 = (v * np.cosh(r)) @ v.conj().T
    sI = (v * np.sinh(r)) @ v.T
    assert np.any(s.s0.imag)
    assert np.array_equal(s.s0, s0) and np.array_equal(s.sI, sI)
    assert abs(symplectic_residual(s) - complex_symplectic_residual(s0, sI)) <= 1e-14


class TestFailuresOnTheRealPath:
    """Real-structured factors that break a check still fail it."""

    def test_scaled_column_is_not_unitary(self):
        v, r = real_structured(8, "random", seed=4)
        v[:, 3] *= 1.001
        assert _real_basis(v)[0].dtype == float
        with pytest.raises(ValueError, match="modes are not unitary"):
            SqueezingSpectrum(values=r, modes=v)
        c, _ = real_structured(4, "real", seed=5)
        c[:, 2] *= 1.001
        d, _ = real_structured(4, "real", seed=6)
        with pytest.raises(ValueError, match="c is not unitary"):
            SchmidtDecomposition(c=c, d=d, values=np.array([3.0, 2.0, 1.0, 0.5]))

    def test_imaginary_column_made_real_flips_its_term(self):
        v, r = real_structured(8, "imaginary", seed=7)
        a = (v * r) @ v.T
        assert takagi_residual(a, TakagiFactors(v=v, r=r)) <= 1e-14
        flipped = v.copy()
        flipped[:, 0] *= -1j
        assert not np.any(flipped[:, 0].imag)
        assert _real_basis(flipped)[0].dtype == float
        assert takagi_residual(a, TakagiFactors(v=flipped, r=r)) > 1e-10

    def test_non_unitary_factors_are_not_symplectic(self):
        v, r = real_structured(8, "random", seed=8)
        v[:, 1] *= 1.001
        assert _real_basis(v)[0].dtype == float
        with pytest.raises(ValueError, match="not symplectic"):
            squeezer_from_takagi(TakagiFactors(v=v, r=r))


# The checks as they were written before they reused their own buffers: every
# difference and absolute value in a new array.


def former_unitarity_defect(v):
    w = _real_basis(v)[0]
    gram = w.conj().T @ w
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram).max())


def former_takagi_residual(a, factors):
    v, r = factors.v, factors.r
    w, imag = _real_basis(v)
    recon = (w * np.where(imag, -r, r)) @ w.T
    denom = max(np.linalg.norm(a), np.finfo(float).eps)
    return float(np.linalg.norm(a - recon) / denom)


def former_squeezer_blocks(factors):
    w, imag = _real_basis(factors.v)
    sinh = np.sinh(factors.r)
    s0 = (w * np.cosh(factors.r)) @ w.conj().T
    sI = (w * np.where(imag, -sinh, sinh)) @ w.T
    return s0, sI


def former_symplectic_residual(s0, sI):
    top_left = s0 @ s0.conj().T - sI @ sI.conj().T
    top_left[np.diag_indices_from(top_left)] -= 1.0
    x = s0 @ sI.T
    top_right = x - x.T
    res = max(np.abs(top_left).max(), np.abs(top_right).max())
    norm2 = max(np.abs(s0).max() ** 2, np.abs(sI).max() ** 2, 1.0)
    return float(res / norm2)


def bits(x):
    return np.asarray(x).view(np.uint64)


class TestChecksInTheirOwnBuffers:
    """The in-place checks return the former values bit for bit: real
    (real-structured V), complex (general V) and mixed-dtype inputs."""

    @staticmethod
    def factor_cases(n, seed):
        """(name, factors, a) with a = V R V^T plus a small symmetric error."""
        rng = np.random.default_rng(seed)
        structured = TakagiFactors(*real_structured(n, "random", seed))
        general = TakagiFactors(
            v=np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0],
            r=structured.r,
        )
        real_v = TakagiFactors(v=np.linalg.qr(rng.standard_normal((n, n)))[0], r=structured.r)
        real_noise = rng.standard_normal((n, n))
        complex_noise = real_noise + 1j * rng.standard_normal((n, n))
        for name, factors in (("real-basis", structured), ("complex", general), ("float64-v", real_v)):
            exact = (factors.v * factors.r) @ factors.v.T
            for label, noise in (("real-a", real_noise), ("complex-a", complex_noise)):
                a = exact + 1e-3 * (noise + noise.T)
                if label == "real-a":
                    a = np.ascontiguousarray(a.real)
                yield f"{name}/{label}", factors, a

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_takagi_residual(self, n, seed):
        seen = set()
        for name, factors, a in self.factor_cases(n, seed):
            recon_dtype = _real_basis(factors.v)[0].dtype
            seen.add((recon_dtype, a.dtype))
            assert takagi_residual(a, factors) == former_takagi_residual(a, factors), name
            # A float32 a fits the buffer of a float64 reconstruction.
            a32 = a.astype(np.complex64 if np.iscomplexobj(a) else np.float32)
            assert takagi_residual(a32, factors) == former_takagi_residual(a32, factors), name
        # Complex a against real factors is the one case that needs a new buffer.
        assert (np.dtype(float), np.dtype(complex)) in seen
        assert (np.dtype(complex), np.dtype(float)) in seen

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_unitarity_defect(self, n, seed):
        for name, factors, _ in self.factor_cases(n, seed):
            for v in (factors.v, 1.001 * factors.v):
                assert _unitarity_defect(v) == former_unitarity_defect(v), name

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_squeezer_and_symplectic_residual(self, n, seed):
        for name, factors, _ in self.factor_cases(n, seed):
            s = squeezer_from_takagi(factors)
            s0, sI = former_squeezer_blocks(factors)
            assert np.array_equal(bits(s.s0), bits(s0)), name
            assert np.array_equal(bits(s.sI), bits(sI)), name
            assert s.residual == former_symplectic_residual(s0, sI), name

    @pytest.mark.parametrize("phase", [0.0, 0.3])
    def test_symplectic_residual_of_mixed_blocks(self, phase):
        """A float64 s0 next to a complex128 sI: the top-left block leaves
        the real buffer for a complex one."""
        r = 0.7
        s0 = np.cosh(r) * np.eye(2)
        sI = -np.exp(1j * phase) * np.sinh(r) * np.array([[0.0, 1.0], [1.0, 0.0]])
        s = SymplecticMatrix(n=2, s0=s0, sI=sI)
        assert (s.s0.dtype, s.sI.dtype) == (np.float64, np.complex128)
        assert s.residual == former_symplectic_residual(s0, sI)
        stretched = SymplecticMatrix.__new__(SymplecticMatrix)
        object.__setattr__(stretched, "s0", 1.001 * s0)
        object.__setattr__(stretched, "sI", sI)
        assert symplectic_residual(stretched) == former_symplectic_residual(1.001 * s0, sI)
