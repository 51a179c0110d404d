"""Checks of real-or-imaginary factors in real arithmetic.

A Takagi factor V whose columns are each purely real or purely imaginary is
V = O D with O real and D = diag(1 or i).  The checks then evaluate, from O,
the same quantities as the complex formulas written out here:

    V R V^T = O (D^2 R) O^T          D^2 = diag(1 or -1)
    V^H V   = D^* (O^T O) D          same moduli as O^T O, same diagonal
    s0 = V cosh(R) V^H = O cosh(R) O^T
    sI = V sinh(R) V^T = O (D^2 sinh(R)) O^T
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeams.symplectic import squeezer_from_takagi
from twinbeams.takagi import (
    TakagiFactors,
    _real_columns,
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
    o, imag = _real_columns(v)
    assert o.dtype == float
    assert np.array_equal(o * np.where(imag, 1j, 1.0), v)

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
    assert _real_columns(v) is None
    a = (v * r) @ v.T
    factors = TakagiFactors(v=v, r=r)
    assert takagi_residual(a, factors) == complex_residual(a, v, r)
    assert _unitarity_defect(v) == complex_defect(v)


class TestFailuresOnTheRealPath:
    """Real-structured factors that break a check still fail it."""

    def test_scaled_column_is_not_unitary(self):
        v, r = real_structured(8, "random", seed=4)
        v[:, 3] *= 1.001
        assert _real_columns(v) is not None
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
        assert _real_columns(flipped) is not None
        assert takagi_residual(a, TakagiFactors(v=flipped, r=r)) > 1e-10

    def test_non_unitary_factors_are_not_symplectic(self):
        v, r = real_structured(8, "random", seed=8)
        v[:, 1] *= 1.001
        assert _real_columns(v) is not None
        with pytest.raises(ValueError, match="not symplectic"):
            squeezer_from_takagi(TakagiFactors(v=v, r=r))
