"""Tests for the Takagi factorization of complex symmetric matrices."""

import numpy as np
import pytest
from conftest import random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeams.takagi import (
    TakagiFactors,
    takagi_general,
    takagi_real_symmetric,
    takagi_residual,
)

np.random.seed(42)


def random_symmetric(n, complex_valued=True):
    a = np.random.randn(n, n)
    if complex_valued:
        a = a + 1j * np.random.randn(n, n)
    return a + a.T


def check_factors(a, factors, res_tol=1e-10, uni_tol=1e-12):
    n = a.shape[0]
    assert takagi_residual(a, factors) <= res_tol
    assert np.abs(factors.v.conj().T @ factors.v - np.eye(n)).max() <= uni_tol
    assert np.all(factors.r >= 0)
    assert np.all(np.diff(factors.r) <= 1e-12 * max(factors.r[0], 1.0))


class TestRealSymmetric:
    """Spectral shortcut for real symmetric input."""

    def test_random_matrices(self):
        for n in (2, 5, 16):
            for _ in range(10):
                a = random_symmetric(n, complex_valued=False)
                check_factors(a, takagi_real_symmetric(a))

    def test_negative_eigenvalues_get_imaginary_columns(self):
        a = np.diag([3.0, -2.0])
        factors = takagi_real_symmetric(a)
        assert np.allclose(factors.r, [3.0, 2.0], atol=1e-14, rtol=0)
        # The column carrying the negative eigenvalue is purely imaginary.
        assert np.abs(factors.v[:, 1].real).max() < 1e-14
        assert np.abs(factors.v[:, 0].imag).max() < 1e-14
        check_factors(a, factors, res_tol=1e-14)

    def test_columns_real_or_imaginary(self):
        a = random_symmetric(8, complex_valued=False)
        factors = takagi_real_symmetric(a)
        for j in range(8):
            col = factors.v[:, j]
            assert min(np.abs(col.real).max(), np.abs(col.imag).max()) < 1e-14

    def test_deterministic(self):
        a = random_symmetric(6, complex_valued=False)
        f1 = takagi_real_symmetric(a)
        f2 = takagi_real_symmetric(a)
        assert np.array_equal(f1.v, f2.v)
        assert np.array_equal(f1.r, f2.r)

    def test_accepts_complex_dtype_with_zero_imag(self):
        a = random_symmetric(4, complex_valued=False).astype(complex)
        check_factors(a, takagi_real_symmetric(a))

    def test_rejects_truly_complex_input(self):
        a = random_symmetric(4, complex_valued=True)
        with pytest.raises(ValueError, match="imaginary part"):
            takagi_real_symmetric(a)


class TestGeneral:
    """Real-embedding eigensolver path for arbitrary complex symmetric matrices."""

    def test_random_matrices(self):
        for n in (2, 8, 64):
            for _ in range(10):
                a = random_symmetric(n)
                check_factors(a, takagi_general(a))

    def test_agrees_with_real_path(self):
        """Both algorithms reconstruct the same real matrix to 1e-10."""
        for n in (2, 8, 64):
            a = random_symmetric(n, complex_valued=False)
            fr = takagi_real_symmetric(a)
            fg = takagi_general(a)
            assert np.allclose(fr.r, fg.r, atol=1e-10 * max(fr.r[0], 1.0), rtol=0)
            recon_r = (fr.v * fr.r) @ fr.v.T
            recon_g = (fg.v * fg.r) @ fg.v.T
            assert np.abs(recon_r - recon_g).max() <= 1e-10 * max(fr.r[0], 1.0)

    def test_constructed_degenerate_spectrum(self):
        """Exactly repeated singular values, a zero among them."""
        r = np.array([2.0, 2.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0])
        for _ in range(10):
            v = random_unitary(8)
            a = (v * r) @ v.T
            factors = takagi_general(a)
            assert np.allclose(factors.r, r, atol=1e-12, rtol=0)
            check_factors(a, factors)

    def test_twin_beam_duo_matrix(self):
        """An off-diagonal real duo: eigenvalues +-0.7 of equal magnitude."""
        a = np.array([[0.0, 0.7], [0.7, 0.0]], dtype=complex)
        factors = takagi_general(a)
        assert np.allclose(factors.r, [0.7, 0.7], atol=1e-14, rtol=0)
        check_factors(a, factors, res_tol=1e-14)

    def test_deep_geometric_duo_spectrum(self):
        """Duos far below the leading value stay paired despite ulp splitting."""
        k = np.arange(32)
        r = np.repeat(0.5**k, 2)  # last duo sits near 2e-10 * r[0]
        v = random_unitary(64)
        a = (v * r) @ v.T
        factors = takagi_general(a)
        check_factors(a, factors)
        assert np.allclose(factors.r, r, atol=1e-12, rtol=0)

    def test_zero_matrix(self):
        factors = takagi_general(np.zeros((5, 5)))
        assert np.array_equal(factors.r, np.zeros(5))
        assert np.array_equal(factors.v, np.eye(5, dtype=complex))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square matrix"):
            takagi_general(np.zeros((3, 4)))

    def test_rejects_nonsymmetric(self):
        a = np.random.randn(4, 4) + 1j * np.random.randn(4, 4)
        with pytest.raises(ValueError, match="not symmetric"):
            takagi_general(a)


class TestNonFinite:
    """A NaN or inf entry fails loudly: every ordered comparison with NaN is
    false, so without a check a NaN would pass every tolerance test it meets."""

    @pytest.mark.parametrize(
        "entry", [np.nan, np.inf, complex(1.0, np.nan), complex(np.inf, 1.0)]
    )
    def test_general_rejects(self, entry):
        a = np.array([[entry, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            takagi_general(a)

    def test_real_symmetric_rejects_before_dropping_the_imaginary_part(self):
        a = np.array([[complex(1.0, np.nan), 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            takagi_real_symmetric(a)
        with pytest.raises(ValueError, match="non-finite"):
            takagi_real_symmetric(np.array([[np.nan, 1.0], [1.0, 0.0]]))


def noisy_twin_beam_block(m=200, rank=10, noise=1e-13, seed=5):
    """[[0, J], [J^T, 0]] with J of low rank plus complex noise.

    The noise singular values form one wide cluster at the noise floor,
    as the grid-truncated squeezing matrix does at large m.
    """
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank)))[0]
    w = np.linalg.qr(rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank)))[0]
    j = (u * (10.0 * 0.8 ** np.arange(rank))) @ w.conj().T
    j = j + noise * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    a = np.zeros((2 * m, 2 * m), dtype=complex)
    a[:m, m:] = j
    a[m:, :m] = j.T
    return a


class TestNoiseFloor:
    """Contract of ``takagi_general`` on a spectrum with a wide noise floor."""

    def test_wide_noise_floor_cluster(self):
        a = noisy_twin_beam_block()
        s = np.linalg.svd(a, compute_uv=False)
        assert np.sum(s < 1e-11 * s[0]) >= 300
        factors = takagi_general(a)
        n = a.shape[0]
        assert takagi_residual(a, factors) <= 1e-10
        assert np.abs(factors.v.conj().T @ factors.v - np.eye(n)).max() <= 1e-10
        assert np.allclose(factors.r, s, atol=1e-12 * s[0], rtol=0)


@st.composite
def clustered_spectra(draw):
    """Descending r with exact or ulp-split clusters, zeros and near zeros.

    Cluster levels fall geometrically (ratio <= 0.9), so distinct clusters
    are far apart.
    """
    r0 = draw(st.floats(1e-3, 1e3))
    ratio = draw(st.floats(0.1, 0.9))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    split = draw(st.sampled_from([0.0, 1e-15, 1e-13]))
    n_tiny = draw(st.integers(0, 4))
    n_zero = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = [r0 * ratio**k for k, size in enumerate(sizes) for _ in range(size)]
    r = np.array(levels) * (1.0 + split * rng.standard_normal(len(levels)))
    r = np.concatenate(
        [r, r0 * 10.0 ** rng.uniform(-16.0, -13.0, n_tiny), np.zeros(n_zero)]
    )
    r = np.sort(r[:40])[::-1]
    n = len(r)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (q * r) @ q.T, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(clustered_spectra())
def test_general_reconstructs_clustered_spectra(case):
    a, r = case
    a = 0.5 * (a + a.T)
    factors = takagi_general(a)
    n = len(r)
    assert takagi_residual(a, factors) <= 1e-10
    assert np.abs(factors.v.conj().T @ factors.v - np.eye(n)).max() <= 1e-10
    assert np.allclose(factors.r, r, atol=1e-12 * r[0], rtol=0)


@st.composite
def near_degenerate_duos(draw):
    """Descending duos split by relative gaps of 1e-9 to 1e-6, and A real.

    Duo k sits at r0 ratio^k, and its partner is lower by a gap between
    1e-9 and 1e-6 of that level: the near-degenerate duos of a squeezing
    matrix with band leakage.  ``a`` is (Q R Q^T) for a random unitary Q;
    ``real`` is a real symmetric matrix with the same |eigenvalues| and
    random signs, for the e^{i phi} A case.
    """
    n_duos = draw(st.integers(2, 32))
    r0 = draw(st.floats(1e-3, 1e3))
    ratio = draw(st.floats(0.3, 0.95))
    phi = draw(st.floats(0.1, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = r0 * ratio ** np.arange(n_duos)
    gaps = 10.0 ** rng.uniform(-9.0, -6.0, n_duos)
    r = np.sort(np.concatenate([levels, levels * (1.0 - gaps)]))[::-1]
    n = len(r)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    o = np.linalg.qr(rng.standard_normal((n, n)))[0]
    real = (o * (r * rng.choice([-1.0, 1.0], n))) @ o.T
    return (q * r) @ q.T, r, np.exp(1j * phi), 0.5 * (real + real.T)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(near_degenerate_duos())
def test_general_resolves_near_degenerate_duos(case):
    a, r, phase, real = case
    a = 0.5 * (a + a.T)
    factors = takagi_general(a)
    check_factors(a, factors)
    assert np.allclose(factors.r, r, atol=1e-12 * r[0], rtol=0)

    # A real matrix times a phase takes the complex branch; its values are
    # those of the real path.
    rotated = phase * real
    factors = takagi_general(rotated)
    check_factors(rotated, factors)
    expected = takagi_real_symmetric(real).r
    assert np.allclose(factors.r, expected, atol=1e-12 * np.abs(real).max(), rtol=0)


class TestResidual:
    """Reconstruction-quality measure."""

    def test_perfect_factors_give_zero(self):
        r = np.array([2.0, 1.0])
        v = np.eye(2, dtype=complex)
        assert takagi_residual(np.diag(r), TakagiFactors(v=v, r=r)) == 0.0

    def test_scale_invariant(self):
        a = random_symmetric(4)
        factors = takagi_general(a)
        wrong = TakagiFactors(v=factors.v, r=factors.r * 1.01)
        r_small = takagi_residual(a, wrong)
        r_large = takagi_residual(a * 1e6, TakagiFactors(v=wrong.v, r=wrong.r * 1e6))
        assert np.allclose(r_small, r_large, atol=1e-12, rtol=0)

    def test_dimension_mismatch_raises(self):
        factors = TakagiFactors(v=np.eye(3, dtype=complex), r=np.ones(3))
        with pytest.raises(ValueError, match="do not match"):
            takagi_residual(np.zeros((4, 4)), factors)
