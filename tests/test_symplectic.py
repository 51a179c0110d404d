"""Tests for complex-symplectic algebra and Gaussian-state propagation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import build_working_point, random_unitary
from scipy.linalg import expm

import twinbeams.symplectic as symplectic
from twinbeams.symplectic import (
    BlochMessiahFactors,
    GaussianState,
    GeneratorMatrix,
    SymplecticMatrix,
    bloch_messiah,
    exponentiate_generator,
    propagate_state,
    squeezer_from_takagi,
    symplectic_residual,
    two_mode_squeezer,
)
from twinbeams.takagi import TakagiFactors, takagi_real_symmetric

np.random.seed(42)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_generator(n, scale=0.3):
    a = np.random.randn(n, n) + 1j * np.random.randn(n, n)
    b = np.random.randn(n, n) + 1j * np.random.randn(n, n)
    return GeneratorMatrix(
        n=n, h0=scale * (a + a.conj().T) / 2, hI=scale * (b + b.T) / 2
    )


def random_symplectic(n, scale=0.3):
    return exponentiate_generator(random_generator(n, scale))


def random_symmetric(n, scale=0.3):
    b = np.random.randn(n, n) + 1j * np.random.randn(n, n)
    return scale * (b + b.T) / 2


def pure_squeezer(hI):
    n = hI.shape[0]
    return GeneratorMatrix(n=n, h0=np.zeros((n, n)), hI=hI)


def k_matrix(n):
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)]))


def dense_exponential(g):
    """Reference: scaling-and-squaring expm of the full 2n x 2n -i K H."""
    h = np.block([[g.h0, g.hI], [g.hI.conj(), g.h0.conj()]])
    return expm(-1j * k_matrix(g.n) @ h)


def dense_residual(s):
    """Reference: max|S K S^dagger - K| / max(max|S|^2, 1) on the assembled S."""
    full = np.block([[s.s0, s.sI], [s.sI.conj(), s.s0.conj()]])
    k = k_matrix(s.n)
    res = full @ k @ full.conj().T - k
    return float(np.abs(res).max() / max(np.abs(full).max() ** 2, 1.0))


class TestGenerator:
    """Generator validation and exponentiation."""

    def test_block_shape_validation(self):
        with pytest.raises(ValueError, match="must be n x n"):
            GeneratorMatrix(n=2, h0=np.zeros((3, 3)), hI=np.zeros((2, 2)))

    def test_hermiticity_validation(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="h0 is not Hermitian"):
            GeneratorMatrix(n=2, h0=bad, hI=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="hI is not complex symmetric"):
            GeneratorMatrix(n=2, h0=np.zeros((2, 2)), hI=bad)

    def test_zero_generator_gives_identity(self):
        s = exponentiate_generator(
            GeneratorMatrix(n=3, h0=np.zeros((3, 3)), hI=np.zeros((3, 3)))
        )
        assert np.allclose(s.s0, np.eye(3), atol=1e-15, rtol=0)
        assert np.abs(s.sI).max() == 0.0

    def test_exponential_is_symplectic(self):
        for n in (1, 2, 5):
            for _ in range(5):
                s = random_symplectic(n)
                assert symplectic_residual(s) <= 1e-12

    def test_passive_generator_stays_passive(self):
        """hI = 0 exponentiates to a unitary s0 with sI = 0."""
        a = np.random.randn(3, 3) + 1j * np.random.randn(3, 3)
        g = GeneratorMatrix(n=3, h0=(a + a.conj().T) / 2, hI=np.zeros((3, 3)))
        s = exponentiate_generator(g)
        assert np.abs(s.sI).max() < 1e-14
        assert np.allclose(s.s0 @ s.s0.conj().T, np.eye(3), atol=1e-13, rtol=0)


class TestPureSqueezerClosedForm:
    """The h0 = 0 branch of exponentiate_generator against a dense expm."""

    @staticmethod
    def assert_matches_expm(hI):
        g = pure_squeezer(hI)
        ref = dense_exponential(g)
        got = exponentiate_generator(g).full()
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_random_complex_symmetric(self):
        for n in (1, 2, 5, 16):
            for scale in (0.3, 2.0):
                self.assert_matches_expm(random_symmetric(n, scale))

    def test_rank_deficient(self):
        """Zero squeezing parameters: sinh(r)/r takes its limit 1 there."""
        for rank in (1, 2):
            v = np.random.randn(6, rank) + 1j * np.random.randn(6, rank)
            self.assert_matches_expm(v @ v.T)

    def test_exactly_degenerate_two_mode_blocks(self):
        """Two equal two-mode squeezers: B B^H is exactly 0.49 I."""
        hI = -0.7j * np.kron(np.eye(2), SIGMA_X)
        self.assert_matches_expm(hI)

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25])
    def test_pipeline_gamma(self, z0_fraction):
        gamma = build_working_point(m=16, z0_fraction=z0_fraction).sq.gamma
        complex_gamma = np.abs(gamma.imag).max() > 1e-10 * np.abs(gamma).max()
        assert complex_gamma == (z0_fraction != 0.5)
        self.assert_matches_expm(1j * gamma)

    def test_overflow_names_r_max(self):
        with pytest.raises(ValueError, match=r"r_max = 400 exceeds"):
            exponentiate_generator(pure_squeezer(-400j * SIGMA_X))

    def test_large_finite_r(self):
        s = exponentiate_generator(pure_squeezer(-300j * SIGMA_X))
        assert np.allclose(s.s0, math.cosh(300.0) * np.eye(2), atol=0, rtol=1e-13)


class TestSqueezerFromTakagi:
    """s0 = V cosh(R) V^H, sI = V sinh(R) V^T from one real Takagi factorization."""

    @pytest.mark.parametrize("m", [16, 64])
    def test_matches_exponentiate_generator(self, m):
        gamma = build_working_point(m=m).sq.gamma
        assert not np.any(gamma.imag)
        got = squeezer_from_takagi(takagi_real_symmetric(gamma))
        ref = exponentiate_generator(pure_squeezer(1j * gamma))
        scale = max(np.abs(ref.s0).max(), np.abs(ref.sI).max())
        assert np.abs(got.s0 - ref.s0).max() <= 1e-13 * scale
        assert np.abs(got.sI - ref.sI).max() <= 1e-13 * scale
        assert got.residual <= 1e-14

    def test_random_real_symmetric_matches_expm(self):
        for n in (1, 2, 5, 16):
            a = np.random.randn(n, n)
            gamma = a + a.T
            ref = dense_exponential(pure_squeezer(1j * gamma))
            got = squeezer_from_takagi(takagi_real_symmetric(gamma)).full()
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_zero_gain_is_exact_identity(self):
        gamma = build_working_point(m=16, gain=0.0).sq.gamma
        s = squeezer_from_takagi(takagi_real_symmetric(gamma))
        assert np.array_equal(s.s0, np.eye(32))
        assert not np.any(s.sI)

    def test_overflow_names_r_max(self):
        """The same message as the eigh-of-B B^H closed form."""
        factors = TakagiFactors(v=np.eye(2, dtype=complex), r=np.array([400.0, 400.0]))
        with pytest.raises(ValueError, match=r"r_max = 400 exceeds 354\.9"):
            squeezer_from_takagi(factors)

    def test_large_finite_r(self):
        factors = TakagiFactors(v=np.eye(2, dtype=complex), r=np.array([300.0, 300.0]))
        s = squeezer_from_takagi(factors)
        assert np.array_equal(s.s0, math.cosh(300.0) * np.eye(2))
        assert np.array_equal(s.sI, math.sinh(300.0) * np.eye(2))


class TestSymplecticResidual:
    """The block residual against the dense formula."""

    def test_matches_dense_formula_on_random_blocks(self):
        for n in (1, 3, 6):
            for scale in (0.1, 1.0, 10.0):
                s = SimpleNamespace(
                    n=n,
                    s0=scale * (np.random.randn(n, n) + 1j * np.random.randn(n, n)),
                    sI=scale * (np.random.randn(n, n) + 1j * np.random.randn(n, n)),
                )
                assert np.isclose(
                    symplectic_residual(s), dense_residual(s), rtol=1e-12, atol=0
                )

    def test_matches_dense_formula_on_random_symplectic(self):
        for n in (1, 3, 6):
            s = random_symplectic(n, scale=1.0)
            assert symplectic_residual(s) <= 1e-13
            assert dense_residual(s) <= 1e-13

    def test_attribute_is_the_residual(self):
        for s in (random_symplectic(4), two_mode_squeezer(1.5)):
            assert s.residual == symplectic_residual(s)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="not symplectic: residual nan"):
            SymplecticMatrix(n=1, s0=np.array([[np.nan]]), sI=np.zeros((1, 1)))


class TestSymplecticMatrix:
    """Block container and its full-matrix layout."""

    def test_rejects_nonsymplectic_blocks(self):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticMatrix(n=2, s0=2.0 * np.eye(2), sI=np.zeros((2, 2)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="must be n x n"):
            SymplecticMatrix(n=2, s0=np.eye(3), sI=np.zeros((2, 2)))

    def test_full_layout(self):
        s = two_mode_squeezer(0.5)
        full = s.full()
        assert np.array_equal(full[:2, :2], s.s0)
        assert np.array_equal(full[:2, 2:], s.sI)
        assert np.array_equal(full[2:, :2], s.sI.conj())
        assert np.array_equal(full[2:, 2:], s.s0.conj())


class TestFactories:
    """The two-mode squeezer."""

    def test_two_mode_squeezer_structure(self):
        s = two_mode_squeezer(0.8)
        assert np.allclose(s.s0, math.cosh(0.8) * np.eye(2), atol=1e-15, rtol=0)
        assert np.allclose(s.sI, -math.sinh(0.8) * SIGMA_X, atol=1e-15, rtol=0)

    def test_two_mode_squeezer_from_generator(self):
        """exp(r(ab - a+b+)) equals the closed form for a range of r."""
        for r in (0.1, 0.5, 1.0, 2.0):
            g = GeneratorMatrix(n=2, h0=np.zeros((2, 2)), hI=-1j * r * SIGMA_X)
            s = exponentiate_generator(g)
            ref = two_mode_squeezer(r)
            assert np.abs(s.s0 - ref.s0).max() <= 1e-12
            assert np.abs(s.sI - ref.sI).max() <= 1e-12


class TestBlochMessiah:
    """Passive-squeeze-passive factorization."""

    def test_random_symplectic(self):
        for n in (1, 2, 5):
            for _ in range(5):
                s = random_symplectic(n, scale=0.5)
                bm = bloch_messiah(s)
                assert np.abs(bm.v.conj().T @ bm.v - np.eye(n)).max() <= 1e-10
                assert np.abs(bm.q.conj().T @ bm.q - np.eye(n)).max() <= 1e-10
                assert np.all(bm.r >= -1e-14)
                ch, sh = np.cosh(bm.r), np.sinh(bm.r)
                assert np.abs((bm.v * ch) @ bm.q.conj().T - s.s0).max() <= 1e-10
                assert np.abs((bm.v * sh) @ bm.q.T - s.sI).max() <= 1e-10

    def test_two_mode_squeezer_degenerate_r(self):
        bm = bloch_messiah(two_mode_squeezer(2.0))
        assert np.allclose(bm.r, [2.0, 2.0], atol=1e-12, rtol=0)

    def test_intra_pair_rotation_freedom(self):
        """Rotating a degenerate pair of columns leaves the reconstruction fixed."""
        s = two_mode_squeezer(2.0)
        bm = bloch_messiah(s)
        c, d = math.cos(0.4), math.sin(0.4)
        o = np.array([[c, -d], [d, c]])
        v2, q2 = bm.v @ o, bm.q @ o
        ch, sh = np.cosh(bm.r), np.sinh(bm.r)
        assert np.abs((v2 * ch) @ q2.conj().T - s.s0).max() <= 1e-12
        assert np.abs((v2 * sh) @ q2.T - s.sI).max() <= 1e-12

    def test_passive_input_has_zero_r(self):
        s = SymplecticMatrix(n=3, s0=random_unitary(3), sI=np.zeros((3, 3)))
        bm = bloch_messiah(s)
        assert np.abs(bm.r).max() <= 1e-12

    def test_mode_wise_squeezer_recovers_r(self):
        r = np.array([1.5, 0.7, 0.2])
        s = SymplecticMatrix(n=3, s0=np.diag(np.cosh(r)), sI=np.diag(np.sinh(r)))
        bm = bloch_messiah(s)
        assert np.allclose(bm.r, np.sort(r)[::-1], atol=1e-12, rtol=0)

    def test_reads_the_stored_residual(self, monkeypatch):
        """The residual computed on construction is not recomputed."""
        s = random_symplectic(4, scale=0.5)
        calls = []
        monkeypatch.setattr(symplectic, "symplectic_residual", lambda m: calls.append(m))
        bloch_messiah(s)
        assert calls == []


class TestGaussianState:
    """State container validation and the vacuum."""

    def test_vacuum(self):
        st = GaussianState.vacuum(3)
        assert np.abs(st.mean).max() == 0.0
        assert np.array_equal(st.sigma0, 0.5 * np.eye(3))
        assert np.abs(st.sigmaI).max() == 0.0
        full = st.full_covariance()
        assert np.array_equal(full, 0.5 * np.eye(6))

    def test_validation(self):
        eye = 0.5 * np.eye(2)
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="must be n x n"):
            GaussianState(n=2, mean=np.zeros(2), sigma0=0.5 * np.eye(3), sigmaI=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sigma0 is not Hermitian"):
            GaussianState(n=2, mean=np.zeros(2), sigma0=bad, sigmaI=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sigmaI is not symmetric"):
            GaussianState(n=2, mean=np.zeros(2), sigma0=eye, sigmaI=bad)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            GaussianState(n=2, mean=np.zeros(2), sigma0=-eye, sigmaI=np.zeros((2, 2)))


class TestPropagation:
    """Covariance propagation through symplectic transformations."""

    def test_vacuum_through_two_mode_squeezer(self):
        r = 2.0
        st = propagate_state(two_mode_squeezer(r), GaussianState.vacuum(2))
        assert np.abs(st.sigma0 - 0.5 * math.cosh(2 * r) * np.eye(2)).max() <= 1e-12
        assert np.abs(st.sigmaI + 0.5 * math.sinh(2 * r) * SIGMA_X).max() <= 1e-12

    def test_vacuum_covariance_from_bloch_messiah(self):
        """Sigma0 = V cosh(2R) V^H / 2 and SigmaI = V sinh(2R) V^T / 2 out of vacuum."""
        s = random_symplectic(4, scale=0.5)
        bm = bloch_messiah(s)
        st = propagate_state(s, GaussianState.vacuum(4))
        sig0 = 0.5 * (bm.v * np.cosh(2 * bm.r)) @ bm.v.conj().T
        sigI = 0.5 * (bm.v * np.sinh(2 * bm.r)) @ bm.v.T
        assert np.abs(st.sigma0 - sig0).max() <= 1e-8
        assert np.abs(st.sigmaI - sigI).max() <= 1e-8

    def test_mean_propagation(self):
        u = random_unitary(3)
        mean = np.array([1.0 + 0.5j, -0.3, 0.2j])
        st = GaussianState(
            n=3, mean=mean, sigma0=0.5 * np.eye(3), sigmaI=np.zeros((3, 3))
        )
        s = SymplecticMatrix(n=3, s0=u, sI=np.zeros((3, 3)))
        out = propagate_state(s, st)
        assert np.allclose(out.mean, u @ mean, atol=1e-13, rtol=0)

    def test_mode_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="mode counts differ"):
            propagate_state(two_mode_squeezer(1.0), GaussianState.vacuum(3))
