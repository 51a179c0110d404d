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
    schmidt_squeezer_residual,
    squeezer_from_takagi,
    symplectic_residual,
    two_mode_squeezer,
)
from twinbeams.takagi import TakagiFactors, takagi_general, takagi_real_symmetric, takagi_residual
from twinbeams.twinbeam import (
    JointSpectralAmplitude,
    SchmidtDecomposition,
    SqueezingSpectrum,
    _schmidt_residual,
    block_squeezing_matrix,
    eigenmodes_from_schmidt,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def complex_normal(rng, *shape):
    """Entries with standard normal real and imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_generator(rng, n, scale=0.3):
    a, b = complex_normal(rng, n, n), complex_normal(rng, n, n)
    return GeneratorMatrix(
        n=n, h0=scale * (a + a.conj().T) / 2, hI=scale * (b + b.T) / 2
    )


def random_symplectic(rng, n, scale=0.3):
    return exponentiate_generator(random_generator(rng, n, scale))


def random_symmetric(rng, n, scale=0.3):
    b = complex_normal(rng, n, n)
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
        # NaN fails every tolerance test; inf - inf is NaN.
        for entry in (np.nan, np.inf, -np.inf):
            block = np.array([[entry, 0.0], [0.0, 0.0]])
            with pytest.raises(ValueError, match="h0 has non-finite"):
                GeneratorMatrix(n=2, h0=block, hI=np.zeros((2, 2)))
            with pytest.raises(ValueError, match="hI has non-finite"):
                GeneratorMatrix(n=2, h0=np.zeros((2, 2)), hI=block)

    def test_zero_generator_gives_identity(self):
        s = exponentiate_generator(
            GeneratorMatrix(n=3, h0=np.zeros((3, 3)), hI=np.zeros((3, 3)))
        )
        assert np.allclose(s.s0, np.eye(3), atol=1e-15, rtol=0)
        assert np.abs(s.sI).max() == 0.0

    def test_exponential_is_symplectic(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5):
            for _ in range(5):
                s = random_symplectic(rng, n)
                assert symplectic_residual(s) <= 1e-12

    def test_passive_generator_stays_passive(self):
        """hI = 0 exponentiates to a unitary s0 with sI = 0."""
        a = complex_normal(np.random.default_rng(2), 3, 3)
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
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 16):
            for scale in (0.3, 2.0):
                self.assert_matches_expm(random_symmetric(rng, n, scale))

    def test_rank_deficient(self):
        """Zero squeezing parameters: sinh(r)/r takes its limit 1 there."""
        rng = np.random.default_rng(4)
        for rank in (1, 2):
            v = complex_normal(rng, 6, rank)
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
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 16):
            a = rng.standard_normal((n, n))
            gamma = a + a.T
            ref = dense_exponential(pure_squeezer(1j * gamma))
            got = squeezer_from_takagi(takagi_real_symmetric(gamma)).full()
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_block_dtypes_follow_the_factors(self):
        """Real factors give float64 blocks, with no complex copy; a complex
        Gamma and the eigh closed form give complex128 blocks."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        real = squeezer_from_takagi(takagi_real_symmetric(a + a.T))
        assert real.s0.dtype == real.sI.dtype == np.float64
        complex_ = squeezer_from_takagi(takagi_general(random_symmetric(rng, 6)))
        assert complex_.s0.dtype == complex_.sI.dtype == np.complex128
        generated = exponentiate_generator(pure_squeezer(1j * (a + a.T)))
        assert generated.s0.dtype == generated.sI.dtype == np.complex128

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
        rng = np.random.default_rng(7)
        for n in (1, 3, 6):
            for scale in (0.1, 1.0, 10.0):
                s = SimpleNamespace(
                    n=n,
                    s0=scale * complex_normal(rng, n, n),
                    sI=scale * complex_normal(rng, n, n),
                )
                assert np.isclose(
                    symplectic_residual(s), dense_residual(s), rtol=1e-12, atol=0
                )

    def test_matches_dense_formula_on_random_symplectic(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 6):
            s = random_symplectic(rng, n, scale=1.0)
            assert symplectic_residual(s) <= 1e-13
            assert dense_residual(s) <= 1e-13

    def test_attribute_is_the_residual(self):
        for s in (random_symplectic(np.random.default_rng(9), 4), two_mode_squeezer(1.5)):
            assert s.residual == symplectic_residual(s)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="not symplectic: residual nan"):
            SymplecticMatrix(n=1, s0=np.array([[np.nan]]), sI=np.zeros((1, 1)))


def random_schmidt(rng, m, dtype, r1=1.5, q=0.8, stretch=0.0):
    """Haar-random c and d (orthogonal when real) with geometric values r1 q^k;
    ``stretch`` scales the row of c with the smallest largest entry by
    1 + stretch, which moves max|C^H C - I| the least."""
    if dtype == np.float64:
        factors = []
        for _ in range(2):
            o, t = np.linalg.qr(rng.standard_normal((m, m)))
            factors.append(o * np.sign(np.diag(t)))
        c, d = factors
    else:
        c, d = random_unitary(m, rng), random_unitary(m, rng)
    c[np.argmin(np.abs(c).max(axis=1))] *= 1.0 + stretch
    return SchmidtDecomposition(c=c, d=d, values=r1 * q ** np.arange(m))


def duo_factors(sd):
    """The Takagi factors of the 2m x 2m duo spectrum of ``sd``."""
    spectrum = eigenmodes_from_schmidt(sd)
    return TakagiFactors(v=spectrum.modes, r=spectrum.values)


class TestSchmidtSqueezerResidual:
    """The m x m block residual of Schmidt factors against the 2m x 2m squeezer
    of their duos, and the block Takagi residual against the block matrix."""

    @pytest.mark.parametrize("stretch", [0.0, 1e-11], ids=["unitary", "stretched"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    def test_matches_duo_squeezer(self, dtype, stretch):
        sd = random_schmidt(np.random.default_rng(10), 64, dtype, stretch=stretch)
        assert sd.c.dtype == sd.d.dtype == dtype
        block = schmidt_squeezer_residual(sd)
        assert abs(block - squeezer_from_takagi(duo_factors(sd)).residual) <= 1e-14
        if stretch:
            # The stretch reads twice on the diagonal of C C^H.
            assert block >= stretch

    @pytest.mark.parametrize("noise", [0.0, 1e-9], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    def test_takagi_residual_matches_block_matrix(self, dtype, noise):
        rng = np.random.default_rng(11)
        sd = random_schmidt(rng, 64, dtype)
        j = (sd.c * sd.values) @ sd.d.conj().T
        j = j + noise * rng.standard_normal(j.shape).astype(dtype)
        jsa = JointSpectralAmplitude(m=64, j_matrix=j)
        block = _schmidt_residual(jsa, sd)
        assert abs(block - takagi_residual(block_squeezing_matrix(jsa), duo_factors(sd))) <= 1e-14
        if noise:
            assert block >= 0.1 * noise

    def test_each_block_can_carry_the_maximum(self):
        """Factors off unitary by about 1e-12 put the maximum in each of the
        three blocks in turn, and in every draw the block residual follows the
        2m x 2m one to within the rounding of cosh(5)^2."""
        rng = np.random.default_rng(1)

        def perturbed_unitary(m):
            z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            u, t = np.linalg.qr(z)
            noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            return u * (np.diag(t) / np.abs(np.diag(t))) + 1e-12 * noise

        wins = [0, 0, 0]
        for r1 in (0.1, 5.0):
            for _ in range(100):
                c, d = perturbed_unitary(4), perturbed_unitary(4)
                sd = SchmidtDecomposition(c=c, d=d, values=r1 * 0.8 ** np.arange(4))
                dense = squeezer_from_takagi(duo_factors(sd)).residual
                assert abs(schmidt_squeezer_residual(sd) - dense) <= 1e-2 * dense
                cosh, sinh = np.cosh(sd.values), np.sinh(sd.values)
                p = (c * cosh) @ c.conj().T
                q = (d.conj() * cosh) @ d.T
                x = (c * sinh) @ d.conj().T
                maxima = [
                    np.abs(p @ p.conj().T - x @ x.conj().T - np.eye(4)).max(),
                    np.abs(q @ q.conj().T - x.T @ x.conj() - np.eye(4)).max(),
                    np.abs(p @ x - x @ q.T).max(),
                ]
                first, second = np.sort(maxima)[::-1][:2]
                if first > 1.1 * second:
                    wins[int(np.argmax(maxima))] += 1
        assert min(wins) >= 1, wins

    def test_zero_values(self):
        sd = random_schmidt(np.random.default_rng(12), 16, np.complex128, r1=0.0)
        block = schmidt_squeezer_residual(sd)
        assert block <= 1e-14
        assert abs(block - squeezer_from_takagi(duo_factors(sd)).residual) <= 1e-14

    def test_overflow_names_r_max(self):
        """The same message as the 2m x 2m squeezer."""
        sd = SchmidtDecomposition(c=np.eye(2), d=np.eye(2), values=np.array([400.0, 400.0]))
        with pytest.raises(ValueError, match=r"r_max = 400 exceeds 354\.9"):
            schmidt_squeezer_residual(sd)

    def test_large_finite_r(self):
        sd = SchmidtDecomposition(c=np.eye(2), d=np.eye(2), values=np.array([354.0, 300.0]))
        assert schmidt_squeezer_residual(sd) <= 1e-15

    def test_residual_past_threshold_raises(self):
        """A row stretch that SchmidtDecomposition's Gram check lets through."""
        sd = random_schmidt(np.random.default_rng(13), 16, np.float64, r1=0.1, stretch=1e-10)
        with pytest.raises(ValueError, match=r"matrix is not symplectic: residual"):
            schmidt_squeezer_residual(sd)

    @pytest.mark.parametrize("stretch", [0.0, 1e-11], ids=["unitary", "stretched"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    def test_block_checks_are_their_out_of_place_expressions(self, dtype, stretch):
        """Both block checks, in their own buffers, return bit for bit what the
        out-of-place expressions give, for a J of the factors' dtype and for a
        complex J against real factors."""
        rng = np.random.default_rng(14)
        sd = random_schmidt(rng, 48, dtype, stretch=stretch)
        assert schmidt_squeezer_residual(sd) == former_schmidt_squeezer_residual(sd)
        j = (sd.c * sd.values) @ sd.d.conj().T + 1e-9 * rng.standard_normal((48, 48))
        for j_matrix in (j, j + 1e-9j * rng.standard_normal((48, 48))):
            jsa = JointSpectralAmplitude(m=48, j_matrix=j_matrix)
            assert _schmidt_residual(jsa, sd) == former_schmidt_residual(jsa, sd)


def former_schmidt_residual(jsa, sd):
    """||J - C R D^H||_F / max(||J||_F, eps), every difference in a new array."""
    j = jsa.j_matrix
    recon = (sd.c * sd.values) @ sd.d.conj().T
    return float(np.linalg.norm(j - recon) / max(np.linalg.norm(j), np.finfo(float).eps))


def former_schmidt_squeezer_residual(sd):
    """The block residual of ``schmidt_squeezer_residual``, every difference and
    absolute value in a new array."""
    c, d, r = sd.c, sd.d, sd.values
    cosh, sinh = np.cosh(r), np.sinh(r)
    d_bar = d.conj()
    p = (c * cosh) @ c.conj().T
    q = (d_bar * cosh) @ d.T
    x = (c * sinh) @ d_bar.T
    maxima = []
    for left, right in ((p, x), (q, x.T)):
        block = left @ left.conj().T - right @ right.conj().T
        block[np.diag_indices_from(block)] -= 1.0
        maxima.append(np.abs(block).max())
    maxima.append(np.abs(p @ x - x @ q.T).max())
    norm2 = max(np.abs(p).max() ** 2, np.abs(q).max() ** 2, np.abs(x).max() ** 2, 1.0)
    return float(max(maxima) / norm2)


class TestColumnMix:
    """The Gram check is not weaker than the symplectic one: 3e-10 of column 0
    added to column 1 of a real Takagi factor moves max|V^H V - I| by 3e-10,
    which the spectrum rejects, and the squeezer's residual by about 3e-11,
    which passes.  A stretched row does the reverse (``TestSchmidtSqueezerResidual``
    above, ``TestCheckPaths`` in test_pipeline.py), so each check catches a
    defect the other lets through."""

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_passes_symplectic_fails_gram(self, n):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((n, n))
        factors = takagi_real_symmetric(a + a.T)
        r = factors.r * (0.1 / factors.r[0])
        v = factors.v.copy()
        v[:, 1] += 3e-10 * v[:, 0]
        assert squeezer_from_takagi(TakagiFactors(v=v, r=r)).residual <= 1e-10
        with pytest.raises(ValueError, match="modes are not unitary"):
            SqueezingSpectrum(values=r, modes=v)


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
        rng = np.random.default_rng(14)
        for n in (1, 2, 5):
            for _ in range(5):
                s = random_symplectic(rng, n, scale=0.5)
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
        s = SymplecticMatrix(n=3, s0=random_unitary(3, np.random.default_rng(15)), sI=np.zeros((3, 3)))
        bm = bloch_messiah(s)
        assert np.abs(bm.r).max() <= 1e-12

    def test_mode_wise_squeezer_recovers_r(self):
        r = np.array([1.5, 0.7, 0.2])
        s = SymplecticMatrix(n=3, s0=np.diag(np.cosh(r)), sI=np.diag(np.sinh(r)))
        bm = bloch_messiah(s)
        assert np.allclose(bm.r, np.sort(r)[::-1], atol=1e-12, rtol=0)

    def test_reads_the_stored_residual(self, monkeypatch):
        """The residual computed on construction is not recomputed."""
        s = random_symplectic(np.random.default_rng(16), 4, scale=0.5)
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

    def test_full_covariance_layout(self):
        """[[sigma0, sigmaI], [conj(sigmaI), conj(sigma0)]] for a complex, non-diagonal sigmaI."""
        sigma0 = np.array([[1.0, 0.1j], [-0.1j, 1.0]])
        sigmaI = np.array([[0.2 + 0.1j, 0.3 - 0.2j], [0.3 - 0.2j, 0.1j]])
        st = GaussianState(n=2, mean=np.zeros(2), sigma0=sigma0, sigmaI=sigmaI)
        full = st.full_covariance()
        assert np.array_equal(full[:2, :2], sigma0)
        assert np.array_equal(full[:2, 2:], sigmaI)
        assert np.array_equal(full[2:, :2], sigmaI.conj())
        assert np.array_equal(full[2:, 2:], sigma0.conj())

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
        zero = np.zeros((2, 2))
        for entry in (np.nan, np.inf, -np.inf):
            block = np.array([[entry, 0.0], [0.0, 0.5]])
            with pytest.raises(ValueError, match="mean has non-finite"):
                GaussianState(n=2, mean=np.array([entry, 0.0]), sigma0=eye, sigmaI=zero)
            with pytest.raises(ValueError, match="sigma0 has non-finite"):
                GaussianState(n=2, mean=np.zeros(2), sigma0=block, sigmaI=zero)
            with pytest.raises(ValueError, match="sigmaI has non-finite"):
                GaussianState(n=2, mean=np.zeros(2), sigma0=eye, sigmaI=block)


class TestPropagation:
    """Covariance propagation through symplectic transformations."""

    def test_vacuum_through_two_mode_squeezer(self):
        r = 2.0
        st = propagate_state(two_mode_squeezer(r), GaussianState.vacuum(2))
        assert np.abs(st.sigma0 - 0.5 * math.cosh(2 * r) * np.eye(2)).max() <= 1e-12
        assert np.abs(st.sigmaI + 0.5 * math.sinh(2 * r) * SIGMA_X).max() <= 1e-12

    def test_vacuum_covariance_from_bloch_messiah(self):
        """Sigma0 = V cosh(2R) V^H / 2 and SigmaI = V sinh(2R) V^T / 2 out of vacuum."""
        s = random_symplectic(np.random.default_rng(17), 4, scale=0.5)
        bm = bloch_messiah(s)
        st = propagate_state(s, GaussianState.vacuum(4))
        sig0 = 0.5 * (bm.v * np.cosh(2 * bm.r)) @ bm.v.conj().T
        sigI = 0.5 * (bm.v * np.sinh(2 * bm.r)) @ bm.v.T
        assert np.abs(st.sigma0 - sig0).max() <= 1e-8
        assert np.abs(st.sigmaI - sigI).max() <= 1e-8

    def test_mean_propagation(self):
        u = random_unitary(3, np.random.default_rng(18))
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
