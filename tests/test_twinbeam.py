"""Tests for the twin-beam spectrum construction, pairing, and fits."""

import numpy as np
import pytest

from conftest import build_working_point
from twinbeams.takagi import (
    TakagiFactors,
    takagi_general,
    takagi_real_symmetric,
    takagi_residual,
)
from twinbeams.twinbeam import (
    JointSpectralAmplitude,
    SchmidtDecomposition,
    SqueezingSpectrum,
    associated_spectral,
    block_squeezing_matrix,
    eigenmodes_from_schmidt,
    fit_geometric,
    pair_eigenvalues,
    schmidt_from_jsa,
    schmidt_number,
    signal_first,
    spectrum_from_takagi,
)

np.random.seed(42)


def synthetic_spectrum(values):
    values = np.asarray(values, dtype=float)
    return SqueezingSpectrum(values=values, modes=np.eye(len(values), dtype=complex))


class TestContainers:
    """Validation of the JSA, Schmidt, and spectrum dataclasses."""

    def test_jsa_validation(self):
        with pytest.raises(ValueError, match="j_matrix must be m x m"):
            JointSpectralAmplitude(m=4, j_matrix=np.zeros((3, 4)))

    def test_schmidt_validation(self):
        eye = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="c is not unitary"):
            SchmidtDecomposition(c=2 * eye, d=eye, values=np.ones(3))
        with pytest.raises(ValueError, match="nonnegative and descending"):
            SchmidtDecomposition(c=eye, d=eye, values=np.array([1.0, 2.0, 3.0]))
        # NaN fails every comparison, so the check is written to fail on it.
        with pytest.raises(ValueError, match="nonnegative and descending"):
            SchmidtDecomposition(c=eye, d=eye, values=np.array([np.nan, 1.0, 0.5]))

    def test_spectrum_validation(self):
        eye = np.eye(4, dtype=complex)
        vals = np.array([2.0, 2.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="modes must be n x n"):
            SqueezingSpectrum(values=vals, modes=eye[:, :3])
        with pytest.raises(ValueError, match="nonnegative and descending"):
            SqueezingSpectrum(values=vals[::-1], modes=eye)
        for bad in ([np.nan, 2.0, 1.0, 1.0], [2.0, 2.0, 1.0, np.nan]):
            with pytest.raises(ValueError, match="nonnegative and descending"):
                SqueezingSpectrum(values=np.array(bad), modes=eye)
        with pytest.raises(ValueError, match="modes are not unitary"):
            SqueezingSpectrum(values=vals, modes=0.5 * eye)
        with pytest.raises(ValueError, match="unknown source"):
            SqueezingSpectrum(values=vals, modes=eye, source="guesswork")
        with pytest.raises(TypeError, match="pairs"):
            SqueezingSpectrum(values=vals, modes=eye, pairs=((0, 1, 0.0),))

    def test_spectrum_records_duo_gaps(self):
        spec = synthetic_spectrum([1.0, 0.99, 0.5, 0.5])
        assert len(spec.pairs) == 2
        assert np.allclose(spec.pairs[0][2], 0.01, atol=1e-12, rtol=0)
        assert spec.pairs[1][2] == 0.0

    def test_block_matrix_layout(self):
        m = 3
        j = np.arange(9.0).reshape(3, 3) + 1j
        jsa = JointSpectralAmplitude(m=m, j_matrix=j)
        g = block_squeezing_matrix(jsa)
        assert np.array_equal(g[:m, m:], j)
        assert np.array_equal(g[m:, :m], j.T)
        assert np.abs(g[:m, :m]).max() == 0.0
        assert np.abs(g[m:, m:]).max() == 0.0

    def test_signal_first_swaps_bands(self):
        for m in (1, 3):
            g = np.arange(4.0 * m * m).reshape(2 * m, 2 * m) * (1 + 2j)
            s = signal_first(g)
            assert np.array_equal(s[:m, :m], g[m:, m:])
            assert np.array_equal(s[:m, m:], g[m:, :m])
            assert np.array_equal(s[m:, :m], g[:m, m:])
            assert np.array_equal(s[m:, m:], g[:m, :m])
            assert np.array_equal(signal_first(s), g)


class TestSchmidt:
    """SVD of the JSA block."""

    def test_reconstruction(self, nondegenerate):
        jsa = nondegenerate.ext.jsa
        sd = schmidt_from_jsa(jsa)
        recon = (sd.c * sd.values) @ sd.d.conj().T
        assert np.abs(recon - jsa.j_matrix).max() <= 1e-12 * sd.values[0]

    def test_leading_value(self, nondegenerate):
        sd = schmidt_from_jsa(nondegenerate.ext.jsa)
        assert np.allclose(sd.values[0], 0.155931, atol=2e-6, rtol=0)

    def test_phase_convention(self, nondegenerate):
        """The largest entry of every signal Schmidt mode is real positive."""
        sd = schmidt_from_jsa(nondegenerate.ext.jsa)
        for k in range(6):
            pivot = sd.c[np.argmax(np.abs(sd.c[:, k])), k]
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)
            assert pivot.real > 0


class TestThreePaths:
    """JSA-SVD, associated-Hermitian, and direct-Takagi routes agree."""

    def test_spectra_and_reconstructions(self, nondegenerate):
        jsa = nondegenerate.ext.jsa
        target = block_squeezing_matrix(jsa)

        spec_svd = eigenmodes_from_schmidt(schmidt_from_jsa(jsa))
        spec_asc = associated_spectral(target)
        spec_tak = spectrum_from_takagi(takagi_general(target))

        assert spec_svd.source == "jsa_svd"
        assert spec_asc.source == "associated_spectral"
        assert spec_tak.source == "direct_takagi"
        assert np.abs(spec_svd.values - spec_asc.values).max() <= 1e-9
        assert np.abs(spec_svd.values - spec_tak.values).max() <= 1e-9
        for spec in (spec_svd, spec_asc, spec_tak):
            recon = (spec.modes * spec.values) @ spec.modes.T
            assert np.abs(recon - target).max() <= 1e-10

    def test_eigenmodes_match_column_loop(self):
        """The strided assignments reproduce the per-column construction exactly."""
        m = 7
        rng = np.random.default_rng(3)
        c, d = (
            np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
            for _ in range(2)
        )
        sd = SchmidtDecomposition(c=c, d=d, values=np.sort(rng.random(m))[::-1])
        modes = np.empty((2 * m, 2 * m), dtype=complex)
        values = np.empty(2 * m)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        for j in range(m):
            dj_bar = d[:, j].conj()
            modes[:m, 2 * j] = c[:, j] * inv_sqrt2
            modes[m:, 2 * j] = dj_bar * inv_sqrt2
            modes[:m, 2 * j + 1] = 1j * c[:, j] * inv_sqrt2
            modes[m:, 2 * j + 1] = -1j * dj_bar * inv_sqrt2
            values[2 * j] = values[2 * j + 1] = sd.values[j]
        spec = eigenmodes_from_schmidt(sd)
        assert np.array_equal(spec.modes, modes)
        assert np.array_equal(spec.values, values)

    def test_values_come_in_duos(self, nondegenerate):
        spec = eigenmodes_from_schmidt(schmidt_from_jsa(nondegenerate.ext.jsa))
        assert np.array_equal(spec.values[::2], spec.values[1::2])

    def test_duo_partner_structure(self, nondegenerate):
        """On a real matrix one partner of each duo is purely real, the other
        purely imaginary, in either order."""
        spec = associated_spectral(block_squeezing_matrix(nondegenerate.ext.jsa))
        for i0, i1, _ in spec.pairs[:10]:
            duo = spec.modes[:, [i0, i1]]
            real = np.abs(duo.imag).max(axis=0) <= 1e-8
            imag = np.abs(duo.real).max(axis=0) <= 1e-8
            assert (real[0] and imag[1]) or (real[1] and imag[0])

    def test_associated_takes_the_real_takagi_path(self, nondegenerate, near_degenerate):
        """A real matrix is its own associated matrix, so the associated route
        returns the real Takagi factors bit for bit: on a zeroed-leakage block
        and on the full Gamma of both bundled configs (the two fixtures)."""
        targets = [block_squeezing_matrix(nondegenerate.ext.jsa)]
        targets += [signal_first(wp.sq.gamma) for wp in (nondegenerate, near_degenerate)]
        for target in targets:
            assert not np.any(target.imag)
            spec = associated_spectral(target)
            ref = takagi_real_symmetric(target.real)
            assert spec.source == "associated_spectral"
            assert np.array_equal(spec.values, ref.r)
            assert np.array_equal(spec.modes, ref.v)

    def test_associated_keeps_a_tiny_imaginary_part(self):
        """Only an exactly real matrix takes the real Takagi path: an imaginary
        part of 5e-13 max|J| is factored, not dropped (dropping it leaves a
        residual of about 5e-13)."""
        m = 16
        rng = np.random.default_rng(11)
        j = rng.standard_normal((m, m))
        j = j + 5e-13j * np.abs(j).max() * rng.uniform(-1.0, 1.0, (m, m))
        target = block_squeezing_matrix(JointSpectralAmplitude(m=m, j_matrix=j))
        spec = associated_spectral(target)
        assert takagi_residual(target, TakagiFactors(v=spec.modes, r=spec.values)) <= 1e-14

    def test_full_matrix_with_leakage(self, nondegenerate):
        """The associated route also handles the full matrix, leakage included."""
        wp = nondegenerate
        gamma = signal_first(wp.sq.gamma)
        spec = associated_spectral(gamma)
        assert np.allclose(spec.values[0], 0.155931, atol=2e-6, rtol=0)
        recon = (spec.modes * spec.values) @ spec.modes.T
        assert np.abs(recon - gamma).max() <= 1e-10

    @pytest.mark.parametrize("m", [64, 128])
    @pytest.mark.parametrize("theta0_deg", [28.81, 29.18], ids=["nondegenerate", "near-degenerate"])
    def test_associated_on_complex_block(self, theta0_deg, m):
        """A z0 off the crystal center makes the block complex; the associated
        route still returns unitary modes that reproduce the JSA spectrum."""
        jsa = build_working_point(theta0_deg=theta0_deg, m=m, z0_fraction=0.25).ext.jsa
        target = block_squeezing_matrix(jsa)
        assert np.any(target.imag)
        spec = associated_spectral(target)
        ref = eigenmodes_from_schmidt(schmidt_from_jsa(jsa))
        assert takagi_residual(target, TakagiFactors(v=spec.modes, r=spec.values)) <= 1e-10
        assert np.abs(spec.modes.conj().T @ spec.modes - np.eye(2 * m)).max() <= 1e-12
        assert np.abs(spec.values - ref.values).max() <= 1e-12 * ref.values[0]
        assert max(gap for _, _, gap in spec.pairs[:10]) <= 1e-12

    def test_associated_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even dimension"):
            associated_spectral(np.zeros((3, 3)))

    def test_associated_rejects_complex_diagonal_blocks(self):
        g = 1j * np.eye(4)
        with pytest.raises(ValueError, match="associated-matrix reshuffle"):
            associated_spectral(g)


class TestPairing:
    """Greedy degeneracy pairing of the descending spectrum."""

    def test_all_paired_at_working_point(self, nondegenerate):
        spec = eigenmodes_from_schmidt(schmidt_from_jsa(nondegenerate.ext.jsa))
        report = pair_eigenvalues(spec, rel_tol=1e-2)
        assert report.all_paired
        assert report.n_pairs == nondegenerate.grid.m
        assert report.first_failure_index is None
        assert max(rec.gap for rec in report.accepted) == 0.0

    def test_stops_at_first_bad_gap(self):
        spec = synthetic_spectrum([1.0, 0.995, 0.5, 0.4, 0.2, 0.2])
        report = pair_eigenvalues(spec, rel_tol=1e-2)
        assert report.n_pairs == 1
        assert report.first_failure_index == 3
        assert not report.all_paired
        rec = report.accepted[0]
        assert (rec.pair_id, rec.i0, rec.i1) == (1, 0, 1)
        assert np.allclose(rec.gap, 0.005, atol=1e-12, rtol=0)

    def test_odd_leftover_is_a_failure(self):
        spec = SqueezingSpectrum(
            values=np.array([1.0, 1.0, 0.5]),
            modes=np.eye(3, dtype=complex),
        )
        report = pair_eigenvalues(spec)
        assert report.n_pairs == 1
        assert report.first_failure_index == 3

    def test_tolerance_is_respected(self):
        spec = synthetic_spectrum([1.0, 0.95, 0.5, 0.5])
        assert pair_eigenvalues(spec, rel_tol=1e-2).n_pairs == 0
        assert pair_eigenvalues(spec, rel_tol=0.1).n_pairs == 2


class TestSchmidtNumber:
    """Effective mode count."""

    def test_simple_values(self):
        assert schmidt_number([1.0]) == 1.0
        assert np.allclose(schmidt_number([3.0, 1.0]), 1.6, atol=1e-14, rtol=0)

    def test_geometric_closed_form(self):
        """Duplicated geometric duos give K = 2 (1 + q) / (1 - q)."""
        q = 0.5
        values = np.repeat(q ** np.arange(200), 2)
        assert np.allclose(
            schmidt_number(values), 2.0 * (1.0 + q) / (1.0 - q), atol=1e-10, rtol=0
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            schmidt_number([1.0, -0.5])
        with pytest.raises(ValueError, match="all-zero values"):
            schmidt_number([0.0, 0.0])


class TestGeometricFit:
    """Log-linear fit of the duo-mean decay."""

    def test_exact_recovery(self):
        r1, q = 0.2, 0.87
        values = np.repeat(r1 * q ** np.arange(20), 2)
        fit = fit_geometric(values)
        assert np.allclose(fit.r1, r1, atol=1e-12, rtol=0)
        assert np.allclose(fit.q, q, atol=1e-12, rtol=0)
        assert fit.rms_residual <= 1e-12

    def test_noise_floor_is_dropped(self):
        """Pairs below 1e-6 of the leading one do not poison the fit."""
        r1, q = 1.0, 0.5
        clean = r1 * q ** np.arange(25)
        noisy = np.maximum(clean, 3e-8)
        fit = fit_geometric(np.repeat(noisy, 2))
        assert np.allclose(fit.q, q, atol=1e-6, rtol=0)

    def test_max_pairs_caps_the_window(self):
        values = np.repeat(0.9 ** np.arange(30), 2)
        values[20:] *= 1.5  # corrupt the tail
        fit = fit_geometric(values, max_pairs=10)
        assert np.allclose(fit.q, 0.9, atol=1e-12, rtol=0)

    def test_fit_at_working_point(self, nondegenerate):
        spec = eigenmodes_from_schmidt(schmidt_from_jsa(nondegenerate.ext.jsa))
        fit = fit_geometric(spec.values, max_pairs=15)
        assert np.allclose(fit.q, 0.887275, atol=2e-3, rtol=0)
        assert fit.rms_residual < 1e-2

    def test_too_few_pairs_raises(self):
        with pytest.raises(ValueError, match="at least 3 pairs"):
            fit_geometric([1.0, 1.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="leading pair must be positive"):
            fit_geometric([0.0, 0.0, 0.0, 0.0])


class TestRotatePair:
    """Orthogonal mixing inside a degenerate duo."""

    def test_reconstruction_invariant(self, nondegenerate):
        """The modes of a degenerate duo are fixed only up to a rotation:
        rotating the first duo leaves the values and V R V^T unchanged."""
        jsa = nondegenerate.ext.jsa
        target = block_squeezing_matrix(jsa)
        spec = eigenmodes_from_schmidt(schmidt_from_jsa(jsa))
        i0, i1, _ = spec.pairs[0]
        c, s = np.cos(0.7), np.sin(0.7)
        modes = spec.modes.copy()
        modes[:, i0] = c * spec.modes[:, i0] + s * spec.modes[:, i1]
        modes[:, i1] = -s * spec.modes[:, i0] + c * spec.modes[:, i1]
        rotated = SqueezingSpectrum(values=spec.values.copy(), modes=modes, source=spec.source)
        assert np.array_equal(rotated.values, spec.values)
        recon = (rotated.modes * rotated.values) @ rotated.modes.T
        assert np.abs(recon - target).max() <= 1e-10
