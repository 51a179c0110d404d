"""Tests for the dispersion model and squeezing-matrix assembly."""

import math

import numpy as np
import pytest

import twinbeams.pdc as pdc
from twinbeams.mehler import characteristic_times
from twinbeams.pdc import (
    BBO_SELLMEIER_EXTRAORDINARY,
    BBO_SELLMEIER_ORDINARY,
    CrystalConfig,
    FrequencyGrid,
    PumpConfig,
    SellmeierSet,
    bbo_crystal,
    build_frequency_grid,
    build_squeezing_matrix,
    extract_jsa,
    find_central_detuning,
    phase_mismatch,
    pump_bandwidth,
    pump_spectrum,
    refractive_index,
    wave_vector,
    wave_vector_derivatives,
)
from twinbeams.units import C_UM_PER_FS

np.random.seed(42)

CRYSTAL = bbo_crystal(2.0, 28.81)
PUMP = PumpConfig(lambda_p_nm=397.5, tau_p_fs=129.0, gain=10.0)


class TestSellmeier:
    """Sellmeier dispersion data and the uniaxial index."""

    def test_golden_ordinary_index(self):
        """n_o at the HeNe line, the standard tabulated check value."""
        n = refractive_index(CRYSTAL, 0.6328, "ordinary")
        assert np.allclose(n, 1.668051, atol=5e-7, rtol=0)

    def test_extraordinary_limits(self):
        """Angle-dependent index reduces to n_o at 0 deg and n_e at 90 deg."""
        n0 = refractive_index(CRYSTAL, 0.6328, "extraordinary", theta_deg=0.0)
        n90 = refractive_index(CRYSTAL, 0.6328, "extraordinary", theta_deg=90.0)
        no = math.sqrt(BBO_SELLMEIER_ORDINARY.n_squared(0.6328))
        ne = math.sqrt(BBO_SELLMEIER_EXTRAORDINARY.n_squared(0.6328))
        assert np.allclose(n0, no, atol=1e-14, rtol=0)
        assert np.allclose(n90, ne, atol=1e-14, rtol=0)

    def test_extraordinary_between_principal_indices(self):
        n = refractive_index(CRYSTAL, 0.6328, "extraordinary")
        ne = math.sqrt(BBO_SELLMEIER_EXTRAORDINARY.n_squared(0.6328))
        no = math.sqrt(BBO_SELLMEIER_ORDINARY.n_squared(0.6328))
        assert ne < n < no

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="outside Sellmeier validity"):
            refractive_index(CRYSTAL, 0.18, "ordinary")
        with pytest.raises(ValueError, match="outside Sellmeier validity"):
            refractive_index(CRYSTAL, 1.6, "extraordinary")

    def test_derivatives_check_the_same_range(self):
        """The pump (extraordinary) is checked against both Sellmeier sets."""
        with pytest.raises(ValueError, match="outside Sellmeier validity"):
            wave_vector_derivatives(-1.2, "downconverted", CRYSTAL, PUMP)
        narrow_e = SellmeierSet(a=2.3730, b=0.0128, c=0.0156, d=0.0044, lambda_min_um=0.5)
        crystal = CrystalConfig(length_mm=2.0, theta0_deg=28.81, sellmeier_e=narrow_e)
        wave_vector_derivatives(0.0, "downconverted", crystal, PUMP)
        for fn in (wave_vector, wave_vector_derivatives):
            with pytest.raises(ValueError, match="outside Sellmeier validity"):
                fn(0.0, "pump", crystal, PUMP)

    def test_unknown_polarization_raises(self):
        with pytest.raises(ValueError, match="unknown polarization"):
            refractive_index(CRYSTAL, 0.6328, "diagonal")

    def test_n_squared_derivatives_match_finite_differences(self):
        """Closed-form f', f'' of f = n^2 against central differences."""
        h = 1e-5
        for s in (BBO_SELLMEIER_ORDINARY, BBO_SELLMEIER_EXTRAORDINARY):
            for lam in (0.3975, 0.6328, 0.795, 1.2):
                f, fp, fpp = s.n_squared_derivatives(lam)
                assert np.allclose(f, s.n_squared(lam), atol=1e-14, rtol=0)
                fd1 = (s.n_squared(lam + h) - s.n_squared(lam - h)) / (2 * h)
                fd2 = (
                    s.n_squared(lam + h) - 2 * s.n_squared(lam) + s.n_squared(lam - h)
                ) / h**2
                assert abs(fp - fd1) < 1e-6 * max(1.0, abs(fp))
                assert abs(fpp - fd2) < 1e-3 * max(1.0, abs(fpp))

    def test_custom_validity_window(self):
        s = SellmeierSet(a=2.0, b=0.01, c=0.01, d=0.01, lambda_min_um=0.5, lambda_max_um=0.7)
        s.check_range(0.6)
        with pytest.raises(ValueError, match="outside Sellmeier validity"):
            s.check_range(0.4)


class TestConfigs:
    """Validation of the crystal and pump dataclasses."""

    def test_crystal_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length_mm must be positive"):
            CrystalConfig(length_mm=0.0, theta0_deg=28.81)

    def test_crystal_rejects_bad_angle(self):
        with pytest.raises(ValueError, match="strictly between 0 and 90"):
            CrystalConfig(length_mm=2.0, theta0_deg=120.0)
        with pytest.raises(ValueError, match="strictly between 0 and 90"):
            CrystalConfig(length_mm=2.0, theta0_deg=0.0)

    def test_pump_rejects_bad_values(self):
        with pytest.raises(ValueError, match="tau_p_fs must be positive"):
            PumpConfig(lambda_p_nm=397.5, tau_p_fs=0.0)
        with pytest.raises(ValueError, match="gain must be nonnegative"):
            PumpConfig(lambda_p_nm=397.5, tau_p_fs=129.0, gain=-1.0)
        with pytest.raises(ValueError, match="z0_fraction must lie in"):
            PumpConfig(lambda_p_nm=397.5, tau_p_fs=129.0, z0_fraction=1.5)

    def test_non_finite_values_raise(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="length_mm must be positive and finite"):
            CrystalConfig(length_mm=inf, theta0_deg=28.81)
        for kwargs, name in [
            ({"lambda_p_nm": nan}, "lambda_p_nm"),
            ({"tau_p_fs": inf}, "tau_p_fs"),
            ({"gain": nan}, "gain"),
            ({"gain": inf}, "gain"),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be .* finite"):
                PumpConfig(**{"lambda_p_nm": 397.5, "tau_p_fs": 129.0, **kwargs})
        with pytest.raises(ValueError, match="c must be finite, got nan"):
            SellmeierSet(a=2.0, b=0.01, c=nan, d=0.01)
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            build_frequency_grid(8, half_width=nan)

    def test_pump_central_frequencies(self):
        assert np.allclose(PUMP.omega_p0, 4.738746, atol=1e-6, rtol=0)
        assert PUMP.omega_0 == 0.5 * PUMP.omega_p0

    def test_pump_bandwidth(self):
        """Omega_p = 2 sqrt(ln 2) / tau_p for the intensity-FWHM convention."""
        assert np.allclose(pump_bandwidth(PUMP), 0.012908, atol=1e-6, rtol=0)
        unit = PumpConfig(lambda_p_nm=397.5, tau_p_fs=2.0 * math.sqrt(math.log(2.0)))
        assert np.allclose(pump_bandwidth(unit), 1.0, atol=1e-14, rtol=0)


class TestWaveVectors:
    """Wave vectors, their frequency derivatives, and the phase mismatch."""

    def test_group_parameters_at_band_centers(self):
        """k', k'' of pump and downconverted light at zero detuning."""
        kp0, kp1, kp2 = wave_vector_derivatives(0.0, "pump", CRYSTAL, PUMP)
        k0, k1, k2 = wave_vector_derivatives(0.0, "downconverted", CRYSTAL, PUMP)
        assert np.allclose(kp1, 5818.9, atol=0.2, rtol=0)
        assert np.allclose(k1, 5623.8, atol=0.2, rtol=0)
        assert np.allclose(kp1 - k1, 195.08, atol=0.02, rtol=0)
        assert np.allclose(kp2, 195.45, atol=0.02, rtol=0)
        assert np.allclose(k2, 72.62, atol=0.02, rtol=0)

    def test_collinear_mismatch_at_center(self):
        """Delta_0 = k_p0 - 2 k_0 at both working angles."""
        delta0 = phase_mismatch(0.0, 0.0, CRYSTAL, PUMP)
        assert np.allclose(delta0, 12.3094, atol=2e-3, rtol=0)
        near = bbo_crystal(2.0, 29.18)
        assert np.allclose(phase_mismatch(0.0, 0.0, near, PUMP), 0.8595, atol=2e-3, rtol=0)

    def test_derivatives_match_finite_differences(self):
        """Closed-form k', k'' against central differences of k."""
        h = 1e-3
        for branch in ("pump", "downconverted"):
            for det in (0.0, 0.2, -0.15):
                k, k1, k2 = wave_vector_derivatives(det, branch, CRYSTAL, PUMP)
                assert np.allclose(k, wave_vector(det, branch, CRYSTAL, PUMP), atol=1e-9, rtol=0)
                fd1 = (
                    wave_vector(det + h, branch, CRYSTAL, PUMP)
                    - wave_vector(det - h, branch, CRYSTAL, PUMP)
                ) / (2 * h)
                fd2 = (
                    wave_vector(det + h, branch, CRYSTAL, PUMP)
                    - 2 * k
                    + wave_vector(det - h, branch, CRYSTAL, PUMP)
                ) / h**2
                assert abs(k1 - fd1) < 1e-4 * abs(k1)
                assert abs(k2 - fd2) < 1e-3 * abs(k2)

    def test_mismatch_is_symmetric(self):
        om = np.linspace(-0.3, 0.3, 7)
        d = phase_mismatch(om[:, None], om[None, :], CRYSTAL, PUMP)
        assert np.allclose(d, d.T, atol=1e-10, rtol=0)

    def test_unknown_branch_raises(self):
        with pytest.raises(ValueError, match="unknown branch"):
            wave_vector(0.0, "ancilla", CRYSTAL, PUMP)


class TestCentralDetuning:
    """Location of the phase-matched signal band."""

    def test_closed_form(self):
        """sqrt(Delta_0 / k''_0) from the quadratic dispersion model."""
        w = characteristic_times(CRYSTAL, PUMP).omega_s
        assert np.allclose(w, 0.411715, atol=5e-6, rtol=0)

    def test_full_dispersion_root(self):
        """Root of the full Delta(Omega, -Omega); higher orders shift it slightly
        from the closed form."""
        w = find_central_detuning(CRYSTAL, PUMP)
        assert np.allclose(w, 0.412135, atol=5e-6, rtol=0)
        assert np.allclose(phase_mismatch(w, -w, CRYSTAL, PUMP), 0.0, atol=1e-9, rtol=0)
        closed = characteristic_times(CRYSTAL, PUMP).omega_s
        assert np.allclose(w - closed, 4.20e-4, atol=1e-5, rtol=0)

    def test_zero_mismatch_at_degeneracy_is_exactly_zero(self, monkeypatch):
        """Delta_0 = 0 is the first sample of the scan: the root is exactly 0,
        found without the band-center derivatives."""
        calls = []
        original = pdc.wave_vector_derivatives

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pdc, "wave_vector_derivatives", counting)
        monkeypatch.setattr(pdc, "phase_mismatch", lambda oj, ol, crystal, pump: 0.5 * oj)
        assert find_central_detuning(CRYSTAL, PUMP) == 0.0
        assert calls == []

    def test_no_root_past_degeneracy_raises(self):
        """Past the degenerate angle Delta(Omega, -Omega) has no zero in band."""
        with pytest.raises(ValueError, match="no phase-matched solution in band"):
            find_central_detuning(bbo_crystal(2.0, 29.4), PUMP)

    def test_near_degenerate_angle(self):
        near = bbo_crystal(2.0, 29.18)
        w = characteristic_times(near, PUMP).omega_s
        assert np.allclose(w, 0.108796, atol=5e-5, rtol=0)

    def test_closed_form_raises_past_degeneracy(self):
        """Beyond the degenerate angle Delta_0 flips sign and the formula fails."""
        past = bbo_crystal(2.0, 29.4)
        with pytest.raises(ValueError, match="degenerate regime"):
            characteristic_times(past, PUMP)

    def test_band_wavelengths(self):
        """Signal/idler vacuum wavelengths and photon energy conservation."""
        w = characteristic_times(CRYSTAL, PUMP).omega_s
        lam_s = 2.0 * math.pi * C_UM_PER_FS / (PUMP.omega_0 + w) * 1e3
        lam_i = 2.0 * math.pi * C_UM_PER_FS / (PUMP.omega_0 - w) * 1e3
        assert np.allclose(lam_s, 677.3, atol=0.2, rtol=0)
        assert np.allclose(lam_i, 962.2, atol=0.2, rtol=0)
        assert np.allclose(1.0 / lam_s + 1.0 / lam_i, 1.0 / 397.5, atol=1e-15, rtol=0)


class TestFrequencyGrid:
    """Detuning grid construction and validation."""

    def test_half_integer_offsets(self):
        """Omega_l = (l - m - 1/2) spacing: zero is straddled, never sampled."""
        grid = build_frequency_grid(4, half_width=2.0)
        assert grid.spacing == 0.5
        assert np.allclose(
            grid.detunings,
            [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75],
            atol=1e-15,
            rtol=0,
        )
        for m in (1, 7, 128, 256):
            grid = build_frequency_grid(m, 0.55)
            expected = (np.arange(1, 2 * m + 1, dtype=float) - m - 0.5) * (0.55 / m)
            assert np.array_equal(grid.detunings, expected)
            assert np.array_equal(grid.detunings, -grid.detunings[::-1])

    def test_halves_and_window(self):
        grid = build_frequency_grid(4, half_width=2.0)
        assert np.all(grid.idler < 0) and np.all(grid.signal > 0)
        assert np.allclose(grid.idler, -grid.signal[::-1], atol=1e-15, rtol=0)
        assert np.allclose(grid.window_T, 2.0 * math.pi / 0.5, atol=1e-12, rtol=0)

    def test_window_and_half_width_interchangeable(self):
        """A window T maps to half_width = 2 pi m / T, and back through window_T."""
        a = build_frequency_grid(8, half_width=1.0)
        b = build_frequency_grid(8, half_width=2.0 * math.pi * 8 / a.window_T)
        assert np.allclose(b.window_T, a.window_T, atol=1e-12, rtol=0)
        assert np.allclose(a.detunings, b.detunings, atol=1e-12, rtol=0)

    def test_equality_is_by_m_and_spacing(self):
        assert build_frequency_grid(8, 0.5) == build_frequency_grid(8, 0.5)
        assert FrequencyGrid(m=8, spacing=0.0625) == build_frequency_grid(8, 0.5)
        assert build_frequency_grid(8, 0.5) != build_frequency_grid(9, 0.5)
        assert build_frequency_grid(8, 0.5) != build_frequency_grid(8, 0.6)
        assert FrequencyGrid(m=8, spacing=0.0625) != FrequencyGrid(m=16, spacing=0.0625)

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            build_frequency_grid(0, half_width=1.0)
        for bad in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="half_width must be positive"):
                build_frequency_grid(8, half_width=bad)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            FrequencyGrid(m=0, spacing=0.5)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="spacing must be positive and finite"):
                FrequencyGrid(m=2, spacing=bad)


class TestPumpSpectrum:
    """Pump spectral amplitude and its chirp convention."""

    def test_peak_and_bandwidth_values(self):
        assert np.allclose(pump_spectrum(0.0, PUMP, CRYSTAL), 1.0, atol=1e-15, rtol=0)
        e = pump_spectrum(pump_bandwidth(PUMP), PUMP, CRYSTAL)
        assert np.allclose(e, math.exp(-0.5), atol=1e-12, rtol=0)

    def test_prechirped_amplitude_is_real(self):
        osum = np.linspace(-0.1, 0.1, 21)
        e = pump_spectrum(osum, PUMP, CRYSTAL)
        assert np.abs(e.imag).max() == 0.0

    def test_chirped_amplitude_keeps_dispersion_phase(self):
        """Without prechirp the z0 dispersion phase survives; magnitude is unchanged."""
        chirped = PumpConfig(
            lambda_p_nm=397.5, tau_p_fs=129.0, gain=10.0, prechirp_compensated=False
        )
        osum = np.linspace(-0.1, 0.1, 21)
        e = pump_spectrum(osum, chirped, CRYSTAL)
        ref = pump_spectrum(osum, PUMP, CRYSTAL)
        assert np.allclose(np.abs(e), np.abs(ref), atol=1e-12, rtol=0)
        assert np.abs(e.imag).max() > 0.0
        assert np.allclose(pump_spectrum(0.0, chirped, CRYSTAL), 1.0, atol=1e-15, rtol=0)


class TestSqueezingMatrix:
    """Assembly of the discrete squeezing matrix."""

    def test_symmetric(self, nondegenerate):
        g = nondegenerate.sq.gamma
        assert np.abs(g - g.T).max() == 0.0

    def test_transform_limited_matrix_is_real(self, nondegenerate):
        """Prechirped pump with z0 = L/2: the unit-phase rotation makes Gamma exactly real."""
        g = nondegenerate.sq.gamma
        assert not np.any(g.imag)
        assert not np.any(np.signbit(g.imag))

    @pytest.mark.parametrize(
        "pump_kw", [{"z0_fraction": 0.25}, {"prechirp_compensated": False}]
    )
    def test_complex_matrix_matches_angle_rotation(self, pump_kw):
        """A complex Gamma moves only at the rounding level against the rotation
        by exp(-i angle(peak)) used before the exact unit phase."""
        grid = build_frequency_grid(32, half_width=0.55)
        pump = PumpConfig(397.5, 129.0, gain=10.0, **pump_kw)
        gamma = build_squeezing_matrix(CRYSTAL, pump, grid).gamma

        om = grid.detunings
        delta = phase_mismatch(om[:, None], om[None, :], CRYSTAL, pump)
        length = CRYSTAL.length_mm
        raw = (
            pump.gain
            * pump_spectrum(om[:, None] + om[None, :], pump, CRYSTAL)
            * np.exp(1j * delta * (0.5 * length - pump.z0_fraction * length))
            * np.sinc(0.5 * delta * length / math.pi)
            * grid.spacing
        )
        raw = -1j * raw
        peak = raw.flat[np.argmax(np.abs(raw))]
        old = raw * np.exp(-1j * np.angle(peak))
        old = 0.5 * (old + old.T)

        assert np.abs(gamma.imag).max() > 1e-3 * np.abs(gamma).max()
        assert np.abs(gamma - old).max() <= 1e-15 * np.abs(old).max()

    def test_gain_scales_linearly(self):
        grid = build_frequency_grid(16, half_width=0.55)
        g1 = build_squeezing_matrix(CRYSTAL, PumpConfig(397.5, 129.0, gain=1.0), grid)
        g2 = build_squeezing_matrix(CRYSTAL, PumpConfig(397.5, 129.0, gain=2.0), grid)
        assert np.allclose(g2.gamma, 2.0 * g1.gamma, atol=1e-15, rtol=0)

    def test_zero_gain_gives_zero_matrix(self):
        grid = build_frequency_grid(16, half_width=0.55)
        sq = build_squeezing_matrix(CRYSTAL, PumpConfig(397.5, 129.0, gain=0.0), grid)
        assert np.abs(sq.gamma).max() == 0.0

    def test_validation_rejects_asymmetric(self):
        grid = build_frequency_grid(2, half_width=1.0)
        bad = np.arange(16.0).reshape(4, 4)
        with pytest.raises(ValueError, match="symmetric"):
            from twinbeams.pdc import SqueezingMatrixPhysical

            SqueezingMatrixPhysical(grid=grid, gamma=bad)


class TestJsaExtraction:
    """Signal x idler block extraction and the leakage diagnostic."""

    def test_block_and_grids(self, nondegenerate):
        wp = nondegenerate
        m = wp.grid.m
        assert np.allclose(wp.ext.jsa.j_matrix, wp.sq.gamma[m:, :m], atol=0, rtol=0)

    def test_leakage_small_when_bands_separate(self, nondegenerate):
        assert np.allclose(nondegenerate.ext.leakage, 2.851e-4, atol=2e-6, rtol=0)
        assert nondegenerate.ext.leakage < 1e-3

    def test_leakage_flagged_near_degeneracy(self, near_degenerate):
        assert np.allclose(near_degenerate.ext.leakage, 1.049e-2, atol=2e-4, rtol=0)
        assert near_degenerate.ext.leakage > 1e-3

    def test_zero_matrix_has_zero_leakage(self):
        from twinbeams.pdc import SqueezingMatrixPhysical

        grid = build_frequency_grid(4, half_width=1.0)
        ext = extract_jsa(SqueezingMatrixPhysical(grid=grid, gamma=np.zeros((8, 8))))
        assert ext.leakage == 0.0
