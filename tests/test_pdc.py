"""Tests for the dispersion model and squeezing-matrix assembly."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import grid_sums
import twinbeams.pdc as pdc
import twinbeams.takagi as takagi
from twinbeams.mehler import characteristic_times
from twinbeams.pdc import (
    BBO_SELLMEIER_EXTRAORDINARY,
    BBO_SELLMEIER_ORDINARY,
    C_UM_PER_FS,
    CrystalConfig,
    FrequencyGrid,
    PumpConfig,
    SellmeierSet,
    SqueezingMatrixPhysical,
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
        """Angle-dependent index reduces to n_o at 0 deg and n_e at 90 deg.

        A crystal angle lies strictly inside (0, 90) deg; 1e-7 deg from
        either end moves n by about 1e-18.
        """
        n0 = refractive_index(bbo_crystal(2.0, 1e-7), 0.6328, "extraordinary")
        n90 = refractive_index(bbo_crystal(2.0, 90.0 - 1e-7), 0.6328, "extraordinary")
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

    @pytest.mark.parametrize("polarization", ["ordinary", "extraordinary"])
    @pytest.mark.parametrize(
        "lambda_um", [math.nan, np.array([0.6, math.nan, 0.8])], ids=["scalar", "array"]
    )
    def test_nan_wavelength_raises(self, lambda_um, polarization):
        """NaN lies in no validity range: it raises instead of giving a NaN index."""
        with pytest.raises(ValueError, match="outside Sellmeier validity"):
            refractive_index(CRYSTAL, lambda_um, polarization)

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
        assert np.array_equal(d, d.T)

    def test_unknown_branch_raises(self):
        with pytest.raises(ValueError, match="unknown branch"):
            wave_vector(0.0, "ancilla", CRYSTAL, PUMP)

    @pytest.mark.parametrize("theta0", [28.56, 28.81, 29.18])
    def test_one_dispersion_model(self, theta0):
        """k of ``wave_vector`` (Gamma's build) and of ``wave_vector_derivatives``
        (the analytic model) are one value, bit for bit, on both branches, and
        so are ``refractive_index`` and the n behind the derivatives."""
        crystal = bbo_crystal(2.0, theta0)
        det = np.linspace(-0.8, 0.8, 2001)
        for branch in ("pump", "downconverted"):
            k = [wave_vector_derivatives(d, branch, crystal, PUMP)[0] for d in det]
            assert np.array_equal(wave_vector(det, branch, crystal, PUMP), k)
        lam = np.linspace(0.2, 1.4, 20001)
        for polarization in ("ordinary", "extraordinary"):
            n = pdc._index(crystal, lam, polarization)[0]
            assert np.array_equal(refractive_index(crystal, lam, polarization), n)


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

    @pytest.mark.parametrize("theta0", [28.5, 28.81, 29.0, 29.18, 29.2])
    def test_root_is_a_sign_change_between_adjacent_doubles(self, theta0):
        """The bisection ends on a sign change of the computed Delta(Omega, -Omega)
        between adjacent doubles, within 1e-12 rad/fs of scipy's brentq."""
        from scipy.optimize import brentq

        crystal = bbo_crystal(2.0, theta0)
        fun = lambda w: float(phase_mismatch(w, -w, crystal, PUMP))
        w = find_central_detuning(crystal, PUMP)
        below, above = np.nextafter(w, 0.0), np.nextafter(w, 1.0)
        assert fun(w) == 0.0 or np.sign(fun(w)) in (-np.sign(fun(below)), -np.sign(fun(above)))
        reference = brentq(fun, 0.5 * w, 2.0 * w, xtol=1e-14)
        assert abs(w - reference) <= 1e-12

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

    @pytest.mark.parametrize("bad", [2.5, 8.0, True, np.float64(3.0), "8"])
    def test_non_integer_m_raises(self, bad):
        """m = 2.5 gave a 5-point grid whose ``idler`` and ``signal`` raised
        TypeError, and build_frequency_grid("8", 1.0) a bare TypeError from m < 1."""
        for build in (lambda: FrequencyGrid(m=bad, spacing=0.5), lambda: build_frequency_grid(bad, 1.0)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"m must be an integer, got {bad!r}"

    def test_numpy_integer_m_is_an_integer(self):
        """A numpy integer m passes the integer check (numbers.Integral admits it)."""
        grid = build_frequency_grid(np.int64(8), 0.5)
        assert grid == build_frequency_grid(8, 0.5)
        assert grid.idler.size == grid.signal.size == 8


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

    @pytest.mark.parametrize("prechirp", [True, False], ids=["compensated", "chirped"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sum_detuning_raises(self, bad, prechirp):
        """The compensated branch returned nan for NaN and 0.0 for +-inf."""
        pump = PumpConfig(397.5, 129.0, prechirp_compensated=prechirp)
        for osum in (bad, np.array([0.0, bad, 0.01])):
            with pytest.raises(ValueError) as info:
                pump_spectrum(osum, pump, CRYSTAL)
            assert str(info.value) == "sum detuning has non-finite (NaN or inf) entries"


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

        osum = grid_sums(grid)
        k = wave_vector(grid.detunings, "downconverted", CRYSTAL, pump)
        delta = wave_vector(osum, "pump", CRYSTAL, pump) - (k[:, None] + k[None, :])
        length = CRYSTAL.length_mm
        raw = (
            pump.gain
            * pump_spectrum(osum, pump, CRYSTAL)
            * np.exp(1j * delta * (0.5 * length - pump.z0_fraction * length))
            * np.sinc(0.5 * delta * length / math.pi)
            * grid.spacing
        )
        raw = -1j * raw
        peak = raw.flat[np.argmax(np.abs(raw))]
        old = raw * np.exp(-1j * np.angle(peak))

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
            SqueezingMatrixPhysical(grid=grid, gamma=bad)

    def test_validation_accepts_a_signed_zero_mirror_pair(self):
        """+0 and -0 are not the same bits, but equal within the tolerance."""
        gamma = np.eye(4)
        gamma[0, 3], gamma[3, 0] = 0.0, -0.0
        sq = SqueezingMatrixPhysical(grid=build_frequency_grid(2, half_width=1.0), gamma=gamma)
        assert np.signbit(sq.gamma[3, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_validation_rejects_non_finite(self, bad):
        grid = build_frequency_grid(2, half_width=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            SqueezingMatrixPhysical(grid=grid, gamma=np.full((4, 4), bad))


def whole_matrix_gamma(crystal, pump, grid):
    """Gamma as one expression over the whole (2m)^2 grid, step by step in the
    order the block build must keep for every element.  The sum detunings are
    the grid's exact sums, and the pump sums are evaluated before the band."""
    om = grid.detunings
    osum = grid_sums(grid)
    kp = wave_vector(osum, "pump", crystal, pump)
    k = wave_vector(om, "downconverted", crystal, pump)
    delta = kp - (k[:, None] + k[None, :])
    length = crystal.length_mm
    offset = 0.5 * length - pump.z0_fraction * length
    gamma = pump.gain * pump_spectrum(osum, pump, crystal)
    if offset != 0.0:
        gamma = gamma * np.exp(1j * delta * offset)
    gamma = gamma * np.sinc(0.5 * delta * length / math.pi) * grid.spacing
    peak = gamma.flat[np.argmax(np.abs(gamma))]
    if peak != 0.0:
        gamma = gamma * (peak * (1.0 / abs(peak))).conjugate()
    gamma += 0.0
    return gamma


#: The cut angles of the two bundled configs.
BUNDLED_CRYSTALS = {"nondegenerate": bbo_crystal(2.0, 28.81), "near-degenerate": bbo_crystal(2.0, 29.18)}
#: A float64 Gamma and three ways to a complex one.
GAMMA_PUMPS = {
    "real": {},
    "z0-quarter": {"z0_fraction": 0.25},
    "chirped-z0-zero": {"z0_fraction": 0.0, "prechirp_compensated": False},
    "chirped-z0-half": {"prechirp_compensated": False},
}
#: The default mirror blocks (one block below 2m = 65), blocks that leave a
#: partial block at every 2m here, and one cell per block (not at m = 256,
#: where its 131 328 blocks take seconds per build).
MIRROR_BLOCKS = {"default-blocks": takagi._MIRROR_BLOCK, "blocks-7": 7, "blocks-1": 1}
BUILD_SIZES = [
    pytest.param(m, block, id=f"{m}-{name}")
    for m in (1, 37, 64, 100, 256)
    for name, block in MIRROR_BLOCKS.items()
    if block > 1 or m < 256
]


class TestTiledBuild:
    """The mirror-block build against the whole-matrix expression."""

    @pytest.mark.parametrize("pump_kw", GAMMA_PUMPS.values(), ids=GAMMA_PUMPS.keys())
    @pytest.mark.parametrize("crystal", BUNDLED_CRYSTALS.values(), ids=BUNDLED_CRYSTALS.keys())
    @pytest.mark.parametrize("m, block", BUILD_SIZES)
    def test_bit_identical_to_whole_matrix(self, monkeypatch, m, crystal, pump_kw, block):
        monkeypatch.setattr(takagi, "_MIRROR_BLOCK", block)
        grid = build_frequency_grid(m, half_width=0.55)
        pump = PumpConfig(397.5, 129.0, gain=10.0, **pump_kw)
        got = build_squeezing_matrix(crystal, pump, grid).gamma
        want = whole_matrix_gamma(crystal, pump, grid)
        assert got.dtype == want.dtype == (complex if pump_kw else float)
        assert got.tobytes() == want.tobytes()
        # Bit-symmetric, and no zero carries a sign.
        parts = (got.real, got.imag) if pump_kw else (got,)
        for part in parts:
            words = np.ascontiguousarray(part).view(np.uint64)
            assert np.array_equal(words, words.T)
            assert not np.any(np.signbit(part) & (part == 0.0))

    @pytest.mark.parametrize("block", MIRROR_BLOCKS.values(), ids=MIRROR_BLOCKS.keys())
    @pytest.mark.parametrize(
        "half_width, message",
        [
            (1.5, "wavelength 0.4883-2.1379 um outside Sellmeier validity range [0.19, 1.5] um"),
            (
                2.4,
                "pump detuning -4.7625 rad/fs puts the optical frequency at -0.0237539 "
                "rad/fs (center 4.73875 rad/fs), at or below zero",
            ),
        ],
        ids=["sellmeier-range", "negative-pump-frequency"],
    )
    def test_invalid_grid_raises_the_whole_grid_error(self, monkeypatch, half_width, message, block):
        """The checks see the whole band, not the first block's part of it."""
        monkeypatch.setattr(takagi, "_MIRROR_BLOCK", block)
        grid = build_frequency_grid(64, half_width=half_width)
        for build in (build_squeezing_matrix, whole_matrix_gamma):
            with pytest.raises(ValueError) as info:
                build(CRYSTAL, PUMP, grid)
            assert str(info.value) == message

    @pytest.mark.parametrize("pump_kw", GAMMA_PUMPS.values(), ids=GAMMA_PUMPS.keys())
    def test_pump_terms_once_per_grid_sum(self, monkeypatch, pump_kw):
        """k_p is evaluated on the 2n - 1 grid sums only: once per build, and
        once more inside ``pump_spectrum`` for a chirped pump, never per cell."""
        sizes = []
        original = pdc.wave_vector

        def spying(detuning, branch, *args):
            if branch == "pump":
                sizes.append(np.size(detuning))
            return original(detuning, branch, *args)

        monkeypatch.setattr(pdc, "wave_vector", spying)
        m = 256
        pump = PumpConfig(397.5, 129.0, gain=10.0, **pump_kw)
        build_squeezing_matrix(CRYSTAL, pump, build_frequency_grid(m, half_width=0.55))
        assert sizes == [4 * m - 1] * (1 if pump.prechirp_compensated else 2)

    def test_build_takes_its_pump_from_pump_spectrum(self, monkeypatch):
        """E0 comes from the public ``pump_spectrum``: a zero pump gives a zero Gamma."""
        monkeypatch.setattr(pdc, "pump_spectrum", lambda osum, pump, crystal: np.zeros(np.shape(osum)))
        gamma = build_squeezing_matrix(CRYSTAL, PUMP, build_frequency_grid(37, half_width=0.55)).gamma
        assert gamma.shape == (74, 74)
        assert not np.any(gamma)

    @pytest.mark.parametrize("pump_kw", GAMMA_PUMPS.values(), ids=GAMMA_PUMPS.keys())
    def test_each_mirror_pair_is_evaluated_once(self, monkeypatch, pump_kw):
        """np.sinc sees the cells of the blocks on and above the diagonal once
        each, fewer than the n^2 cells of Gamma."""
        sizes = []
        original = np.sinc

        def spying(x):
            sizes.append(np.size(x))
            return original(x)

        monkeypatch.setattr(np, "sinc", spying)
        n = 2 * 100
        pump = PumpConfig(397.5, 129.0, gain=10.0, **pump_kw)
        build_squeezing_matrix(CRYSTAL, pump, build_frequency_grid(n // 2, half_width=0.55))
        upper = sum(
            len(range(n)[rows]) * len(range(n)[cols]) for rows, cols in takagi._mirror_blocks(n)
        )
        assert sum(sizes) == upper < n * n

    def test_first_peak_in_row_order_wins_a_tie(self, monkeypatch):
        """Two largest |elements| of opposite phase: (0, 100) comes first in
        row order, (37, 63) in the first block.  Band wave vectors of
        +-d/2 give Delta = -d on the anti-diagonal j + l = 100, whose pump
        weight is the largest, and +d at (37, 63) alone; the pump k_p is 0."""
        n, d = 128, 1.0
        k = np.full(n, 0.5 * d)
        k[[37, 63]] = -0.5 * d
        weight = np.full(2 * n - 1, 0.5)
        weight[100] = 1.0

        def fake_k(detuning, branch, *args):
            return np.zeros(np.shape(detuning)) if branch == "pump" else k

        monkeypatch.setattr(pdc, "wave_vector", fake_k)
        monkeypatch.setattr(pdc, "pump_spectrum", lambda osum, pump, crystal: weight)
        pump = PumpConfig(397.5, 129.0, z0_fraction=0.25)
        gamma = build_squeezing_matrix(CRYSTAL, pump, build_frequency_grid(n // 2, 0.55)).gamma
        peak = np.abs(gamma).max()
        assert abs(gamma[0, 100]) == abs(gamma[37, 63]) == peak
        assert abs(gamma[0, 100].imag) <= 1e-15 * peak
        assert abs(gamma[37, 63].imag) > 0.5 * peak

    def test_traced_peak_stays_within_three_gammas(self):
        """Gamma, block-sized temporaries and one |Gamma| for the peak: about
        2.0x for this real Gamma (1.5x complex); the whole-matrix build peaked
        at 9x."""
        grid = build_frequency_grid(512, half_width=0.55)
        tracemalloc.start()
        try:
            gamma = build_squeezing_matrix(CRYSTAL, PUMP, grid).gamma
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * gamma.nbytes


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
        grid = build_frequency_grid(4, half_width=1.0)
        ext = extract_jsa(SqueezingMatrixPhysical(grid=grid, gamma=np.zeros((8, 8))))
        assert ext.leakage == 0.0

    def test_overflowing_energy_raises(self):
        """||Gamma||_F^2 past double precision: a ValueError, not a NaN leakage."""
        grid = build_frequency_grid(2, half_width=1.0)
        gamma = np.full((4, 4), 1e160)
        with pytest.raises(ValueError, match="overflows double precision"):
            extract_jsa(SqueezingMatrixPhysical(grid=grid, gamma=gamma))
