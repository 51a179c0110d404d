"""Tests for the analytic Gaussian model and its Mehler factorization."""

import math

import numpy as np
import pytest

from conftest import miss_mehler_check
from twinbeams.mehler import (
    GaussianModelParams,
    MehlerFactors,
    SIGMA0,
    analytic_schmidt_mode,
    characteristic_times,
    evaluate_kernel_lhs,
    evaluate_kernel_sum,
    gaussian_model_params,
    hermite_gauss,
    mehler_factors,
    mode_overlap,
    terms_for_tail_bound,
)
from twinbeams.pdc import PumpConfig, bbo_crystal, build_frequency_grid

np.random.seed(42)

PUMP = PumpConfig(lambda_p_nm=397.5, tau_p_fs=129.0, gain=10.0)


def times_for(length_mm):
    return characteristic_times(bbo_crystal(length_mm, 28.81), PUMP)


class TestHermiteGauss:
    """Normalized Hermite-Gauss functions."""

    def test_low_order_values_at_origin(self):
        assert np.allclose(hermite_gauss(0, 0.0), math.pi ** (-0.25), atol=1e-15, rtol=0)
        assert hermite_gauss(1, 0.0) == 0.0
        assert np.allclose(
            hermite_gauss(2, 0.0), -math.pi ** (-0.25) / math.sqrt(2.0), atol=1e-15, rtol=0
        )

    def test_explicit_low_orders(self):
        x = np.linspace(-3.0, 3.0, 13)
        g = math.pi ** (-0.25) * np.exp(-0.5 * x**2)
        assert np.allclose(hermite_gauss(0, x), g, atol=1e-14, rtol=0)
        assert np.allclose(hermite_gauss(1, x), math.sqrt(2.0) * x * g, atol=1e-14, rtol=0)
        assert np.allclose(
            hermite_gauss(2, x), (2.0 * x**2 - 1.0) / math.sqrt(2.0) * g, atol=1e-13, rtol=0
        )

    def test_orthonormal(self):
        """Gram matrix of orders 0..8 on a wide fine grid is the identity."""
        x = np.linspace(-20.0, 20.0, 4001)
        dx = x[1] - x[0]
        h = np.stack([hermite_gauss(k, x) for k in range(9)])
        gram = h @ h.T * dx
        assert np.abs(gram - np.eye(9)).max() <= 1e-8

    def test_parity(self):
        x = np.linspace(0.1, 4.0, 9)
        assert np.allclose(hermite_gauss(4, -x), hermite_gauss(4, x), atol=1e-14, rtol=0)
        assert np.allclose(hermite_gauss(5, -x), -hermite_gauss(5, x), atol=1e-14, rtol=0)

    def test_high_order_stays_finite(self):
        """The normalized recurrence does not overflow at large order."""
        val = hermite_gauss(500, 2.0)
        assert math.isfinite(val)
        assert abs(val) < 1.0

    def test_scalar_in_scalar_out(self):
        assert isinstance(hermite_gauss(3, 0.5), float)

    def test_bad_order_raises(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            hermite_gauss(-1, 0.0)
        with pytest.raises(ValueError, match="beyond supported bound"):
            hermite_gauss(10_001, 0.0)


class TestCharacteristicTimes:
    """Crystal-pump time scales from the dispersion model."""

    def test_values_at_2mm(self):
        t = times_for(2.0)
        assert np.allclose(t.tau_pd, 11637.8, atol=0.5, rtol=0)
        assert np.allclose(t.tau_ps, 19.77, atol=0.02, rtol=0)
        assert np.allclose(t.tau_d, 390.2, atol=0.2, rtol=0)
        assert np.allclose(t.tau_s, 59.8, atol=0.1, rtol=0)
        assert np.allclose(t.omega_p, 0.012908, atol=1e-6, rtol=0)
        assert np.allclose(t.omega_s, 0.411715, atol=5e-6, rtol=0)

    def test_values_at_half_mm(self):
        t = times_for(0.5)
        assert np.allclose(t.tau_d, 97.5, atol=0.1, rtol=0)
        assert np.allclose(t.tau_s, 14.9, atol=0.1, rtol=0)
        assert np.allclose(t.tau_ps, 9.89, atol=0.01, rtol=0)

    def test_length_scaling(self):
        """tau_pd, tau_d, tau_s scale with L; tau_ps with sqrt(L)."""
        t1, t4 = times_for(0.5), times_for(2.0)
        assert np.allclose(t4.tau_pd / t1.tau_pd, 4.0, atol=1e-12, rtol=0)
        assert np.allclose(t4.tau_d / t1.tau_d, 4.0, atol=1e-12, rtol=0)
        assert np.allclose(t4.tau_s / t1.tau_s, 4.0, atol=1e-12, rtol=0)
        assert np.allclose(t4.tau_ps / t1.tau_ps, 2.0, atol=1e-12, rtol=0)
        assert t4.omega_s == t1.omega_s

    def test_degenerate_cut_raises(self):
        with pytest.raises(ValueError, match="degenerate regime"):
            characteristic_times(bbo_crystal(2.0, 29.4), PUMP)

    def test_validation(self):
        with pytest.raises(ValueError, match="omega_p must be positive"):
            from twinbeams.mehler import CharacteristicTimes

            CharacteristicTimes(
                tau_pd=1.0, tau_ps=1.0, tau_d=1.0, tau_s=1.0, omega_p=0.0, omega_s=0.1
            )


class TestGaussianModelParams:
    """Double-Gaussian kernel parameters."""

    def test_structural_identities(self):
        """mu + nu + 2 eta = (tau_s / sigma_0)^2 and companions."""
        t = times_for(2.0)
        p = gaussian_model_params(t)
        assert np.allclose(
            p.mu + p.nu + 2.0 * p.eta, (t.tau_s / SIGMA0) ** 2, atol=1e-8, rtol=0
        )
        assert np.allclose(
            p.mu - p.nu, -t.tau_d * t.tau_s / SIGMA0**2, atol=1e-8, rtol=0
        )
        assert np.allclose(p.xi, 0.5 * t.tau_ps**2, atol=1e-12, rtol=0)

    def test_square_integrable_at_working_point(self):
        p = gaussian_model_params(times_for(2.0))
        assert math.sqrt(p.mu * p.nu) > abs(p.eta)

    def test_validation(self):
        with pytest.raises(ValueError, match="mu, nu must be positive"):
            GaussianModelParams(mu=-1.0, nu=1.0, eta=0.0, xi=0.0)
        with pytest.raises(ValueError, match="not square-integrable"):
            GaussianModelParams(mu=1.0, nu=1.0, eta=1.0, xi=0.0)


class TestMehlerFactors:
    """Closed-form SVD factors of the double-Gaussian kernel."""

    def test_values_at_2mm(self):
        f = mehler_factors(gaussian_model_params(times_for(2.0)))
        assert np.allclose(f.q, 0.8685, atol=5e-4, rtol=0)
        assert np.allclose(f.tau1, 48.1, atol=0.2, rtol=0)
        assert np.allclose(f.tau2, 59.8, atol=0.2, rtol=0)
        assert np.allclose(f.zeta1, 0.00858, atol=5e-5, rtol=0)
        assert np.allclose(f.zeta2, -0.00630, atol=5e-5, rtol=0)

    def test_values_at_half_mm(self):
        f = mehler_factors(gaussian_model_params(times_for(0.5)))
        assert np.allclose(f.q, 0.9011, atol=5e-4, rtol=0)
        assert np.allclose(f.tau1, 26.3, atol=0.1, rtol=0)
        assert np.allclose(f.tau2, 27.4, atol=0.1, rtol=0)
        assert np.allclose(f.zeta1, 0.00159, atol=2e-5, rtol=0)
        assert np.allclose(f.zeta2, -0.00117, atol=2e-5, rtol=0)

    def test_p_q_relation(self):
        f = mehler_factors(gaussian_model_params(times_for(2.0)))
        assert np.allclose(f.p**2 + f.q**2, 1.0, atol=1e-14, rtol=0)
        assert 0.0 <= f.q < 1.0

    def test_real_kernel_limit(self):
        """xi = 0 gives an unchirped real factorization with theta in {0, pi}."""
        f = mehler_factors(GaussianModelParams(mu=1.0, nu=1.0, eta=-0.9, xi=0.0))
        assert f.zeta == 0.0 and f.zeta1 == 0.0 and f.zeta2 == 0.0
        assert f.theta0 == 0.0
        assert np.allclose(f.theta, math.pi, atol=1e-15, rtol=0)
        assert f.norm == 1.0
        assert f.tau1 == f.tau2
        f_pos = mehler_factors(GaussianModelParams(mu=1.0, nu=1.0, eta=0.9, xi=0.0))
        assert f_pos.theta == 0.0

    def test_failed_consistency_check_is_a_value_error(self, monkeypatch):
        """A 1000 mm crystal misses the 1e-12 check by rounding, and the 2 mm
        model with w scaled by 1 + 1e-9 misses it by construction; the
        pipeline's stage handler catches ValueError, not AssertionError."""
        with pytest.raises(ValueError, match="inconsistent"):
            mehler_factors(gaussian_model_params(times_for(1000.0)))
        params = gaussian_model_params(times_for(2.0))
        miss_mehler_check(monkeypatch)
        with pytest.raises(ValueError, match=r"\|q_c\| = .* inconsistent with q"):
            mehler_factors(params)

    def test_separable_kernel_has_zero_q(self):
        f = mehler_factors(GaussianModelParams(mu=1.0, nu=1.0, eta=0.0, xi=0.0))
        assert f.q == 0.0 and f.p == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="tau1, tau2 must be positive"):
            MehlerFactors(
                tau1=0.0, tau2=1.0, zeta1=0.0, zeta2=0.0, q=0.5,
                p=math.sqrt(0.75), theta0=0.0, theta=0.0, norm=1.0, zeta=0.0, xi_prime=0.0,
            )
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
            MehlerFactors(
                tau1=1.0, tau2=1.0, zeta1=0.0, zeta2=0.0, q=1.0,
                p=0.0, theta0=0.0, theta=0.0, norm=1.0, zeta=0.0, xi_prime=0.0,
            )
        with pytest.raises(ValueError, match="p\\^2 \\+ q\\^2"):
            MehlerFactors(
                tau1=1.0, tau2=1.0, zeta1=0.0, zeta2=0.0, q=0.5,
                p=0.5, theta0=0.0, theta=0.0, norm=1.0, zeta=0.0, xi_prime=0.0,
            )


class TestKernelIdentity:
    """Mehler series against the directly evaluated kernel."""

    def mesh(self):
        x = np.linspace(-4.0, 4.0, 41)
        return np.meshgrid(x, x, indexing="ij")

    def test_partial_sum_deviation_at_80_terms(self):
        """Frozen deviation of the 80-term series on the verification mesh."""
        params = gaussian_model_params(times_for(2.0))
        f = mehler_factors(params)
        xx, yy = self.mesh()
        lhs = evaluate_kernel_lhs(params, xx, yy)
        total, bound = evaluate_kernel_sum(f, xx, yy, 80)
        dev = np.abs(lhs - total).max()
        assert np.allclose(dev, 1.2856e-6, atol=2e-8, rtol=0)
        assert dev <= bound

    def test_converges_below_relative_tolerance(self):
        params = gaussian_model_params(times_for(2.0))
        f = mehler_factors(params)
        xx, yy = self.mesh()
        lhs = evaluate_kernel_lhs(params, xx, yy)
        total, _ = evaluate_kernel_sum(f, xx, yy, 90)
        assert np.abs(lhs - total).max() <= 1e-6 * f.norm

    def test_terms_for_tail_bound(self):
        """Fewest terms whose tail bound is <= 1e-6 of the norm; they clear the mesh."""
        params = gaussian_model_params(times_for(2.0))
        f = mehler_factors(params)
        n = terms_for_tail_bound(f, 1e-6)
        assert n == 104
        assert evaluate_kernel_sum(f, 0.0, 0.0, n)[1] <= 1e-6 * f.norm
        assert evaluate_kernel_sum(f, 0.0, 0.0, n - 1)[1] > 1e-6 * f.norm
        xx, yy = self.mesh()
        total, _ = evaluate_kernel_sum(f, xx, yy, n)
        assert np.abs(evaluate_kernel_lhs(params, xx, yy) - total).max() <= 1e-6 * f.norm

    def test_terms_for_tail_bound_is_smallest(self):
        for q in (0.0, 0.1, 0.5, 0.8685, 0.95, 0.999):
            p = math.sqrt(1.0 - q * q)
            f = MehlerFactors(
                tau1=1.0, tau2=1.0, zeta1=0.0, zeta2=0.0, q=q,
                p=p, theta0=0.0, theta=0.0, norm=2.0, zeta=0.0, xi_prime=0.0,
            )
            for rel_tol in (1e-3, 1e-6, 1e-12):
                n = terms_for_tail_bound(f, rel_tol)
                limit = rel_tol * f.norm
                assert evaluate_kernel_sum(f, 0.0, 0.0, n)[1] <= limit
                assert n == 1 or evaluate_kernel_sum(f, 0.0, 0.0, n - 1)[1] > limit
        with pytest.raises(ValueError, match="rel_tol"):
            terms_for_tail_bound(f, 0.0)

    def test_lhs_bitwise_symmetric(self):
        params = gaussian_model_params(times_for(2.0))
        xx, yy = self.mesh()
        lhs = evaluate_kernel_lhs(params, xx, yy)
        assert np.abs(lhs - lhs.T).max() == 0.0

    def test_separable_kernel_single_term(self):
        """q = 0 makes the one-term series exact."""
        params = GaussianModelParams(mu=1.0, nu=1.0, eta=0.0, xi=0.0)
        f = mehler_factors(params)
        xx, yy = self.mesh()
        total, bound = evaluate_kernel_sum(f, xx, yy, 1)
        assert bound == 0.0
        assert np.abs(evaluate_kernel_lhs(params, xx, yy) - total).max() <= 1e-15

    def test_scalar_evaluation(self):
        params = gaussian_model_params(times_for(2.0))
        f = mehler_factors(params)
        val = evaluate_kernel_lhs(params, 0.3, -0.2)
        assert isinstance(val, complex)
        total, bound = evaluate_kernel_sum(f, 0.3, -0.2, 80)
        assert isinstance(total, complex)
        assert abs(val - total) <= bound

    @pytest.mark.parametrize("length_mm", [1.0, 2.0, 4.0])
    def test_axes_give_the_mesh_values(self, length_mm):
        """The two 41-point axes, broadcast, give the meshgrid's values and
        bound bit for bit, for the series and the closed form alike."""
        params = gaussian_model_params(times_for(length_mm))
        f = mehler_factors(params)
        xx, yy = self.mesh()
        x = xx[:, 0]
        n = terms_for_tail_bound(f, 1e-6)
        mesh_total, mesh_bound = evaluate_kernel_sum(f, xx, yy, n)
        axes_total, axes_bound = evaluate_kernel_sum(f, x[:, None], x[None, :], n)
        assert axes_total.shape == mesh_total.shape == (41, 41)
        assert axes_total.tobytes() == mesh_total.tobytes()
        assert axes_bound == mesh_bound
        mesh_lhs = evaluate_kernel_lhs(params, xx, yy)
        assert evaluate_kernel_lhs(params, x[:, None], x[None, :]).tobytes() == mesh_lhs.tobytes()

    def test_too_few_terms_raises(self):
        f = mehler_factors(gaussian_model_params(times_for(2.0)))
        with pytest.raises(ValueError, match="terms must be at least 1"):
            evaluate_kernel_sum(f, 0.0, 0.0, 0)

    def test_discretized_kernel_singular_values(self):
        """SVD of the sampled rescaled kernel matches norm * p * q^k."""
        params = gaussian_model_params(times_for(2.0))
        f = mehler_factors(params)
        x = np.linspace(-10.0, 10.0, 401)
        dx = x[1] - x[0]
        kernel = evaluate_kernel_lhs(params, x[:, None], x[None, :]) * dx
        svals = np.linalg.svd(kernel, compute_uv=False)
        expected = f.norm * f.p * f.q ** np.arange(12)
        assert np.abs(svals[:12] - expected).max() <= 1e-6
        ratios = svals[1:5] / svals[:4]
        assert np.allclose(ratios.mean(), f.q, atol=1e-3, rtol=0)


class TestAnalyticModes:
    """Chirped Hermite-Gauss Schmidt modes on a grid."""

    def grid(self, t):
        return t.omega_s + np.linspace(-0.25, 0.25, 501)

    def test_normalization(self, nondegenerate):
        wp = nondegenerate
        om = self.grid(wp.times)
        dx = om[1] - om[0]
        for k in (0, 1, 3):
            mode = analytic_schmidt_mode(k, "signal", wp.factors, wp.times, om)
            assert np.allclose(np.sum(np.abs(mode) ** 2) * dx, 1.0, atol=1e-12, rtol=0)

    def test_orthogonal_orders(self, nondegenerate):
        wp = nondegenerate
        om = self.grid(wp.times)
        dx = om[1] - om[0]
        m0 = analytic_schmidt_mode(0, "signal", wp.factors, wp.times, om)
        m1 = analytic_schmidt_mode(1, "signal", wp.factors, wp.times, om)
        m2 = analytic_schmidt_mode(2, "signal", wp.factors, wp.times, om)
        assert abs(mode_overlap(m0, m1, dx)) <= 1e-8
        assert abs(mode_overlap(m0, m2, dx)) <= 1e-8
        assert np.allclose(abs(mode_overlap(m1, m1, dx)), 1.0, atol=1e-12, rtol=0)

    def test_signal_mode_peaks_at_central_detuning(self, nondegenerate):
        wp = nondegenerate
        om = self.grid(wp.times)
        mode = analytic_schmidt_mode(0, "signal", wp.factors, wp.times, om)
        assert abs(om[np.argmax(np.abs(mode))] - wp.times.omega_s) < 2e-3

    def test_idler_mode_lives_at_negative_detunings(self, nondegenerate):
        wp = nondegenerate
        om = -wp.times.omega_s + np.linspace(-0.25, 0.25, 501)
        mode = analytic_schmidt_mode(0, "idler", wp.factors, wp.times, om)
        assert abs(om[np.argmax(np.abs(mode))] + wp.times.omega_s) < 2e-3

    def test_unknown_branch_raises(self, nondegenerate):
        wp = nondegenerate
        with pytest.raises(ValueError, match="unknown branch"):
            analytic_schmidt_mode(0, "pump", wp.factors, wp.times, self.grid(wp.times))

    def test_bad_grid_raises(self, nondegenerate):
        wp = nondegenerate
        with pytest.raises(ValueError, match="1-D detuning array"):
            analytic_schmidt_mode(0, "signal", wp.factors, wp.times, np.zeros((3, 3)))

    def test_one_point_band_takes_the_given_spacing(self, nondegenerate):
        wp = nondegenerate
        om = np.array([wp.times.omega_s + 0.01])
        with pytest.raises(ValueError, match="1 point with its spacing"):
            analytic_schmidt_mode(0, "signal", wp.factors, wp.times, om)
        for spacing in (0.002, 0.3):
            mode = analytic_schmidt_mode(0, "signal", wp.factors, wp.times, om, spacing)
            assert mode.shape == (1,)
            assert np.allclose(np.abs(mode[0]) ** 2 * spacing, 1.0, atol=1e-12, rtol=0)

    def test_spacing_is_ignored_for_two_or_more_points(self, nondegenerate):
        """The samples' own difference, not a rounded grid.spacing, weights them."""
        wp = nondegenerate
        om = self.grid(wp.times)
        mode = analytic_schmidt_mode(1, "idler", wp.factors, wp.times, om)
        given = analytic_schmidt_mode(1, "idler", wp.factors, wp.times, om, 2 * (om[1] - om[0]))
        assert np.array_equal(mode, given)

    def test_modes_are_the_svd_modes_of_the_named_kernel(self, nondegenerate):
        """On a converged band (half_width 0.6, m = 128) the first ten signal
        and idler modes are the singular vectors of K'(a, b) = exp(-(mu a^2 +
        nu b^2)/2 + eta a b + i (xi/2)(a + b)^2) to 1e-12, with singular
        values in the ratio q^k.  exp(-(mu a^2 + nu b^2)/2 + (eta + i xi) a b)
        has the same values, but its modes miss these by more than 1e-3."""
        wp = nondegenerate
        params = gaussian_model_params(wp.times)
        grid = build_frequency_grid(128, 0.6)
        a = (grid.signal - wp.times.omega_s)[:, None]
        b = (grid.idler + wp.times.omega_s)[None, :]
        envelope = -(params.mu * a**2 + params.nu * b**2) / 2
        ks = np.arange(10)
        signal = np.stack(
            [analytic_schmidt_mode(k, "signal", wp.factors, wp.times, grid.signal) for k in ks], 1
        )
        idler = np.stack(
            [analytic_schmidt_mode(k, "idler", wp.factors, wp.times, grid.idler) for k in ks], 1
        )

        def misses(kernel):
            """Largest 1 - |overlap| of the signal and the idler modes, and of
            the singular-value ratios against q^k."""
            u, s, vh = np.linalg.svd(kernel)
            weight = math.sqrt(grid.spacing)
            sig = 1 - np.abs(np.sum(u[:, ks].conj() * signal, axis=0)) * weight
            idl = 1 - np.abs(np.sum(vh[ks] * idler.T, axis=1)) * weight
            ratio = s[ks] / s[0] - wp.factors.q**ks
            return np.abs(sig).max(), np.abs(idl).max(), np.abs(ratio).max()

        named = misses(np.exp(envelope + params.eta * a * b + 0.5j * params.xi * (a + b) ** 2))
        assert max(named) <= 1e-12
        other = misses(np.exp(envelope + (params.eta + 1j * params.xi) * a * b))
        assert other[0] > 1e-3 and other[1] > 1e-3 and other[2] <= 1e-12


class TestModeOverlap:
    """Discrete inner product."""

    def test_conjugate_symmetry(self):
        a = np.random.randn(16) + 1j * np.random.randn(16)
        b = np.random.randn(16) + 1j * np.random.randn(16)
        assert np.allclose(
            mode_overlap(a, b, 0.1), np.conj(mode_overlap(b, a, 0.1)), atol=1e-14, rtol=0
        )

    def test_spacing_weight(self):
        a = np.ones(4)
        assert mode_overlap(a, a, 0.25) == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            mode_overlap(np.ones(3), np.ones(4))
