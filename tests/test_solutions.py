import numpy as np
import pytest

from fpu5 import (DomainError, EllipticSolution, GardnerSoliton, Grid,
                  KdV5Soliton, KinkSolution, ModelParams, PoleError,
                  WeierstrassP, elliptic_derivatives, elliptic_eval,
                  elliptic_g3_for_speed, gardner_soliton, kdv5_soliton,
                  kink_derivatives, kink_eval, kink_pole_variant,
                  residual_first_integral, residual_second_integral)
from fpu5.spectral import spectral_derivative


def elliptic_sample_points(sol, n=400, value_cap=5.0):
    """z samples where the profile stays far from its poles."""
    w = WeierstrassP(sol.g2, sol.g3)
    period = w.period if np.isfinite(w.period) else 4.0
    z = np.linspace(0.05 * period, 0.95 * period, n)
    v, _, _, _ = elliptic_derivatives(sol, z)
    return z[np.abs(v - sol.h_level) <= value_cap]


class TestKink:
    def test_center_value(self):
        s = KinkSolution(ModelParams(0.5, 1.3), z0=0.7)
        assert kink_eval(s, 0.7) == pytest.approx(1.0 / 2.6, rel=1e-14)

    def test_steepness_value(self):
        s = KinkSolution(ModelParams(delta=0.1, mu=1.0))
        assert s.steepness == pytest.approx(np.sqrt(258.0) / 1.2, rel=1e-12)

    def test_asymptote(self):
        s = KinkSolution(ModelParams(delta=0.3, mu=1.0), branch=1)
        far = kink_eval(s, 1e3)
        assert far == pytest.approx(0.5 + np.sqrt(43.0 / 30.0), rel=1e-10)

    def test_monotone(self):
        s = KinkSolution(ModelParams(0.4, 0.8))
        z = np.linspace(-10, 10, 300)
        assert np.all(np.diff(kink_eval(s, z)) > 0)

    def test_requires_positive_mu(self):
        with pytest.raises(DomainError):
            KinkSolution(ModelParams(0.4, 0.0))

    @pytest.mark.parametrize("mu, delta, constant", [
        (1e300, 1.0, "steepness"), (1.0, 5e-324, "steepness"),
        (1e-160, 1.0, "amplitude")])
    def test_a_derived_constant_past_a_double_is_refused(self, mu, delta,
                                                         constant):
        # a finite (mu, delta) whose steepness or amplitude overflows would
        # give a profile with nan in it
        with pytest.raises(DomainError, match=f"^kink {constant} is not a "
                           "finite double at mu = "):
            KinkSolution(ModelParams(delta, mu))

    @pytest.mark.parametrize("branch", [0, 2, -2])
    def test_branch_is_plus_or_minus_one(self, branch):
        with pytest.raises(DomainError, match="^branch must be"):
            KinkSolution(ModelParams(0.4, 1.0), branch=branch)

    def test_derivatives_match_finite_differences(self):
        s = KinkSolution(ModelParams(0.7, 1.1), z0=0.2)
        z = np.linspace(-2, 2, 9)
        h = 1e-5
        v, v1, v2, v3, v4 = kink_derivatives(s, z)
        num1 = (kink_eval(s, z + h) - kink_eval(s, z - h)) / (2 * h)
        assert np.max(np.abs(v1 - num1)) < 1e-8
        _, p1, p2, p3, _ = kink_derivatives(s, z + h)
        _, m1, m2, m3, _ = kink_derivatives(s, z - h)
        assert np.max(np.abs(v2 - (p1 - m1) / (2 * h))) < 1e-8
        assert np.max(np.abs(v3 - (p2 - m2) / (2 * h))) < 1e-8
        assert np.max(np.abs(v4 - (p3 - m3) / (2 * h))) < 1e-7

    @pytest.mark.parametrize("branch", [1, -1])
    def test_integral_residuals(self, branch):
        rng = np.random.default_rng(42)
        for _ in range(6):
            params = ModelParams(rng.uniform(0.05, 2.0), rng.uniform(0.2, 3.0))
            s = KinkSolution(params, branch=branch, z0=rng.uniform(-1, 1))
            z = s.z0 + rng.uniform(-8, 8, 500) / s.steepness
            v, v1, v2, v3, v4 = kink_derivatives(s, z)
            c0, c1, c2 = s.constants
            assert residual_first_integral(v, v1, v2, v4, c0, c1, params) < 1e-9
            assert residual_second_integral(v, v1, v2, v3, c0, c1, c2, params) < 1e-9

    def test_perturbed_kink_detected(self):
        params = ModelParams(0.6, 1.5)
        s = KinkSolution(params)
        z = np.linspace(-4, 4, 200)
        v, v1, v2, v3, v4 = kink_derivatives(s, z)
        c0, c1, c2 = s.constants
        assert residual_first_integral(v + 0.01, v1, v2, v4, c0, c1, params) > 1e-4

    def test_constant_root_satisfies_first_integral(self):
        params = ModelParams(0.8, 1.2)
        c0, c1, _ = KinkSolution(params).constants
        roots = np.roots([-params.mu / 3.0, 0.5, -c0, c1])
        root = roots[np.abs(roots.imag) < 1e-12][0].real
        zeros = np.zeros(5)
        v = np.full(5, root)
        assert residual_first_integral(v, zeros, zeros, zeros, c0, c1, params) < 1e-12


class TestKinkPoleVariant:
    def test_logistic_value(self):
        s = KinkSolution(ModelParams(0.5, 1.0), z0=0.0)
        z = np.log(2.0) / s.steepness  # theta = 2 here
        expected = 2.0 * s.amplitude * 1.5 + s.center_level
        assert kink_pole_variant(s, z) == pytest.approx(expected, rel=1e-12)

    def test_asymptote_matches_kink(self):
        s = KinkSolution(ModelParams(0.5, 1.0))
        assert kink_pole_variant(s, 50.0) == pytest.approx(
            kink_eval(s, 50.0), rel=1e-12)

    def test_pole_at_origin(self):
        s = KinkSolution(ModelParams(0.5, 1.0))
        with pytest.raises(PoleError):
            kink_pole_variant(s, 0.0)

    def test_imaginary_shift_gives_smooth_kink(self):
        s = KinkSolution(ModelParams(0.5, 1.0), z0=0.3)
        z = np.linspace(-3, 3, 41)
        shifted = kink_pole_variant(s, z + 1j * np.pi / s.steepness)
        assert np.max(np.abs(shifted.imag)) < 1e-12
        assert np.max(np.abs(shifted.real - kink_eval(s, z))) < 1e-12


class TestElliptic:
    def test_displayed_constants(self):
        sol = EllipticSolution(ModelParams(delta=1.0, mu=0.5), g3=0.1)
        assert sol.h_level == pytest.approx(1.0, rel=1e-14)
        assert sol.a_coef == 0.0
        assert sol.b_coef == pytest.approx(2.0 / np.sqrt(2.5), rel=1e-14)
        assert sol.c_coef == pytest.approx(-29.0 / 144.0, rel=1e-14)

    def test_requires_positive_parameters(self):
        with pytest.raises(DomainError):
            EllipticSolution(ModelParams(delta=1.0, mu=0.0), g3=0.1)
        with pytest.raises(DomainError, match="requires mu > 0"):
            elliptic_g3_for_speed(ModelParams(delta=1.0, mu=0.0), 5.0)

    def test_second_integral_residual(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 4:
            params = ModelParams(rng.uniform(0.5, 1.5), rng.uniform(0.2, 2.0))
            sol = EllipticSolution(params, rng.uniform(-0.5, 0.5))
            z = elliptic_sample_points(sol)
            if z.size < 60:
                continue
            v, v1, v2, v3 = elliptic_derivatives(sol, z)
            res = residual_second_integral(
                v, v1, v2, v3, sol.c0, sol.c1, sol.c2, params)
            assert res < 1e-7
            done += 1

    def test_derivatives_match_finite_differences(self):
        sol = EllipticSolution(ModelParams(1.0, 0.8), g3=0.2)
        z = elliptic_sample_points(sol, n=200, value_cap=3.0)[:20]
        h = 1e-6
        v, v1, v2, v3 = elliptic_derivatives(sol, z)
        vp = elliptic_derivatives(sol, z + h)
        vm = elliptic_derivatives(sol, z - h)
        assert np.max(np.abs(v1 - (vp[0] - vm[0]) / (2 * h))) < 1e-6
        assert np.max(np.abs(v2 - (vp[1] - vm[1]) / (2 * h))) < 1e-5
        assert np.max(np.abs(v3 - (vp[2] - vm[2]) / (2 * h))) < 1e-4

    def test_first_order_pole_structure(self):
        # near a lattice pole the profile behaves as H - 2B/z
        sol = EllipticSolution(ModelParams(1.0, 0.5), g3=0.15)
        z = np.array([1e-4, 2e-4, 4e-4])
        v = np.asarray(elliptic_eval(sol, z))
        approx = sol.h_level - 2.0 * sol.b_coef / z
        assert np.max(np.abs(v - approx) / np.abs(approx)) < 1e-3

    def test_odd_symmetry_about_lattice_point(self):
        sol = EllipticSolution(ModelParams(1.0, 0.5), g3=0.15)
        z = np.linspace(0.05, 0.3, 9)
        plus = np.asarray(elliptic_eval(sol, z)) - sol.h_level
        minus = np.asarray(elliptic_eval(sol, -z)) - sol.h_level
        assert np.max(np.abs(plus + minus)) < 1e-9 * np.max(np.abs(plus))

    def test_periodicity(self):
        sol = EllipticSolution(ModelParams(1.0, 0.5), g3=0.15)
        w = WeierstrassP(sol.g2, sol.g3)
        assert np.isfinite(w.period)
        z = elliptic_sample_points(sol, n=200)[:25]
        a = np.asarray(elliptic_eval(sol, z, on_pole="nan"))
        b = np.asarray(elliptic_eval(sol, z + w.period, on_pole="nan"))
        ok = np.isfinite(a) & np.isfinite(b)
        assert ok.sum() >= 20
        assert np.max(np.abs(a[ok] - b[ok])) < 1e-7 * np.max(1 + np.abs(a[ok]))

    def test_pole_refusal_and_nan_mode(self):
        sol = EllipticSolution(ModelParams(1.0, 0.5), g3=0.15)
        with pytest.raises(PoleError):
            elliptic_eval(sol, 0.0)
        vals = elliptic_eval(sol, np.array([0.0, 0.3]), on_pole="nan")
        assert np.isnan(vals[0]) and np.isfinite(vals[1])

    def test_derivatives_take_the_per_point_zero_rule(self):
        # C + p = 0.768 at z = 1 is no zero, though it is small beside the
        # p of 1.8e10 at z = 1e-5: both functions judge each point alone
        sol = EllipticSolution(ModelParams(1.0, 1.0), g3=0.3)
        z = np.array([1.0, 1e-5])
        v = elliptic_eval(sol, z)
        assert np.all(np.isfinite(v))
        assert elliptic_derivatives(sol, z)[0].tobytes() == v.tobytes()

    def test_both_refuse_a_true_zero_of_c_plus_p(self):
        # p has its minimum e = -C at the half period of this solution
        sol = EllipticSolution(ModelParams(1.0, 1.0), g3=0.3)
        half = 0.5 * WeierstrassP(sol.g2, sol.g3).period
        with pytest.raises(PoleError, match="zero of C"):
            elliptic_eval(sol, np.array([1.0, half]))
        with pytest.raises(PoleError, match="zero of C"):
            elliptic_derivatives(sol, np.array([1.0, half]))

    @pytest.mark.parametrize("on_pole", ["Raise", "NaN", "ignore", None])
    def test_unknown_pole_mode_is_refused(self, on_pole):
        # before any evaluation: a NaN where a PoleError was asked for
        # would pass silently
        sol = EllipticSolution(ModelParams(1.0, 1.0), g3=0.1)
        with pytest.raises(ValueError, match="on_pole"):
            elliptic_eval(sol, np.array([0.0, 0.3]), on_pole=on_pole)

    def test_g3_for_speed_inverts_speed_relation(self):
        params = ModelParams(1.0, 0.5)
        g3 = elliptic_g3_for_speed(params, 5.0)
        sol = EllipticSolution(params, g3)
        assert sol.c0 == pytest.approx(5.0, rel=1e-12)


class TestGardnerSoliton:
    def test_peak_value(self):
        s = GardnerSoliton(ModelParams(1.0, 0.1), c0=1.0)
        assert gardner_soliton(s, 0.0) == pytest.approx(
            6.0 / (np.sqrt(0.4) + 1.0), rel=1e-12)

    def test_even_and_decaying(self):
        s = GardnerSoliton(ModelParams(1.0, 0.1), c0=1.0)
        z = np.linspace(0.5, 20, 40)
        left = gardner_soliton(s, -z)
        right = gardner_soliton(s, z)
        assert np.max(np.abs(left - right)) < 1e-14
        assert gardner_soliton(s, 30.0) < 1e-10

    def test_zero_mu_reduces_to_sech_squared(self):
        c0 = 0.7
        s = GardnerSoliton(ModelParams(1.3, 0.0), c0=c0)
        z = np.linspace(-5, 5, 81)
        w = np.sqrt(c0 / 1.3**2) * z
        expected = 3.0 * c0 / np.cosh(0.5 * w) ** 2
        assert np.max(np.abs(gardner_soliton(s, z) - expected)) < 1e-12

    def test_constraint_violation(self):
        with pytest.raises(DomainError):
            GardnerSoliton(ModelParams(1.0, 0.2), c0=1.0)  # 1 - 6*0.2 < 0
        with pytest.raises(DomainError):
            GardnerSoliton(ModelParams(1.0, 0.1), c0=-1.0)

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_speed_must_be_finite(self, mu):
        # at mu = 0 the profile condition 1 - 6 C0 mu > 0 holds for every
        # C0, but 6 inf 0 is nan, so an infinite c0 needs its own check
        with pytest.raises(DomainError,
                           match="^soliton speed c0 must be finite and positive$"):
            GardnerSoliton(ModelParams(1.0, mu), c0=np.inf)

    def test_a_width_past_a_double_is_refused(self):
        # sqrt(C0)/delta overflows, and the profile would be nan at its crest
        with pytest.raises(DomainError, match=r"^soliton width sqrt\(C0\)/delta "
                           "is not a finite double at C0 = 0.1, delta = 1e-160$"):
            GardnerSoliton(ModelParams(1e-160, 0.1), c0=0.1)

    def test_solves_gardner_equation(self):
        params = ModelParams(1.0, 0.1)
        s = GardnerSoliton(params, c0=1.0)
        g = Grid(80.0, 512)
        u = gardner_soliton(s, g.x - 40.0)
        ux = spectral_derivative(g, u, 1, dealias=False)
        uxxx = spectral_derivative(g, u, 3, dealias=False)
        residual = -s.c0 * ux + u * ux - params.mu * u * u * ux + uxxx
        assert np.max(np.abs(residual)) < 1e-8 * np.max(np.abs(u))


class TestKdV5Soliton:
    def test_crest_and_tails(self):
        s = KdV5Soliton(k=1.0, delta=2.0)
        assert kdv5_soliton(s, 0.0) == pytest.approx(3.5, rel=1e-14)
        assert kdv5_soliton(s, 60.0) == pytest.approx(-2.5, rel=1e-12)

    @pytest.mark.parametrize("k, delta", [(1.0, 2.0), (0.3, 0.7), (2.5, 1.1)])
    def test_tails_sit_on_the_background(self, k, delta):
        # tanh(k z / 2)^2 rounds to 1 at |z| >= 40 / k; the profile's form
        # of the level and background's may differ in the last bit
        s = KdV5Soliton(k=k, delta=delta)
        far = np.geomspace(40.0, 4000.0, 50) / k
        z = np.concatenate([-far, far])
        assert np.max(np.abs(kdv5_soliton(s, z) - s.background)) \
            <= 1e-15 * abs(s.background)

    @pytest.mark.parametrize("k, delta, message", [
        (np.inf, 1.0, "finite k > 0"), (0.0, 1.0, "finite k > 0"),
        (1.0, np.inf, "finite delta > 0"), (1.0, np.nan, "finite delta > 0"),
        (1.0, 0.0, "finite delta > 0")])
    def test_parameters_must_be_finite_and_positive(self, k, delta, message):
        # an infinite delta once gave an infinite crest and background
        with pytest.raises(DomainError, match=f"^soliton needs a {message}$"):
            KdV5Soliton(k=k, delta=delta)

    def test_travels_left(self):
        s = KdV5Soliton(k=1.0, delta=2.0)
        assert kdv5_soliton(s, -s.speed * 1.5, t=1.5) == pytest.approx(
            s.crest, rel=1e-12)

    def test_solves_fifth_order_equation_at_zero_mu(self):
        s = KdV5Soliton(k=1.0, delta=1.2)
        g = Grid(120.0, 1024)
        params = ModelParams(delta=s.delta, mu=0.0)
        u = kdv5_soliton(s, g.x - 60.0)
        d = [spectral_derivative(g, u, n, dealias=False) for n in range(1, 6)]
        ux, uxx, uxxx, _, uxxxxx = d
        d2 = s.delta**2
        residual = s.speed * ux + u * ux + d2 * uxxx + 2 * d2 * ux * uxx \
            + d2 * u * uxxx + 0.4 * d2 * d2 * uxxxxx
        assert np.max(np.abs(residual)) < 1e-8 * np.max(np.abs(u))


class TestIntegralIdentities:
    def smooth_profile(self, grid, seed):
        rng = np.random.default_rng(seed)
        u_hat = np.zeros(grid.n, dtype=complex)
        for j in range(1, 7):
            c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + j**2)
            u_hat[j] = c
            u_hat[-j] = np.conj(c)
        u = np.fft.ifft(u_hat).real
        return u / np.max(np.abs(u))

    def test_first_integral_derivative_is_travelling_wave_ode(self):
        g = Grid(2 * np.pi, 256)
        params = ModelParams(0.9, 0.7)
        c0 = 0.3
        v = self.smooth_profile(g, 11)
        d = [spectral_derivative(g, v, n, dealias=False) for n in range(1, 6)]
        v1, v2, v3, v4, v5 = d
        mu, d2 = params.mu, params.delta**2
        first = (-c0 * v + 0.5 * v * v - mu * v**3 / 3.0 + d2 * v2
                 + 0.5 * d2 * v1 * v1 + d2 * v * v2 - mu * d2 * v * v1 * v1
                 - mu * d2 * v * v * v2 + 0.4 * d2 * d2 * v4)
        d_first = spectral_derivative(g, first, 1, dealias=False)
        ode = (-c0 * v1 + v * v1 - mu * v * v * v1 + d2 * v3
               + 2 * d2 * v1 * v2 + d2 * v * v3 - 4 * mu * d2 * v * v1 * v2
               - mu * d2 * v1**3 - mu * d2 * v * v * v3 + 0.4 * d2 * d2 * v5)
        scale = np.max(np.abs(ode))
        assert np.max(np.abs(d_first - ode)) < 1e-8 * scale

    def test_second_integral_derivative_is_vprime_times_first(self):
        g = Grid(2 * np.pi, 256)
        params = ModelParams(0.8, 0.5)
        c0, c1 = 0.2, -0.4
        v = self.smooth_profile(g, 12)
        d = [spectral_derivative(g, v, n, dealias=False) for n in range(1, 5)]
        v1, v2, v3, v4 = d
        mu, d2 = params.mu, params.delta**2
        second = (c1 * v - 0.5 * c0 * v * v + v**3 / 6.0 - mu * v**4 / 12.0
                  + 0.5 * d2 * v1 * v1 + 0.5 * d2 * v * v1 * v1
                  - 0.5 * mu * d2 * v * v * v1 * v1
                  + 0.4 * d2 * d2 * v1 * v3 - 0.2 * d2 * d2 * v2 * v2)
        d_second = spectral_derivative(g, second, 1, dealias=False)
        first = (c1 - c0 * v + 0.5 * v * v - mu * v**3 / 3.0 + d2 * v2
                 + 0.5 * d2 * v1 * v1 + d2 * v * v2 - mu * d2 * v * v1 * v1
                 - mu * d2 * v * v * v2 + 0.4 * d2 * d2 * v4)
        scale = np.max(np.abs(v1 * first)) + 1e-12
        assert np.max(np.abs(d_second - v1 * first)) < 1e-8 * scale

    def test_zero_function_with_zero_constants(self):
        params = ModelParams(1.0, 0.5)
        zeros = np.zeros(8)
        assert residual_second_integral(
            zeros, zeros, zeros, zeros, 0.7, 0.0, 0.0, params) == 0.0
