import numpy as np
import pytest

from fpu5 import DomainError, PoleError, WeierstrassP, degenerate_p


def sample_away_from_poles(w, n=60, margin=0.08):
    period = w.period if np.isfinite(w.period) else 6.0
    z = np.linspace(margin * period, (1 - margin) * period, n)
    return z[w.pole_distance(z) > margin * min(period, 1.0)]


class TestEvaluator:
    def test_laurent_leading_term(self):
        p, _ = WeierstrassP(1.0, 1.0)(1e-3)
        assert abs(p - 1e6) < 1.0

    def test_ode_residual_both_discriminant_signs(self):
        rng = np.random.default_rng(10)
        for _ in range(12):
            g2 = rng.uniform(-4.0, 6.0)
            g3 = rng.uniform(-2.0, 2.0)
            w = WeierstrassP(g2, g3)
            z = sample_away_from_poles(w)
            p, pp = w(z)
            res = np.abs(pp**2 - (4 * p**3 - g2 * p - g3)) / (1 + np.abs(p) ** 3)
            assert res.max() < 1e-9

    def test_even_odd_symmetry(self):
        w = WeierstrassP(3.1, 0.4)
        z = sample_away_from_poles(w)
        p_pos, pp_pos = w(z)
        p_neg, pp_neg = w(-z)
        assert np.max(np.abs(p_pos - p_neg)) < 1e-10 * np.max(1 + np.abs(p_pos))
        assert np.max(np.abs(pp_pos + pp_neg)) < 1e-10 * np.max(1 + np.abs(pp_pos))

    def test_pole_refusal(self):
        w = WeierstrassP(2.0, 0.5)
        with pytest.raises(PoleError):
            w(1e-10)
        if np.isfinite(w.period):
            with pytest.raises(PoleError):
                w(w.period)

    def test_periodicity(self):
        w = WeierstrassP(5.0, 0.3)
        assert np.isfinite(w.period)
        z = sample_away_from_poles(w, n=20)
        p1, _ = w(z)
        p2, _ = w(z + w.period)
        assert np.max(np.abs(p1 - p2)) < 1e-8 * np.max(1 + np.abs(p1))

    @pytest.mark.parametrize("g2, g3", [
        (0.0, np.nan), (np.nan, 0.0), (np.inf, 1.0), (1.0, -np.inf),
        (1e200, 1.0), (1.0, 1e160)])
    def test_invariants_without_a_finite_discriminant_are_refused(self, g2, g3):
        with pytest.raises(DomainError, match="not a finite double"):
            WeierstrassP(g2, g3)

    def test_trivial_lattice(self):
        p, pp = WeierstrassP(0.0, 0.0)(0.25)
        assert p == pytest.approx(16.0, rel=1e-12)
        assert pp == pytest.approx(-128.0, rel=1e-12)


class TestDegenerate:
    def test_matches_general_evaluator(self):
        for g3 in (0.3, 1.0, 1.7, 4.2):
            g2 = 3.0 * g3 ** (2.0 / 3.0)
            w = WeierstrassP(g2, g3)
            z = sample_away_from_poles(w, n=40)
            p_general, _ = w(z)
            p_closed = degenerate_p(z, g3)
            rel = np.abs(p_closed - p_general) / (1 + np.abs(p_general))
            assert rel.max() < 1e-9

    def test_small_z_behaves_like_double_pole(self):
        z = 1e-3
        assert abs(degenerate_p(z, 1.0) - 1.0 / z**2) < 1.0

    def test_cubic_roots_at_degenerate_invariants(self):
        # simple root at g3^(1/3), double root at -g3^(1/3)/2
        g3 = 2.3
        g2 = 3.0 * g3 ** (2.0 / 3.0)
        a = np.cbrt(g3)
        for root, order in ((a, 1), (-0.5 * a, 2)):
            value = 4 * root**3 - g2 * root - g3
            assert abs(value) < 1e-12
        slope = 12 * (-0.5 * a) ** 2 - g2  # derivative vanishes at the double root
        assert abs(slope) < 1e-12

    def test_pole_error_and_domain_error(self):
        with pytest.raises(PoleError):
            degenerate_p(0.0, 1.0)
        with pytest.raises(DomainError):
            degenerate_p(0.3, -1.0)

    def test_real_period_helper(self):
        g3 = 1.0
        period = WeierstrassP(3.0 * g3 ** (2.0 / 3.0), g3).period
        c = np.sqrt(1.5) * g3 ** (1.0 / 6.0)
        assert period == pytest.approx(np.pi / c, rel=1e-12)
