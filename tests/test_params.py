import numpy as np
import pytest

from fpu5 import (DomainError, ModelParams, PhysicalChainParams, kink_speed,
                  physical_to_model, velocity_curve)


class TestPhysicalToModel:
    def test_unit_chain(self):
        p = PhysicalChainParams(mass=1, alpha=1, beta=1, gamma=1, spacing=1)
        m = physical_to_model(p)
        assert m.delta == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert m.mu == pytest.approx(0.75, rel=1e-15)

    def test_quadratic_only_chain_kills_mu(self):
        p = PhysicalChainParams(mass=2, alpha=1, beta=0, gamma=1, spacing=1)
        assert physical_to_model(p).mu == 0.0

    def test_doubling_spacing_quadruples_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, a, b, g, h = rng.uniform(0.1, 5.0, 5)
            base = physical_to_model(PhysicalChainParams(m, a, b, g, h))
            double = physical_to_model(PhysicalChainParams(m, a, b, g, 2 * h))
            assert double.delta == pytest.approx(4.0 * base.delta, rel=1e-12)

    def test_delta_is_spacing_squared_over_twelve(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, a, b, g, h = rng.uniform(0.05, 10.0, 5)
            out = physical_to_model(PhysicalChainParams(m, a, b, g, h))
            assert out.delta == h**2 / 12.0

    def test_delta_needs_no_wave_speed(self):
        # c^2 = gamma h^2 / m overflows here; delta = h^2 / 12 does not
        p = PhysicalChainParams(mass=1e-300, alpha=1, beta=1, gamma=1,
                                spacing=1e5)
        assert physical_to_model(p) == ModelParams(delta=1e10 / 12.0, mu=0.75)

    def test_mu_invariant_under_coupling_rescale(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, a, b, g, h, c = rng.uniform(0.2, 4.0, 6)
            base = physical_to_model(PhysicalChainParams(m, a, b, g, h))
            scaled = physical_to_model(
                PhysicalChainParams(m, c * a, c * c * b, g, h))
            assert scaled.mu == pytest.approx(base.mu, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            PhysicalChainParams(mass=-1, alpha=1, beta=1, gamma=1, spacing=1)
        with pytest.raises(DomainError):
            PhysicalChainParams(mass=1, alpha=0, beta=1, gamma=1, spacing=1)
        with pytest.raises(DomainError, match="^beta must be nonnegative$"):
            PhysicalChainParams(mass=1, alpha=1, beta=-1, gamma=1, spacing=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["mass", "alpha", "beta", "gamma",
                                      "spacing"])
    def test_non_finite_field_rejected(self, name, value):
        # alpha = inf would map to mu = 0, a quadratic-only chain, mass =
        # inf would not reach the mapping at all, and spacing = inf would
        # be refused only as delta
        fields = dict(mass=1, alpha=1, beta=1, gamma=1, spacing=1)
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            PhysicalChainParams(**{**fields, name: value})


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(delta=0.0, mu=1.0)
        with pytest.raises(DomainError):
            ModelParams(delta=1.0, mu=-0.1)
        assert ModelParams(delta=1.0, mu=0.0).mu == 0.0  # fifth-order limit


class TestKinkSpeed:
    def test_root_at_fifteen_fifty_sixths(self):
        assert kink_speed(15.0 / 56.0) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_one(self):
        assert kink_speed(1.0) == pytest.approx(-41.0 / 180.0, rel=1e-15)

    def test_pole_at_zero(self):
        with pytest.raises(DomainError):
            kink_speed(0.0)

    @pytest.mark.parametrize("mu", [1e-320, np.float64(1e-320)],
                             ids=["float", "float64"])
    def test_a_speed_past_a_double_is_refused(self, mu):
        # finite and positive, but 15 / (180 mu) overflows
        with pytest.raises(DomainError,
                           match="^kink speed is not a finite double at mu = "):
            kink_speed(mu)

    def test_strictly_decreasing(self):
        mus = np.linspace(0.01, 5.0, 400)
        speeds = np.array([kink_speed(m) for m in mus])
        assert np.all(np.diff(speeds) < 0)

    def test_single_root(self):
        mus = np.linspace(0.01, 5.0, 4000)
        signs = np.sign([kink_speed(m) for m in mus])
        assert np.count_nonzero(np.diff(signs)) == 1


class TestVelocityCurve:
    def test_degenerate_single_row(self):
        table = velocity_curve(15.0 / 56.0, 15.0 / 56.0, 1)
        assert table.shape == (1, 2)
        assert table[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_rows_match_pointwise(self):
        table = velocity_curve(0.1, 1.0, 10)
        assert table.shape == (10, 2)
        for mu, speed in table:
            assert speed == kink_speed(mu)
        assert np.all(np.diff(table[:, 1]) < 0)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(DomainError):
            velocity_curve(-1.0, 1.0, 5)
        with pytest.raises(DomainError):
            velocity_curve(0.5, 0.4, 5)
        with pytest.raises(DomainError):
            velocity_curve(0.1, 1.0, 1)
        with pytest.raises(DomainError, match="both finite"):
            velocity_curve(0.1, np.inf, 5)

    def test_an_integral_count_of_any_type_is_taken(self):
        # as Grid takes an integral N: 2.0 rows are 2 rows, and a count
        # that is no integer is refused as the other domain errors are
        assert np.array_equal(velocity_curve(0.1, 0.2, 2.0),
                              velocity_curve(0.1, 0.2, 2))
        assert velocity_curve(0.1, 0.2, np.int64(3)).shape == (3, 2)
        for n in (3.5, np.nan, np.inf):
            with pytest.raises(DomainError, match="n must be an integer"):
                velocity_curve(0.1, 0.2, n)
