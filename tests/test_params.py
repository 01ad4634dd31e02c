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
            assert out.delta == pytest.approx(h * h / 12.0, rel=1e-13)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["mass", "alpha", "beta", "gamma",
                                      "spacing"])
    def test_non_finite_field_rejected(self, name, value):
        # alpha = inf would map to mu = 0, a quadratic-only chain, and
        # mass or spacing = inf would stop on physical_to_model's assert
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
