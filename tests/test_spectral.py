import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu5 import (EXPERIMENTS, DomainError, EquationKind, Grid,
                  InitialCondition, IntegratingFactorRK4, ModelParams,
                  SimulationConfig, dealias_mask, default_time_step, forward,
                  inverse, linear_symbol, make_nonlinear_operator,
                  spectral_derivative)
from fpu5.experiments import build_initial_condition
from fpu5.spectral import irfft_into, rfft_into


@pytest.fixture
def grid():
    return Grid(2.0 * np.pi, 64)


class TestGrid:
    def test_geometry(self, grid):
        assert grid.dx * grid.n == pytest.approx(grid.length, rel=1e-15)
        assert grid.x[0] == 0.0
        assert grid.k[1] == pytest.approx(1.0)

    def test_power_of_two_required(self):
        for bad in (500, 12, 7, 0):
            with pytest.raises(DomainError):
                Grid(1.0, bad)
        with pytest.raises(DomainError):
            Grid(-1.0, 64)

    def test_size_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            forward(grid, np.zeros(32))


class TestTransforms:
    def test_constant_field_is_dc_only(self, grid):
        u_hat = forward(grid, np.ones(grid.n))
        assert u_hat[0] == pytest.approx(grid.n)
        assert np.max(np.abs(u_hat[1:])) < 1e-12 * grid.n

    def test_pure_tone_two_modes(self, grid):
        u_hat = forward(grid, np.sin(2 * np.pi * grid.x / grid.length))
        nonzero = np.nonzero(np.abs(u_hat) > 1e-9 * grid.n)[0]
        assert sorted(grid.modes[nonzero]) == [-1.0, 1.0]

    def test_round_trip(self, grid):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(grid.n)
        back = inverse(grid, forward(grid, u))
        assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))

    def test_parseval(self, grid):
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(grid.n)
            u_hat = forward(grid, u)
            physical = np.sum(u * u)
            spectral = np.sum(np.abs(u_hat) ** 2) / grid.n
            assert spectral == pytest.approx(physical, rel=1e-12)


class TestHalfSpectrumTransforms:
    # rfft_into and irfft_into call numpy's FFT gufuncs directly; these
    # tests fail if a numpy release moves them or changes what np.fft.rfft
    # and irfft compute

    sizes = dict(log_n=st.integers(3, 11),
                 lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
                 scale=st.sampled_from([1e-150, 1.0, 1e150]),
                 seed=st.integers(0, 2**32 - 1))

    @settings(max_examples=60, deadline=None)
    @given(**sizes)
    def test_rfft_into_is_np_rfft_byte_for_byte(self, log_n, lead, scale, seed):
        n = 2**log_n
        u = scale * np.random.default_rng(seed).standard_normal(lead + (n,))
        before = u.copy()
        out = np.empty(lead + (n // 2 + 1,), dtype=complex)
        assert rfft_into(u, out) is out
        assert out.tobytes() == np.fft.rfft(u).tobytes()
        assert u.tobytes() == before.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**sizes)
    def test_irfft_into_is_np_irfft_byte_for_byte(self, log_n, lead, scale, seed):
        # random complex input, so modes 0 and N/2 carry imaginary parts
        # that a real field's spectrum could not have; irfft ignores them
        n = 2**log_n
        rng = np.random.default_rng(seed)
        shape = lead + (n // 2 + 1,)
        u_hat = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.all(u_hat[..., [0, -1]].imag != 0.0)
        before = u_hat.copy()
        out = np.empty(lead + (n,))
        assert irfft_into(u_hat, out) is out
        assert out.tobytes() == np.fft.irfft(u_hat, n).tobytes()
        assert u_hat.tobytes() == before.tobytes()


class TestDealias:
    def test_kept_band_n16(self):
        g = Grid(1.0, 16)
        mask = dealias_mask(g)
        kept = sorted(g.modes[mask == 1.0])
        assert kept == list(range(-5, 6))

    def test_kept_band_n8(self):
        g = Grid(1.0, 8)
        kept = sorted(g.modes[dealias_mask(g) == 1.0])
        assert kept == list(range(-2, 3))

    def test_idempotent(self, grid):
        mask = dealias_mask(grid)
        assert np.array_equal(mask * mask, mask)


class TestDerivative:
    def test_sin_to_cos(self, grid):
        du = spectral_derivative(grid, np.sin(grid.x), 1)
        assert np.max(np.abs(du - np.cos(grid.x))) < 1e-12

    def test_constant_derivatives_vanish(self, grid):
        for order in range(1, 6):
            du = spectral_derivative(grid, np.full(grid.n, 3.7), order)
            assert np.max(np.abs(du)) < 1e-12

    def test_third_derivative_of_sin(self, grid):
        du = spectral_derivative(grid, np.sin(grid.x), 3)
        assert np.max(np.abs(du + np.cos(grid.x))) < 1e-12

    def test_order_out_of_range(self, grid):
        for order in (0, 6, -1):
            with pytest.raises(ValueError):
                spectral_derivative(grid, np.sin(grid.x), order)

    def test_linearity(self, grid):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(grid.n)
        g = rng.standard_normal(grid.n)
        left = spectral_derivative(grid, 2.5 * f - 1.5 * g, 1)
        right = 2.5 * spectral_derivative(grid, f, 1) \
            - 1.5 * spectral_derivative(grid, g, 1)
        scale = np.max(np.abs(right)) + 1.0
        assert np.max(np.abs(left - right)) < 1e-12 * scale

    def test_composition_matches_second_derivative(self, grid):
        # band-limited smooth field, dealiasing off
        rng = np.random.default_rng(3)
        u_hat = np.zeros(grid.n, dtype=complex)
        for j in range(1, 9):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            u_hat[j] = c
            u_hat[-j] = np.conj(c)
        u = np.fft.ifft(u_hat).real
        twice = spectral_derivative(
            grid, spectral_derivative(grid, u, 1, dealias=False), 1, dealias=False)
        once = spectral_derivative(grid, u, 2, dealias=False)
        assert np.max(np.abs(twice - once)) < 1e-10 * np.max(np.abs(once))

    def test_nyquist_mode_zeroed_for_odd_orders(self, grid):
        u_hat = np.zeros(grid.n, dtype=complex)
        u_hat[grid.nyquist_index] = grid.n  # pure Nyquist oscillation
        u = np.fft.ifft(u_hat).real
        du = spectral_derivative(grid, u, 1, dealias=False)
        assert np.max(np.abs(du)) < 1e-12
        d2 = spectral_derivative(grid, u, 2, dealias=False)
        assert np.max(np.abs(d2)) > 1.0  # even orders keep it


class TestIfRk4:
    def test_pure_advection_is_exact(self, grid):
        symbol = 1j * grid.k  # u_t = u_x, so u(x, t) = u0(x + t)
        u_hat = forward(grid, np.sin(grid.x))
        dt = 0.3
        stepper = IntegratingFactorRK4(symbol, lambda v: np.zeros_like(v), dt)
        out = stepper.step(u_hat)
        u = inverse(grid, out)
        assert np.max(np.abs(u - np.sin(grid.x + dt))) < 1e-12

    def test_modulus_conserved_by_imaginary_symbol(self, grid):
        rng = np.random.default_rng(4)
        params = ModelParams(delta=1.0, mu=0.5)
        from fpu5 import linear_symbol
        symbol = linear_symbol(EquationKind.FPU5, params, grid)
        u_hat = np.fft.rfft(rng.standard_normal(grid.n))
        stepper = IntegratingFactorRK4(symbol, lambda v: np.zeros_like(v), 0.01)
        before = np.abs(u_hat)
        for _ in range(10):
            u_hat = stepper.step(u_hat)
        assert np.max(np.abs(np.abs(u_hat) - before)) < 1e-13 * np.max(before)

    def test_real_symbol_rejected(self, grid):
        with pytest.raises(DomainError):
            IntegratingFactorRK4(np.ones(grid.n, dtype=complex),
                                 lambda v: v, 0.1)

    def test_nonpositive_dt_rejected(self, grid):
        with pytest.raises(DomainError):
            IntegratingFactorRK4(1j * grid.k, lambda v: v, 0.0)

    def test_step_writes_into_neither_its_input_nor_the_tendency(self, grid):
        # a callable that hands its argument back, and one that returns the
        # same cached array every call: both arrays must survive the step
        rng = np.random.default_rng(5)
        symbol = linear_symbol(EquationKind.FPU5, ModelParams(1.0, 0.5), grid)
        u_hat = np.fft.rfft(rng.standard_normal(grid.n))
        cached = np.fft.rfft(rng.standard_normal(grid.n))
        u_before, cached_before = u_hat.copy(), cached.copy()
        for nonlinear in (lambda v: v, lambda v: cached):
            stepper = IntegratingFactorRK4(symbol, nonlinear, 0.01)
            first = stepper.step(u_hat)
            assert np.array_equal(u_hat, u_before)
            assert np.array_equal(cached, cached_before)
            assert np.array_equal(stepper.step(u_hat), first)

    def test_step_is_the_textbook_combination_bit_for_bit(self):
        # the in-place step against the IF-RK4 formula written out, on a
        # batch of two rows for every kind; tobytes also compares zero signs
        g = Grid(30.0, 64)
        rows = [ModelParams(1.0, 0.5), ModelParams(0.7, 0.1)]
        rng = np.random.default_rng(6)
        u_hat = np.fft.rfft(rng.standard_normal((2, g.n)))
        dt = 0.01
        for kind in EquationKind:
            n = make_nonlinear_operator(kind, rows, g)
            stepper = IntegratingFactorRK4(linear_symbol(kind, rows, g), n, dt)
            e_half, e_full = stepper.e_half, stepper.e_full
            a = dt * n(u_hat)
            b = dt * n((u_hat + 0.5 * a) * e_half)
            c = dt * n(u_hat * e_half + 0.5 * b)
            d = dt * n(u_hat * e_full + c * e_half)
            expected = u_hat * e_full \
                + (a * e_full + 2.0 * (b + c) * e_half + d) / 6.0
            assert stepper.step(u_hat).tobytes() == expected.tobytes()

    def test_fourth_order_convergence(self):
        # smooth data on the full fifth-order equation; halving dt should
        # shrink the global error by about 16
        from fpu5 import linear_symbol, make_nonlinear_operator
        g = Grid(2.0 * np.pi, 16)
        params = ModelParams(delta=0.6, mu=0.5)
        u0 = 0.5 * np.sin(g.x) + 0.3 * np.cos(2 * g.x)
        symbol = linear_symbol(EquationKind.FPU5, params, g)
        nonlin = make_nonlinear_operator(EquationKind.FPU5, params, g)

        def integrate(dt, t_end=2.0):
            n = int(round(t_end / dt))
            stepper = IntegratingFactorRK4(symbol, nonlin, t_end / n)
            u_hat = np.fft.rfft(u0)
            for _ in range(n):
                u_hat = stepper.step(u_hat)
            return np.fft.irfft(u_hat, g.n)

        ref = integrate(1e-2 / 16)
        e1 = np.max(np.abs(integrate(1e-2) - ref))
        e2 = np.max(np.abs(integrate(5e-3) - ref))
        assert 12.0 < e1 / e2 < 20.0


class TestDefaultTimeStep:
    def test_positive_and_overridable(self):
        g = Grid(40.0, 128)
        params = ModelParams(delta=2.0, mu=0.05)
        u0 = np.cos(2 * np.pi * g.x / g.length)
        dt = default_time_step(g, params, EquationKind.FPU5, u0)
        assert dt > 0
        # the stiff fifth-order kinds get a smaller default than the cubic one
        dt_gardner = default_time_step(g, params, EquationKind.GARDNER, u0)
        assert dt < dt_gardner

    def test_kdv_and_kdv5_ignore_mu(self):
        # both equations drop the cubic term, so mu must not shrink dt
        g = Grid(40.0, 128)
        u0 = 1.5 * np.cos(2 * np.pi * g.x / g.length)
        for kind in (EquationKind.KDV, EquationKind.KDV5):
            dts = {default_time_step(g, ModelParams(delta=1.0, mu=mu), kind, u0)
                   for mu in (0.0, 0.3, 5.0)}
            assert len(dts) == 1

    def test_recurrence_default_inside_measured_stable_region(self):
        # on the frozen recurrence config (FPU5, delta = 2, N = 128, to t = 6)
        # dt = 1e-4 drifts L2 by 9e-10, 2e-4 by 1.8e-6 (a 2000x jump) and
        # 3e-4 blows up at t = 2.4 (ROADMAP item 4, the second invariant)
        fx = EXPERIMENTS["recurrence"]
        config = SimulationConfig(
            kind=EquationKind.FPU5, params=ModelParams(fx["delta"], fx["mu"]),
            grid=Grid(fx["length"], fx["n"]), t_end=fx["t_end"],
            initial_condition=InitialCondition("kdv5_soliton", k=fx["k"]))
        dt = default_time_step(config.grid, config.params, config.kind,
                               build_initial_condition(config))
        assert dt <= 1.7e-4
