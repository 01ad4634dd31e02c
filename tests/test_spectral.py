import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu5 import (ETDRK4, EXPERIMENTS, DomainError, EquationKind, Grid,
                  InitialCondition, IntegratingFactorRK4, ModelParams,
                  SimulationConfig, default_time_step, linear_symbol,
                  make_nonlinear_operator, spectral_derivative)
from fpu5.experiments import build_initial_condition
from fpu5.spectral import derivative_multiplier, irfft_into, rfft_into


@pytest.fixture
def grid():
    return Grid(2.0 * np.pi, 64)


class TestGrid:
    def test_geometry(self, grid):
        assert grid.dx * grid.n == pytest.approx(grid.length, rel=1e-15)
        assert grid.x[0] == 0.0
        assert grid.k[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("length, n", [(2.0 * np.pi, 8), (46.75, 128),
                                           (64.0, 512), (2.0, 1024)])
    def test_half_spectrum_of_the_full_fft_convention(self, length, n):
        # k and the mask are the first N//2 + 1 entries of numpy's full fft
        # ordering, byte for byte, so the Nyquist wavenumber stays negative
        g = Grid(length, n)
        modes = np.fft.fftfreq(n, d=1.0 / n)
        full_k = (2.0 * np.pi / length) * modes
        full_mask = (np.abs(modes) <= n // 3).astype(float)
        assert g.k.shape == g.dealias.shape == (n // 2 + 1,)
        assert g.k.tobytes() == full_k[:n // 2 + 1].tobytes()
        assert g.dealias.tobytes() == full_mask[:n // 2 + 1].tobytes()
        assert g.k[-1] < 0.0
        for order in range(1, 6):
            for dealias in (True, False):
                mult = (1j * full_k) ** order
                if order % 2:
                    mult[n // 2] = 0.0
                if dealias:
                    mult = mult * full_mask
                got = derivative_multiplier(g, order, dealias)
                assert got.tobytes() == mult[:n // 2 + 1].tobytes()

    def test_power_of_two_required(self):
        for bad in (500, 12, 7, 0):
            with pytest.raises(DomainError):
                Grid(1.0, bad)
        with pytest.raises(DomainError):
            Grid(-1.0, 64)

    def test_size_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            spectral_derivative(grid, np.zeros(32))


def half_spectrum(u):
    return rfft_into(u, np.empty(u.shape[:-1] + (u.shape[-1] // 2 + 1,),
                                 dtype=complex))


class TestTransforms:
    def test_constant_field_is_dc_only(self, grid):
        u_hat = half_spectrum(np.ones(grid.n))
        assert u_hat[0] == pytest.approx(grid.n)
        assert np.max(np.abs(u_hat[1:])) < 1e-12 * grid.n

    def test_pure_tone_two_modes(self, grid):
        # the half spectrum holds the pair of modes -1 and +1 as mode 1
        u_hat = half_spectrum(np.sin(2 * np.pi * grid.x / grid.length))
        nonzero = np.nonzero(np.abs(u_hat) > 1e-9 * grid.n)[0]
        assert nonzero.tolist() == [1]
        assert grid.k[1] == pytest.approx(2 * np.pi / grid.length)

    def test_round_trip(self, grid):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(grid.n)
        back = irfft_into(half_spectrum(u), np.empty(grid.n))
        assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))

    def test_parseval(self, grid):
        # modes 1..N/2 - 1 stand for themselves and their mirror images
        rng = np.random.default_rng(1)
        weight = np.full(grid.n // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        for _ in range(5):
            u = rng.standard_normal(grid.n)
            u_hat = half_spectrum(u)
            physical = np.sum(u * u)
            spectral = np.sum(weight * np.abs(u_hat) ** 2) / grid.n
            assert spectral == pytest.approx(physical, rel=1e-12)


class TestHalfSpectrumTransforms:
    # rfft_into and irfft_into call scipy's pocketfft binding; these tests
    # fail if a scipy or numpy release makes it differ from what np.fft.rfft
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

    # the blow-up replay feeds the transforms states that hold inf and nan;
    # the results hold the same values, with inf and nan in the same
    # entries, but a nan may carry the other sign bit than numpy's
    non_finite = dict(log_n=st.integers(3, 9),
                      lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
                      count=st.integers(1, 4),
                      seed=st.integers(0, 2**32 - 1))

    @staticmethod
    def _spoiled(rng, shape, count):
        values = rng.standard_normal(shape)
        flat = values.reshape(-1)
        picks = rng.integers(0, flat.size, count)
        flat[picks] = rng.choice([np.inf, -np.inf, np.nan], count)
        return values

    @staticmethod
    def _nan_blind(values):
        parts = values.view(float)
        return np.where(np.isnan(parts), np.nan, parts).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(**non_finite)
    def test_rfft_into_matches_np_rfft_on_non_finite_input(self, log_n, lead,
                                                           count, seed):
        n = 2**log_n
        u = self._spoiled(np.random.default_rng(seed), lead + (n,), count)
        out = rfft_into(u, np.empty(lead + (n // 2 + 1,), dtype=complex))
        assert self._nan_blind(out) == self._nan_blind(np.fft.rfft(u))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(**non_finite)
    def test_irfft_into_matches_np_irfft_on_non_finite_input(self, log_n, lead,
                                                             count, seed):
        n = 2**log_n
        rng = np.random.default_rng(seed)
        shape = lead + (n // 2 + 1,)
        u_hat = (self._spoiled(rng, shape, count)
                 + 1j * self._spoiled(rng, shape, count))
        out = irfft_into(u_hat, np.empty(lead + (n,)))
        assert self._nan_blind(out) == self._nan_blind(np.fft.irfft(u_hat, n))

    @pytest.mark.parametrize("u, out", [
        (np.zeros(64, dtype=complex), np.empty(33, dtype=complex)),
        (np.zeros(64), np.empty(33)),
        (np.zeros(64, dtype=np.float32), np.empty(33, dtype=complex)),
        (np.zeros(63), np.empty(32, dtype=complex)),
        (np.zeros(0), np.empty(1, dtype=complex)),
        (np.zeros(64), np.empty(32, dtype=complex)),
        (np.zeros(64), np.empty(34, dtype=complex)),
        (np.zeros((3, 64)), np.empty((2, 33), dtype=complex)),
        (np.zeros((3, 64)), np.empty(33, dtype=complex)),
        (np.zeros(64), np.empty((1, 33), dtype=complex)),
        (list(np.zeros(64)), np.empty(33, dtype=complex)),
    ])
    def test_rfft_into_refuses_a_mismatched_pair(self, u, out):
        before = out.copy()
        with pytest.raises(ValueError):
            rfft_into(u, out)
        assert out.tobytes() == before.tobytes()

    @pytest.mark.parametrize("u_hat, out", [
        (np.zeros(33), np.empty(64)),
        (np.zeros(33, dtype=complex), np.empty(64, dtype=complex)),
        (np.zeros(33, dtype=np.complex64), np.empty(64)),
        (np.zeros(32, dtype=complex), np.empty(63)),
        (np.zeros(33, dtype=complex), np.empty(62)),
        (np.zeros(33, dtype=complex), np.empty(66)),
        (np.zeros((3, 33), dtype=complex), np.empty((2, 64))),
        (np.zeros((3, 33), dtype=complex), np.empty(64)),
        (np.zeros(33, dtype=complex), np.empty((2, 64))),
    ])
    def test_irfft_into_refuses_a_mismatched_pair(self, u_hat, out):
        before = out.copy()
        with pytest.raises(ValueError):
            irfft_into(u_hat, out)
        assert out.tobytes() == before.tobytes()

    def test_a_short_out_view_leaves_the_buffer_after_it_alone(self):
        # the binding trusts the shape of out: handed a view too short for
        # the spectrum, it would write on into the entries after the view
        rng = np.random.default_rng(3)
        spectrum_buffer = np.full(40, 7.0 + 7.0j)
        with pytest.raises(ValueError):
            rfft_into(rng.standard_normal(64), spectrum_buffer[:32])
        assert np.all(spectrum_buffer == 7.0 + 7.0j)
        field_buffer = np.full(3 * 64 + 8, 7.0)
        with pytest.raises(ValueError):
            irfft_into(np.fft.rfft(rng.standard_normal((3, 64))),
                       field_buffer[:3 * 60].reshape(3, 60))
        assert np.all(field_buffer == 7.0)


def kept_modes(g):
    modes = np.round(g.k * g.length / (2 * np.pi)).astype(int)
    return modes[g.dealias == 1.0].tolist()


class TestDealias:
    def test_kept_band_n16(self):
        assert kept_modes(Grid(1.0, 16)) == list(range(0, 6))

    def test_kept_band_n8(self):
        assert kept_modes(Grid(1.0, 8)) == list(range(0, 3))

    def test_idempotent(self, grid):
        mask = grid.dealias
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
        u_hat[grid.n // 2] = grid.n  # pure Nyquist oscillation
        u = np.fft.ifft(u_hat).real
        du = spectral_derivative(grid, u, 1, dealias=False)
        assert np.max(np.abs(du)) < 1e-12
        d2 = spectral_derivative(grid, u, 2, dealias=False)
        assert np.max(np.abs(d2)) > 1.0  # even orders keep it


STEPPERS = [IntegratingFactorRK4, ETDRK4]


class TestIfRk4:
    def test_pure_advection_is_exact(self, grid):
        symbol = 1j * grid.k  # u_t = u_x, so u(x, t) = u0(x + t)
        u_hat = np.fft.rfft(np.sin(grid.x))
        dt = 0.3
        stepper = IntegratingFactorRK4(symbol, lambda v: np.zeros_like(v), dt)
        out = stepper.step(u_hat)
        u = np.fft.irfft(out, grid.n)
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

    @pytest.mark.parametrize("stepper", STEPPERS)
    def test_real_symbol_rejected(self, grid, stepper):
        with pytest.raises(DomainError):
            stepper(np.ones(grid.n, dtype=complex), lambda v: v, 0.1)

    @pytest.mark.parametrize("stepper", STEPPERS)
    def test_nonpositive_dt_rejected(self, grid, stepper):
        with pytest.raises(DomainError):
            stepper(1j * grid.k, lambda v: v, 0.0)

    @pytest.mark.parametrize("make_stepper", STEPPERS)
    def test_step_writes_into_neither_its_input_nor_the_tendency(
            self, grid, make_stepper):
        # a callable that hands its argument back, and one that returns the
        # same cached array every call: both arrays must survive the step
        rng = np.random.default_rng(5)
        symbol = linear_symbol(EquationKind.FPU5, ModelParams(1.0, 0.5), grid)
        u_hat = np.fft.rfft(rng.standard_normal(grid.n))
        cached = np.fft.rfft(rng.standard_normal(grid.n))
        u_before, cached_before = u_hat.copy(), cached.copy()
        for nonlinear in (lambda v: v, lambda v: cached):
            stepper = make_stepper(symbol, nonlinear, 0.01)
            first = stepper.step(u_hat)
            assert np.array_equal(u_hat, u_before)
            assert np.array_equal(cached, cached_before)
            assert np.array_equal(stepper.step(u_hat), first)

    def test_step_is_the_textbook_combination_bit_for_bit(self):
        # the in-place step against the IF-RK4 formula written out, for every
        # kind, on a batch of two rows, on the (1, h) batch of one row that
        # the run loop steps for a single-row study, and on one (h,) row;
        # tobytes also compares zero signs
        g = Grid(30.0, 64)
        rng = np.random.default_rng(6)
        dt = 0.01
        for params, shape in [
                ([ModelParams(1.0, 0.5), ModelParams(0.7, 0.1)], (2, g.n)),
                ([ModelParams(1.0, 0.5)], (1, g.n)),
                (ModelParams(1.0, 0.5), (g.n,))]:
            u_hat = np.fft.rfft(rng.standard_normal(shape))
            for kind in EquationKind:
                n = make_nonlinear_operator(kind, params, g)
                stepper = IntegratingFactorRK4(
                    linear_symbol(kind, params, g), n, dt)
                e_half, e_full = stepper.e_half, stepper.e_full
                a = dt * n(u_hat)
                b = dt * n((u_hat + 0.5 * a) * e_half)
                c = dt * n(u_hat * e_half + 0.5 * b)
                d = dt * n(u_hat * e_full + c * e_half)
                expected = u_hat * e_full \
                    + (a * e_full + 2.0 * (b + c) * e_half + d) / 6.0
                assert stepper.step(u_hat).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make_stepper", STEPPERS)
    def test_fourth_order_convergence(self, make_stepper):
        # smooth data on the full fifth-order equation, the problem of
        # acceptance criterion 09; halving dt should shrink the global error
        # by about 16
        g = Grid(2.0 * np.pi, 16)
        params = ModelParams(delta=0.6, mu=0.5)
        u0 = 0.5 * np.sin(g.x) + 0.3 * np.cos(2 * g.x)
        symbol = linear_symbol(EquationKind.FPU5, params, g)
        nonlin = make_nonlinear_operator(EquationKind.FPU5, params, g)

        def integrate(dt, t_end=2.0):
            n = int(round(t_end / dt))
            stepper = make_stepper(symbol, nonlin, t_end / n)
            u_hat = np.fft.rfft(u0)
            for _ in range(n):
                u_hat = stepper.step(u_hat)
            return np.fft.irfft(u_hat, g.n)

        ref = integrate(1e-2 / 16)
        e1 = np.max(np.abs(integrate(1e-2) - ref))
        e2 = np.max(np.abs(integrate(5e-3) - ref))
        assert 12.0 < e1 / e2 < 20.0


def phi_coefficients(z, dt):
    """The Cox-Matthews coefficients Q, f1, f2, f3 from their closed forms,
    in extended precision."""
    z = np.asarray(z, dtype=np.clongdouble)
    dt = np.longdouble(dt)
    e = np.exp(z)
    z3 = z * z * z
    return (dt * (np.exp(0.5 * z) - 1) / z,
            dt * (-4 - z + e * (4 - 3 * z + z * z)) / z3,
            dt * (2 + z + e * (z - 2)) / z3,
            dt * (-4 - 3 * z - z * z + e * (4 - z)) / z3)


class TestEtdRk4:
    def test_coefficients_match_the_closed_forms(self):
        # the contour means against the closed forms wherever those do not
        # cancel, |z| >= 0.5.  The error is taken relative to dt / |z|, the
        # size of each formula's terms: Q and f2 have zeros on the imaginary
        # axis, near which no double evaluation keeps its relative error.
        # The real part of a half-circle mean, right for a real symbol, is
        # 8% off here
        dt = 1e-3
        rng = np.random.default_rng(7)
        z = 1j * np.concatenate([np.linspace(-2000.0, 2000.0, 40001),
                                 rng.uniform(-3.0, 3.0, 4000)])
        z = z[np.abs(z) >= 0.5]
        stepper = ETDRK4(z / dt, None, dt)
        exact = phi_coefficients(stepper.dt * (z / dt), dt)
        got = (stepper.q, stepper.f1, stepper.f2, stepper.f3)
        for name, value, ref in zip(("q", "f1", "f2", "f3"), got, exact):
            err = np.max(np.abs(value - ref) * np.abs(z) / dt)
            assert err < 1e-12, name
        assert np.array_equal(stepper.e_full, np.exp(stepper.dt * (z / dt)))

    def test_zero_mode_coefficients(self):
        # z = 0, where the closed forms are 0/0: E = 1 exactly, Q = dt/2 and
        # f1 = f2 = f3 = dt/6, the classical RK4 weights
        dt = 0.01
        stepper = ETDRK4(np.zeros(3, dtype=complex), None, dt)
        assert np.all(stepper.e_full == 1.0) and np.all(stepper.e_half == 1.0)
        for value, ref in zip((stepper.q, stepper.f1, stepper.f2, stepper.f3),
                              (dt / 2, dt / 6, dt / 6, dt / 6)):
            assert np.max(np.abs(value - ref)) < 1e-15 * ref

    def test_step_is_the_cox_matthews_combination(self):
        g = Grid(30.0, 64)
        rows = [ModelParams(1.0, 0.5), ModelParams(0.7, 0.1)]
        rng = np.random.default_rng(6)
        u_hat = np.fft.rfft(rng.standard_normal((2, g.n)))
        for kind in EquationKind:
            n = make_nonlinear_operator(kind, rows, g)
            s = ETDRK4(linear_symbol(kind, rows, g), n, 0.01)
            nv = n(u_hat)
            a = s.e_half * u_hat + s.q * nv
            na = n(a)
            b = s.e_half * u_hat + s.q * na
            nb = n(b)
            c = s.e_half * a + s.q * (2.0 * nb - nv)
            expected = s.e_full * u_hat + s.f1 * nv \
                + 2.0 * s.f2 * (na + nb) + s.f3 * n(c)
            got = s.step(u_hat)
            assert np.max(np.abs(got - expected)) \
                < 1e-14 * np.max(np.abs(expected))

    def test_mass_is_conserved_exactly(self):
        # E = 1 on mode 0 and the tendency's mode 0 is zero, so the mean of
        # the field is carried over bit for bit
        g = Grid(40.0, 64)
        params = ModelParams(delta=1.0, mu=0.3)
        u_hat = np.fft.rfft(0.3 + np.cos(2 * np.pi * g.x / g.length))
        stepper = ETDRK4(linear_symbol(EquationKind.FPU5, params, g),
                         make_nonlinear_operator(EquationKind.FPU5, params, g),
                         0.01)
        assert stepper.e_full[0] == 1.0
        start = u_hat[0]
        for _ in range(50):
            u_hat = stepper.step(u_hat)
            assert u_hat[0] == start


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
