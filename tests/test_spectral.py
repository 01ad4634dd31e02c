import importlib.machinery
import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu5 import (ETDRK4, DomainError, EquationKind, Grid, InitialCondition,
                  IntegratingFactorRK4, ModelParams, SimulationConfig,
                  conservation_flux, err_metric, linear_symbol,
                  make_nonlinear_operator, run, shape_score,
                  spectral_derivative, xcorr_mismatch)
from fpu5 import spectral
from fpu5.experiments import min_shift_difference
from fpu5.spectral import derivative_multiplier, irfft, rfft


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

    def test_integral_n_required(self):
        # a cast to int would silently build N = 64
        with pytest.raises(DomainError, match="N must be an integer"):
            Grid(40.0, 64.9)
        for n in (64.0, np.int64(64), np.int32(64)):
            g = Grid(40.0, n)
            assert g.n == 64 and type(g.n) is int

    def test_size_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            spectral_derivative(grid, np.zeros(32))


class TestTransforms:
    def test_constant_field_is_dc_only(self, grid):
        u_hat = rfft(np.ones(grid.n))
        assert u_hat[0] == pytest.approx(grid.n)
        assert np.max(np.abs(u_hat[1:])) < 1e-12 * grid.n

    def test_pure_tone_two_modes(self, grid):
        # the half spectrum holds the pair of modes -1 and +1 as mode 1
        u_hat = rfft(np.sin(2 * np.pi * grid.x / grid.length))
        nonzero = np.nonzero(np.abs(u_hat) > 1e-9 * grid.n)[0]
        assert nonzero.tolist() == [1]
        assert grid.k[1] == pytest.approx(2 * np.pi / grid.length)

    def test_round_trip(self, grid):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(grid.n)
        back = irfft(rfft(u))
        assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))

    def test_parseval(self, grid):
        # modes 1..N/2 - 1 stand for themselves and their mirror images
        rng = np.random.default_rng(1)
        weight = np.full(grid.n // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        for _ in range(5):
            u = rng.standard_normal(grid.n)
            u_hat = rfft(u)
            physical = np.sum(u * u)
            spectral = np.sum(weight * np.abs(u_hat) ** 2) / grid.n
            assert spectral == pytest.approx(physical, rel=1e-12)


class TestHalfSpectrumTransforms:
    # rfft and irfft call scipy's pocketfft binding; these tests fail if a
    # scipy or numpy release makes it differ from what np.fft.rfft and
    # irfft compute

    sizes = dict(log_n=st.integers(3, 11),
                 lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
                 scale=st.sampled_from([1e-150, 1.0, 1e150]),
                 seed=st.integers(0, 2**32 - 1))

    @settings(max_examples=60, deadline=None)
    @given(**sizes)
    def test_rfft_is_np_rfft_byte_for_byte(self, log_n, lead, scale, seed):
        n = 2**log_n
        u = scale * np.random.default_rng(seed).standard_normal(lead + (n,))
        before = u.copy()
        out = rfft(u)
        assert out.dtype == complex
        assert out.tobytes() == np.fft.rfft(u).tobytes()
        assert u.tobytes() == before.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**sizes)
    def test_irfft_is_np_irfft_byte_for_byte(self, log_n, lead, scale, seed):
        # random complex input, so modes 0 and N/2 carry imaginary parts
        # that a real field's spectrum could not have; irfft ignores them
        n = 2**log_n
        rng = np.random.default_rng(seed)
        shape = lead + (n // 2 + 1,)
        u_hat = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.all(u_hat[..., [0, -1]].imag != 0.0)
        before = u_hat.copy()
        out = irfft(u_hat)
        assert out.dtype == float
        assert out.tobytes() == np.fft.irfft(u_hat, n).tobytes()
        assert u_hat.tobytes() == before.tobytes()

    def test_strided_input_is_transformed_byte_for_byte(self):
        # a column of a 2-D array and a [::2] view, on each side
        rng = np.random.default_rng(4)
        fields = rng.standard_normal((256, 3))
        spectra = rng.standard_normal((129, 3)) + 1j * rng.standard_normal((129, 3))
        for u in (fields[:, 1], fields[::2, 2]):
            assert not u.flags.c_contiguous
            assert rfft(u).tobytes() == np.fft.rfft(u).tobytes()
        for u_hat in (spectra[:, 1], spectra[::2, 0]):
            assert not u_hat.flags.c_contiguous
            assert irfft(u_hat).tobytes() == np.fft.irfft(u_hat).tobytes()

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
    def test_rfft_matches_np_rfft_on_non_finite_input(self, log_n, lead,
                                                      count, seed):
        n = 2**log_n
        u = self._spoiled(np.random.default_rng(seed), lead + (n,), count)
        assert self._nan_blind(rfft(u)) == self._nan_blind(np.fft.rfft(u))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(**non_finite)
    def test_irfft_matches_np_irfft_on_non_finite_input(self, log_n, lead,
                                                        count, seed):
        n = 2**log_n
        rng = np.random.default_rng(seed)
        shape = lead + (n // 2 + 1,)
        u_hat = (self._spoiled(rng, shape, count)
                 + 1j * self._spoiled(rng, shape, count))
        assert (self._nan_blind(irfft(u_hat))
                == self._nan_blind(np.fft.irfft(u_hat, n)))

    @pytest.mark.parametrize("u", [
        np.zeros(64, dtype=complex),
        np.zeros(64, dtype=np.float32),
        np.zeros(64, dtype=int),
        np.zeros(63),
        np.zeros(0),
        np.float64(1.0),
        np.array(1.0),
        list(np.zeros(64)),
    ], ids=["complex", "float32", "int", "odd-length", "empty", "scalar",
            "0-d", "list"])
    def test_rfft_refuses_bad_input(self, u):
        with pytest.raises(ValueError):
            rfft(u)

    @pytest.mark.parametrize("u_hat", [
        np.zeros(33),
        np.zeros(33, dtype=np.complex64),
        list(np.zeros(33, dtype=complex)),
        np.zeros(1, dtype=complex),
        np.zeros((3, 1), dtype=complex),
        np.zeros(0, dtype=complex),
        np.complex128(1.0),
        np.array(1.0 + 0j),
    ], ids=["float", "complex64", "list", "zero-n", "zero-n-rows", "empty",
            "scalar", "0-d"])
    def test_irfft_refuses_bad_input(self, u_hat):
        # one mode would give n = 0 and no mode n = -2
        with pytest.raises(ValueError):
            irfft(u_hat)

    def test_the_transforms_return_new_arrays(self):
        u = np.random.default_rng(5).standard_normal((2, 16))
        u_hat = rfft(u)
        assert u_hat.shape == (2, 9) and u_hat.flags.owndata
        back = irfft(u_hat)
        assert back.shape == (2, 16) and back.flags.owndata


class TestPocketfftLoader:
    # _load_pocketfft is called again with scipy's location replaced; the
    # module keeps the binding it loaded on import

    @staticmethod
    def _scipy_at(monkeypatch, root):
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(root)]
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name: spec if name == "scipy" else None)

    def test_no_scipy(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="fpu5 needs scipy"):
            spectral._load_pocketfft()

    def test_no_extension_names_the_directory(self, monkeypatch, tmp_path):
        where = tmp_path / "scipy" / "fft" / "_pocketfft"
        where.mkdir(parents=True)
        self._scipy_at(monkeypatch, tmp_path / "scipy")
        with pytest.raises(ImportError) as err:
            spectral._load_pocketfft()
        assert str(where) in str(err.value)

    def test_a_python_module_is_refused(self, monkeypatch, tmp_path):
        # only an extension module can become the binding: running this
        # one would raise AssertionError, not ImportError
        where = tmp_path / "scipy" / "fft" / "_pocketfft"
        where.mkdir(parents=True)
        (where / "pypocketfft.py").write_text("raise AssertionError('ran')\n")
        self._scipy_at(monkeypatch, tmp_path / "scipy")
        with pytest.raises(ImportError, match="extension not found"):
            spectral._load_pocketfft()


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
        # a fractional order would give a fractional derivative
        for order in (0, 6, -1, 1.5, 2.5, np.nan):
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
        with pytest.raises(DomainError, match="finite and positive"):
            stepper(1j * grid.k, lambda v: v, np.inf)

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

    def test_step_is_the_combination_byte_for_byte(self):
        # the 18 elementwise operations in their order, each operand on
        # its side: the complex product need not commute bit for bit
        g = Grid(30.0, 64)
        rows = [ModelParams(1.0, 0.5), ModelParams(0.7, 0.1)]
        rng = np.random.default_rng(6)
        u_hat = np.fft.rfft(rng.standard_normal((2, g.n)))
        for kind in EquationKind:
            n = make_nonlinear_operator(kind, rows, g)
            s = ETDRK4(linear_symbol(kind, rows, g), n, 0.01)
            q2, f2x2 = 2.0 * s.q, 2.0 * s.f2
            nv = n(u_hat)
            eu = np.multiply(u_hat, s.e_half)
            q_nv = np.multiply(s.q, nv)
            a = np.add(eu, q_nv)
            na = n(a)
            b = np.add(eu, np.multiply(s.q, na))
            nb = n(b)
            c = np.subtract(np.add(np.multiply(a, s.e_half),
                                   np.multiply(q2, nb)), q_nv)
            total = np.add(np.multiply(s.f1, nv), np.multiply(f2x2, na))
            total = np.add(total, np.multiply(f2x2, nb))
            total = np.add(total, np.multiply(s.f3, n(c)))
            expected = np.add(total, np.multiply(u_hat, s.e_full))
            assert s.step(u_hat).tobytes() == expected.tobytes()

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


class TestOneTransformPath:
    def test_nothing_calls_numpy_fft(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft called")

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse)
        g = Grid(40.0, 64)
        params = ModelParams(delta=1.0, mu=0.1)
        for scheme in STEPPERS:
            snaps = run(SimulationConfig(
                kind=EquationKind.FPU5, params=params, grid=g, t_end=0.02,
                dt=0.005, snapshot_interval=0.01, scheme=scheme,
                initial_condition=InitialCondition("gardner_soliton", c0=1.0)))
            assert len(snaps) == 3
        u = snaps[-1].u
        v = np.roll(snaps[0].u, 3)
        u_hat = rfft(u)
        # every kind, each through its compiled tendency
        for kind in EquationKind:
            n_hat = make_nonlinear_operator(kind, params, g)(u_hat)
            lam = linear_symbol(kind, params, g)
            assert np.all(np.isfinite(irfft(lam * u_hat + n_hat)))
        for order in range(1, 6):
            assert np.all(np.isfinite(spectral_derivative(g, u, order)))
        assert np.all(np.isfinite(conservation_flux(params, g, u)))
        assert 0.0 <= xcorr_mismatch(u, v) < 1.0
        assert 0.0 <= shape_score(u, v, g) < 1.0

    def test_a_complex_field_is_refused(self):
        # np.fft.rfft refused it; a cast to float would drop its imaginary part
        g = Grid(40.0, 64)
        u = np.exp(1j * g.x)
        v = np.cos(g.x)
        params = ModelParams(1.0, 0.1)
        for call in (lambda: spectral_derivative(g, u),
                     lambda: conservation_flux(params, g, list(u)),
                     lambda: err_metric(u, v),
                     lambda: xcorr_mismatch(v, u),
                     lambda: min_shift_difference(list(u), v),
                     lambda: shape_score(v, u, g)):
            with pytest.raises(ValueError, match="complex"):
                call()

    def test_fields_of_unequal_length_are_refused(self):
        # a broadcast would compare fields sampled on two different grids
        g = Grid(40.0, 64)
        u, short = np.cos(g.x), np.cos(g.x[:32])
        for call in (lambda: err_metric(u, short),
                     lambda: xcorr_mismatch(short, u),
                     lambda: min_shift_difference(u, list(short))):
            with pytest.raises(ValueError, match="fields must share a grid"):
                call()
        for a, b in ((u, short), (short, u)):
            with pytest.raises(ValueError, match="grid expects"):
                shape_score(a, b, g)

    # a nan score fails every threshold without an error; a stack or an
    # empty pair has no one score
    @pytest.mark.parametrize("a, b, match", [
        (np.full(64, np.nan), np.ones(64), "^a field has a non-finite sample$"),
        (np.ones(64), np.r_[np.ones(63), np.inf],
         "^a field has a non-finite sample$"),
        (np.ones((2, 64)), np.ones((2, 64)),
         r"^a field is one-dimensional, not of shape \(2, 64\)$"),
        (np.ones(0), np.ones(0), "^a field needs at least one sample$"),
    ], ids=["nan", "inf", "stack", "empty"])
    def test_a_field_the_metrics_cannot_score_is_refused(self, a, b, match):
        for call in (lambda: err_metric(a, b), lambda: xcorr_mismatch(a, b),
                     lambda: min_shift_difference(a, b)):
            with pytest.raises(ValueError, match=match):
                call()

    def test_int_and_list_fields_give_the_float_fields_bytes(self):
        # np.fft took these and transformed them as float64
        g = Grid(40.0, 64)
        rng = np.random.default_rng(6)
        ints = rng.integers(-3, 4, g.n)
        other = np.roll(ints, 2) + rng.integers(-1, 2, g.n)
        floats, other_floats = ints.astype(float), other.astype(float)
        for field in (ints, list(ints)):
            for order in (1, 3):
                assert (spectral_derivative(g, field, order).tobytes()
                        == spectral_derivative(g, floats, order).tobytes())
        for a, b in ((ints, other), (list(ints), list(other))):
            assert xcorr_mismatch(a, b) == xcorr_mismatch(floats, other_floats)
            assert shape_score(a, b, g) == shape_score(floats, other_floats, g)
