import numpy as np
import pytest

from fpu5 import (BlowUpError, EquationKind, Grid, ModelParams,
                  conservation_flux, full_rhs, linear_symbol, nonlinear_rhs)
from fpu5.equations import make_nonlinear_operator
from fpu5.spectral import derivative_multiplier

ALL_KINDS = list(EquationKind)


def full_spectrum(grid):
    """(i k)^1..(i k)^4 and the 2/3 mask on numpy's full fft ordering,
    built here from the wavenumbers, independently of the package."""
    modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    mask = (np.abs(modes) <= grid.n // 3).astype(float)
    ik = 1j * (2.0 * np.pi / grid.length) * modes
    ik[grid.n // 2] = 0.0  # odd orders drop the Nyquist mode
    ik2 = -((2.0 * np.pi / grid.length) * modes) ** 2
    mult = {1: ik * mask, 2: ik2 * mask, 3: ik * ik2 * mask,
            4: ik2 * ik2 * mask}
    return mult, mask


def full_derivative(grid, u, order):
    mult, _ = full_spectrum(grid)
    return np.fft.ifft(mult[order] * np.fft.fft(u)).real


def band_limited_field(grid, max_mode, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    u_hat = np.zeros(grid.n, dtype=complex)
    for j in range(1, max_mode + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + j)
        u_hat[j] = c
        u_hat[-j] = np.conj(c)
    u = np.fft.ifft(u_hat).real
    return scale * u / np.max(np.abs(u))


class TestLinearSymbol:
    def test_fifth_order_value_at_unit_wavenumber(self):
        g = Grid(2 * np.pi, 64)
        lam = linear_symbol(EquationKind.FPU5, ModelParams(1.0, 0.5), g)
        assert lam[1] == pytest.approx(0.6j)

    def test_zero_mode_is_zero(self):
        g = Grid(2 * np.pi, 64)
        for kind in ALL_KINDS:
            lam = linear_symbol(kind, ModelParams(1.3, 0.2), g)
            assert lam[0] == 0.0

    def test_gardner_value(self):
        g = Grid(2 * np.pi, 64)
        lam = linear_symbol(EquationKind.GARDNER, ModelParams(2.0, 0.1), g)
        assert lam[1] == pytest.approx(4.0j)

    def test_purely_imaginary_for_all_kinds(self):
        g = Grid(17.0, 128)
        for kind in ALL_KINDS:
            lam = linear_symbol(kind, ModelParams(0.7, 1.1), g)
            assert np.all(lam.real == 0.0)


class TestNonlinearTendency:
    def test_constant_field_gives_zero(self):
        g = Grid(10.0, 64)
        params = ModelParams(0.8, 0.6)
        for kind in ALL_KINDS:
            tend = nonlinear_rhs(kind, params, g, np.full(g.n, 2.3))
            assert np.max(np.abs(tend)) < 1e-13

    def test_small_amplitude_expansion(self):
        # with delta tiny only the quadratic advection survives at second order
        g = Grid(2 * np.pi, 64)
        params = ModelParams(delta=1e-3, mu=0.7)
        eps = 1e-4
        u = eps * np.sin(g.x)
        tend = nonlinear_rhs(EquationKind.FPU5, params, g, u)
        expected = -eps**2 * np.sin(g.x) * np.cos(g.x)
        assert np.max(np.abs(tend - expected)) < 10 * eps**3

    def test_kdv5_equals_fpu5_at_zero_mu(self):
        g = Grid(30.0, 128)
        u = band_limited_field(g, 20, seed=1, scale=1.5)
        a = nonlinear_rhs(EquationKind.FPU5, ModelParams(1.2, 0.0), g, u)
        b = nonlinear_rhs(EquationKind.KDV5, ModelParams(1.2, 0.9), g, u)
        assert np.array_equal(a, b)

    def test_fpu5_minus_gardner_is_the_extra_terms(self):
        g = Grid(30.0, 128)
        params = ModelParams(1.1, 0.4)
        u = band_limited_field(g, 14, seed=2, scale=1.2)
        diff = nonlinear_rhs(EquationKind.FPU5, params, g, u) \
            - nonlinear_rhs(EquationKind.GARDNER, params, g, u)
        ux, uxx, uxxx = (full_derivative(g, u, m) for m in (1, 2, 3))
        d2, mu = params.delta**2, params.mu
        extra = -(2 * d2 * ux * uxx + d2 * u * uxxx
                  - 4 * d2 * mu * u * ux * uxx - d2 * mu * ux**3
                  - d2 * mu * u * u * uxxx)
        extra_hat = np.fft.fft(extra) * full_spectrum(g)[1]
        extra_hat[0] = 0.0
        extra = np.fft.ifft(extra_hat).real
        scale = np.max(np.abs(extra)) + 1e-30
        assert np.max(np.abs(diff - extra)) < 1e-12 * max(1.0, scale)

    def test_translation_equivariance(self):
        g = Grid(25.0, 128)
        params = ModelParams(0.9, 0.3)
        u = band_limited_field(g, 18, seed=3, scale=1.4)
        for kind in ALL_KINDS:
            rolled = nonlinear_rhs(kind, params, g, np.roll(u, 1))
            direct = np.roll(nonlinear_rhs(kind, params, g, u), 1)
            scale = np.max(np.abs(direct)) + 1e-30
            assert np.max(np.abs(rolled - direct)) < 1e-12 * max(1.0, scale)

    def test_tendency_has_zero_mean(self):
        g = Grid(25.0, 128)
        params = ModelParams(0.9, 0.3)
        u = band_limited_field(g, 30, seed=4, scale=2.0) + 0.7
        for kind in ALL_KINDS:
            tend = nonlinear_rhs(kind, params, g, u)
            assert abs(tend.mean()) < 1e-14


class TestPhysicalWrappers:
    @pytest.mark.parametrize("rhs", [nonlinear_rhs, full_rhs])
    def test_non_finite_field_raises(self, rhs):
        g = Grid(20.0, 64)
        u = band_limited_field(g, 5, seed=2)
        u[7] = np.nan
        with pytest.raises(BlowUpError, match="fed a non-finite field"):
            rhs(EquationKind.FPU5, ModelParams(1.0, 0.2), g, u)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rhs", [nonlinear_rhs, full_rhs])
    def test_non_finite_result_raises(self, rhs):
        # finite samples whose products overflow
        g = Grid(20.0, 64)
        u = band_limited_field(g, 5, seed=3, scale=1e200)
        with pytest.raises(BlowUpError, match="became non-finite"):
            rhs(EquationKind.FPU5, ModelParams(1.0, 0.2), g, u)


class TestConservationFlux:
    def test_constant_field_flux_constant(self):
        g = Grid(10.0, 64)
        params = ModelParams(0.8, 0.6)
        c = 1.7
        f = conservation_flux(params, g, np.full(g.n, c))
        expected = 0.5 * c * c - params.mu * c**3 / 3.0
        assert np.max(np.abs(f - expected)) < 1e-12

    def test_flux_identity(self):
        # du/dt = -dF/dx on fields band-limited enough that the cubic
        # products stay inside the retained band
        g = Grid(30.0, 256)
        params = ModelParams(1.3, 0.5)
        for seed in range(3):
            u = band_limited_field(g, g.n // 9, seed=seed, scale=1.5)
            rhs = full_rhs(EquationKind.FPU5, params, g, u)
            flux = conservation_flux(params, g, u)
            dflux = full_derivative(g, flux, 1)
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(rhs + dflux)) < 1e-8 * scale

    def test_mu_zero_reduces_to_quadratic_flux(self):
        g = Grid(30.0, 128)
        params0 = ModelParams(1.3, 0.0)
        u = band_limited_field(g, 12, seed=5)
        f0 = conservation_flux(params0, g, u)
        ux, uxx, uxxxx = (full_derivative(g, u, m) for m in (1, 2, 4))
        d2 = params0.delta**2
        expected = 0.5 * u * u + d2 * uxx + d2 * (u * uxx + 0.5 * ux * ux) \
            + 0.4 * d2 * d2 * uxxxx
        assert np.max(np.abs(f0 - expected)) < 1e-12 * np.max(np.abs(expected))


class TestOperatorFactory:
    def test_matches_physical_wrapper(self):
        g = Grid(20.0, 64)
        params = ModelParams(1.0, 0.2)
        u = band_limited_field(g, 9, seed=6)
        op = make_nonlinear_operator(EquationKind.FPU5, params, g)
        via_op = np.fft.irfft(op(np.fft.rfft(u)), g.n)
        direct = nonlinear_rhs(EquationKind.FPU5, params, g, u)
        assert np.max(np.abs(via_op - direct)) < 1e-14

    def test_bit_identical_to_the_plain_expression(self):
        # the operator works in place on its own arrays; its result must be
        # that of the tendency written as one numpy expression, zero signs
        # included, for one row, for a batch of rows, and for a stack of
        # rows fed to an operator built from one parameter set
        g = Grid(20.0, 64)
        h = g.n // 2 + 1
        rows = [ModelParams(1.0, 0.2), ModelParams(0.6, 0.0), ModelParams(1.4, 0.7)]
        rng = np.random.default_rng(12)
        u_hat = np.fft.rfft(rng.standard_normal((len(rows), g.n)))

        def plain(kind, params, v):
            fifth = kind in (EquationKind.FPU5, EquationKind.KDV5)
            mult = np.stack([np.ones(h, dtype=complex)]
                            + [derivative_multiplier(g, m)
                               for m in ((1, 2, 3) if fifth else (1,))])
            mu = 0.0 if kind in (EquationKind.KDV, EquationKind.KDV5) else params.mu
            delta2 = params.delta**2
            f = np.fft.irfft(v[None, :] * mult, g.n)
            u, ux = f[0], f[1]
            w = mu * u * u - u
            if fifth:
                uxx, uxxx = f[2], f[3]
                tend = w * (ux + delta2 * uxxx) \
                    + delta2 * ux * ((4.0 * mu * u - 2.0) * uxx + mu * ux * ux)
            else:
                tend = w * ux
            out = np.fft.rfft(tend)
            out *= g.dealias
            out[0] = 0.0
            return out

        for kind in ALL_KINDS:
            expected = np.stack([plain(kind, p, v) for p, v in zip(rows, u_hat)])
            batched = make_nonlinear_operator(kind, rows, g)(u_hat)
            assert batched.tobytes() == expected.tobytes()
            for p, v, row in zip(rows, u_hat, expected):
                single = make_nonlinear_operator(kind, p, g)(v)
                assert single.tobytes() == row.tobytes()
            stacked = make_nonlinear_operator(kind, rows[0], g)(u_hat)
            for v, row in zip(u_hat, stacked):
                assert row.tobytes() == plain(kind, rows[0], v).tobytes()

    def test_work_arrays_never_leak_between_calls(self):
        # one operator fed single rows and stacks of three in turn gives what
        # a freshly built operator gives, leaves its input alone, and never
        # alters an array it returned before
        g = Grid(20.0, 64)
        params = ModelParams(0.8, 0.4)
        rng = np.random.default_rng(11)
        inputs = [np.fft.rfft(rng.standard_normal(shape))
                  for shape in [(g.n,), (3, g.n)] * 3]
        for kind in ALL_KINDS:
            op = make_nonlinear_operator(kind, params, g)
            returned, copies = [], []
            for u_hat in inputs:
                before = u_hat.copy()
                out = op(u_hat)
                assert out.shape == u_hat.shape
                assert np.array_equal(u_hat, before)
                fresh = make_nonlinear_operator(kind, params, g)(u_hat)
                assert np.array_equal(out, fresh)
                returned.append(out)
                copies.append(out.copy())
            for out, copy in zip(returned, copies):
                assert np.array_equal(out, copy)

    def test_matches_full_spectrum_formula(self):
        # the tendency written out on the full complex spectrum, one
        # parameter set at a time, against the half-spectrum operator fed
        # one row and a batch of rows
        g = Grid(20.0, 64)
        rows = [ModelParams(1.0, 0.2), ModelParams(0.6, 0.0), ModelParams(1.4, 0.7)]
        fields = [band_limited_field(g, 12, seed=7 + i, scale=1.3)
                  for i in range(len(rows))]
        mult, mask = full_spectrum(g)
        d1, d2m, d3 = mult[1], mult[2], mult[3]

        def full_tendency(kind, params, u):
            u_hat = np.fft.fft(u)
            ux = np.fft.ifft(d1 * u_hat).real
            mu = 0.0 if kind in (EquationKind.KDV, EquationKind.KDV5) else params.mu
            w = mu * u * u - u
            if kind in (EquationKind.FPU5, EquationKind.KDV5):
                uxx = np.fft.ifft(d2m * u_hat).real
                uxxx = np.fft.ifft(d3 * u_hat).real
                delta2 = params.delta**2
                tend = w * (ux + delta2 * uxxx) \
                    + delta2 * ux * ((4.0 * mu * u - 2.0) * uxx + mu * ux * ux)
            else:
                tend = w * ux
            out = np.fft.fft(tend) * mask
            out[0] = 0.0
            return out[:g.n // 2 + 1]

        for kind in ALL_KINDS:
            expected = np.stack([full_tendency(kind, p, u)
                                 for p, u in zip(rows, fields)])
            u_hat = np.fft.rfft(np.stack(fields))
            batched = make_nonlinear_operator(kind, rows, g)(u_hat)
            single = np.stack([make_nonlinear_operator(kind, p, g)(v)
                               for p, v in zip(rows, u_hat)])
            scale = np.max(np.abs(expected))
            for got in (batched, single):
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) < 1e-13 * scale
