import ast
import re
from pathlib import Path

import numpy as np
import pytest

from fpu5 import (BlowUpError, EquationKind, Grid, ModelParams,
                  conservation_flux, linear_symbol)
from fpu5 import spectral
from fpu5.equations import make_if_rk4, make_nonlinear_operator
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


def tendency(kind, params, grid, u):
    """The operator's nonlinear tendency of a field, in physical space."""
    op = make_nonlinear_operator(kind, params, grid)
    return spectral.irfft(op(spectral.rfft(u)))


def numpy_operator(kind, params, grid):
    """``make_nonlinear_operator`` written as plain numpy, row by row: the
    reference that the compiled pass of the operator and of the IF-RK4 loop
    is held to byte for byte.  spectral's checked transforms give np.fft's
    bits, and the pass's nan signs on non-finite input; the mask is
    complex, as the pass multiplies by it, so an inf meets 0j as there."""
    fifth = kind in (EquationKind.FPU5, EquationKind.KDV5)
    mult = np.stack([np.ones(grid.n // 2 + 1, dtype=complex)]
                    + [derivative_multiplier(grid, m)
                       for m in ((1, 2, 3) if fifth else (1,))])
    mask = grid.dealias.astype(complex)

    def row(p, v):
        mu = 0.0 if kind in (EquationKind.KDV, EquationKind.KDV5) else p.mu
        delta2 = p.delta**2
        u, ux, *high = spectral.irfft(v * mult)
        w = mu * u * u - u
        if fifth:
            uxx, uxxx = high
            tend = w * (ux + delta2 * uxxx) \
                + delta2 * ux * ((4.0 * mu * u - 2.0) * uxx + mu * ux * ux)
        else:
            tend = w * ux
        out = spectral.rfft(tend) * mask
        out[0] = 0.0
        return out

    if isinstance(params, ModelParams):
        return lambda v: row(params, v)
    return lambda u_hat: np.stack([row(p, v) for p, v in zip(params, u_hat)])


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
            tend = tendency(kind, params, g, np.full(g.n, 2.3))
            assert np.max(np.abs(tend)) < 1e-13

    def test_small_amplitude_expansion(self):
        # with delta tiny only the quadratic advection survives at second order
        g = Grid(2 * np.pi, 64)
        params = ModelParams(delta=1e-3, mu=0.7)
        eps = 1e-4
        u = eps * np.sin(g.x)
        tend = tendency(EquationKind.FPU5, params, g, u)
        expected = -eps**2 * np.sin(g.x) * np.cos(g.x)
        assert np.max(np.abs(tend - expected)) < 10 * eps**3

    def test_kdv5_equals_fpu5_at_zero_mu(self):
        g = Grid(30.0, 128)
        u = band_limited_field(g, 20, seed=1, scale=1.5)
        a = tendency(EquationKind.FPU5, ModelParams(1.2, 0.0), g, u)
        b = tendency(EquationKind.KDV5, ModelParams(1.2, 0.9), g, u)
        assert np.array_equal(a, b)

    def test_fpu5_minus_gardner_is_the_extra_terms(self):
        g = Grid(30.0, 128)
        params = ModelParams(1.1, 0.4)
        u = band_limited_field(g, 14, seed=2, scale=1.2)
        diff = tendency(EquationKind.FPU5, params, g, u) \
            - tendency(EquationKind.GARDNER, params, g, u)
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
            rolled = tendency(kind, params, g, np.roll(u, 1))
            direct = np.roll(tendency(kind, params, g, u), 1)
            scale = np.max(np.abs(direct)) + 1e-30
            assert np.max(np.abs(rolled - direct)) < 1e-12 * max(1.0, scale)

    def test_tendency_has_zero_mean(self):
        g = Grid(25.0, 128)
        params = ModelParams(0.9, 0.3)
        u = band_limited_field(g, 30, seed=4, scale=2.0) + 0.7
        for kind in ALL_KINDS:
            tend = tendency(kind, params, g, u)
            assert abs(tend.mean()) < 1e-14


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
        lam = linear_symbol(EquationKind.FPU5, params, g)
        op = make_nonlinear_operator(EquationKind.FPU5, params, g)
        for seed in range(3):
            u = band_limited_field(g, g.n // 9, seed=seed, scale=1.5)
            u_hat = spectral.rfft(u)
            rhs = spectral.irfft(lam * u_hat + op(u_hat))
            flux = conservation_flux(params, g, u)
            dflux = full_derivative(g, flux, 1)
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(rhs + dflux)) < 1e-8 * scale

    def test_non_finite_field_raises(self):
        g = Grid(20.0, 64)
        u = band_limited_field(g, 5, seed=2)
        u[7] = np.nan
        with pytest.raises(BlowUpError, match="flux fed a non-finite field"):
            conservation_flux(ModelParams(1.0, 0.2), g, u)

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
    def test_bit_identical_to_the_plain_expression(self):
        # the operator's compiled pass must give the tendency written as
        # plain numpy, zero signs included, for one row, for a batch of
        # rows, and for a batch of rows that share one parameter set
        g = Grid(20.0, 64)
        rows = [ModelParams(1.0, 0.2), ModelParams(0.6, 0.0), ModelParams(1.4, 0.7)]
        rng = np.random.default_rng(12)
        u_hat = np.fft.rfft(rng.standard_normal((len(rows), g.n)))

        for kind in ALL_KINDS:
            expected = numpy_operator(kind, rows, g)(u_hat)
            batched = make_nonlinear_operator(kind, rows, g)(u_hat)
            assert batched.tobytes() == expected.tobytes()
            for p, v, row in zip(rows, u_hat, expected):
                single = make_nonlinear_operator(kind, p, g)(v)
                assert single.tobytes() == row.tobytes()
            stacked = make_nonlinear_operator(kind, [rows[0]] * 3, g)(u_hat)
            for v, row in zip(u_hat, stacked):
                assert row.tobytes() == numpy_operator(kind, rows[0], g)(v).tobytes()

    def test_work_arrays_never_leak_between_calls(self):
        # an operator fed several inputs in turn, one operator for single
        # rows and one for stacks of three, gives what a freshly built
        # operator gives, leaves its input alone, and never alters an array
        # it returned before
        g = Grid(20.0, 64)
        rng = np.random.default_rng(11)
        for params, shape in [(ModelParams(0.8, 0.4), (g.n,)),
                              ([ModelParams(0.8, 0.4)] * 3, (3, g.n))]:
            inputs = [np.fft.rfft(rng.standard_normal(shape)) for _ in range(3)]
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

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_refuses_a_state_of_another_shape(self, kind):
        # an operator is built for the shape of its parameters' symbol and
        # names both shapes when fed another
        g = Grid(20.0, 64)
        h = g.n // 2 + 1
        params = ModelParams(0.8, 0.4)
        one_row = make_nonlinear_operator(kind, params, g)
        three_rows = make_nonlinear_operator(kind, [params] * 3, g)
        for op, built, shape in [(one_row, (h,), (3, h)),
                                 (three_rows, (3, h), (h,)),
                                 (three_rows, (3, h), (2, h))]:
            with pytest.raises(ValueError) as info:
                op(np.zeros(shape, dtype=complex))
            assert str(built) in str(info.value)
            assert str(shape) in str(info.value)

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


# finite doubles at the edges of the number line, both signs: zeros,
# subnormals, values whose square under- or overflows, and ordinary ones
SPECIAL = np.array([s * v for v in (0.0, 5e-324, 1e-310, 1e154, 1.7e308, 1.0, 3.25)
                    for s in (1.0, -1.0)])


def fake_transforms(monkeypatch, fields, seen):
    """spectral's two call factories replaced, as the compiled pass calls
    them: the inverse transform writes fields (u, ux, ...) into the pass's
    physical-space arrays, the forward one keeps the tendency it is given
    and leaves a zero spectrum, so no FFT can hide a zero's sign or a
    rounding."""
    def fill(out):
        for row, field in zip(out, fields):
            row[...] = field

    def keep(tendency, spectrum):
        seen.append(tendency.copy())
        spectrum[...] = 0.0

    monkeypatch.setattr(spectral, "irfft_call",
                        lambda u_hat, out: (fill, (out,)))
    monkeypatch.setattr(spectral, "rfft_call",
                        lambda u, out: (keep, (u, out)))


def through_each_consumer(kind, params, grid):
    """One operator call and one compiled IF-RK4 step from a zero state:
    the two consumers of the compiled pass."""
    zero = np.zeros(linear_symbol(kind, params, grid).shape, dtype=complex)
    make_nonlinear_operator(kind, params, grid)(zero)
    make_if_rk4(kind, params, grid, 0.01)(zero, 1)


class TestThirdOrderKernel:
    # the compiled third-order tendency against the plain numpy expression,
    # byte for byte, at mu = +0.0, -0.0 and mu > 0, one row and batches

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, mu", [
        (EquationKind.KDV, 0.7), (EquationKind.GARDNER, 0.0),
        (EquationKind.GARDNER, -0.0), (EquationKind.GARDNER, 0.3)])
    def test_tendency_on_special_values(self, monkeypatch, kind, mu):
        # the inverse FFT hands the pass every pair of special values as
        # (u, ux), in an operator call and in each of the four stages of a
        # loop step, and the forward one keeps the tendency it is given
        g = Grid(20.0, 256)
        u, ux = (np.resize(a.ravel(), g.n)
                 for a in np.meshgrid(SPECIAL, SPECIAL, indexing="ij"))
        seen = []
        fake_transforms(monkeypatch, (u, ux), seen)
        through_each_consumer(kind, ModelParams(1.0, mu), g)
        m = 0.0 if kind is EquationKind.KDV else mu
        assert len(seen) == 5
        for tendency in seen:
            assert tendency.tobytes() == ((m * u * u - u) * ux).tobytes()

    @pytest.mark.parametrize("kind, mus", [
        (EquationKind.KDV, (0.0, 0.3, 1.0)),
        (EquationKind.GARDNER, (0.0, 0.0, 0.0)),
        (EquationKind.GARDNER, (0.0, -0.0, 0.0)),
    ])
    def test_batches_equal_the_plain_expression(self, kind, mus):
        g = Grid(20.0, 64)
        rows = [ModelParams(d, m) for d, m in zip((1.0, 0.6, 1.4), mus)]
        rng = np.random.default_rng(21)
        u_hat = np.fft.rfft(rng.standard_normal((len(rows), g.n)))
        u_hat[1] = 0.0                 # a zero field: u is +0.0 everywhere
        u_hat[2, 3:] = 0.0             # few modes: small values and zeros
        expected = numpy_operator(kind, rows, g)(u_hat)
        batched = make_nonlinear_operator(kind, rows, g)(u_hat)
        assert batched.tobytes() == expected.tobytes()
        for p, v, row in zip(rows, u_hat, expected):
            single = make_nonlinear_operator(kind, p, g)(v)
            assert single.tobytes() == row.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("params", [
    ModelParams(0.6, 0.05),
    [ModelParams(1.0, 0.0), ModelParams(0.6, -0.0), ModelParams(1.4, 0.05)]])
def test_fifth_order_tendency_on_special_values(monkeypatch, params):
    # the compiled tendency against the plain numpy expression, byte for
    # byte, in an operator call and in each stage of a loop step: the
    # inverse FFT hands it every special value in every position of u, ux,
    # uxx and uxxx (all 14**4 combinations) in every row
    g = Grid(20.0, 65536)
    fields = [np.resize(a.ravel(), g.n)
              for a in np.meshgrid(*[SPECIAL] * 4, indexing="ij")]
    seen = []
    fake_transforms(monkeypatch, fields, seen)
    through_each_consumer(EquationKind.FPU5, params, g)
    rows = params if isinstance(params, list) else [params]
    u, ux, uxx, uxxx = fields
    expected = []
    for p in rows:
        mu, delta2 = p.mu, p.delta**2
        w = mu * u * u - u
        expected.append(w * (ux + delta2 * uxxx)
                        + delta2 * ux * ((4.0 * mu * u - 2.0) * uxx + mu * ux * ux))
    assert len(seen) == 5
    for tendency in seen:
        assert tendency.reshape(-1, g.n).tobytes() == np.stack(expected).tobytes()


@pytest.mark.parametrize("module", sorted(
    path.name for path in Path(spectral.__file__).parent.glob("*.py")))
def test_only_the_stepper_builds_a_nonlinear_operator(module):
    # the operator that steps every run is the one evaluator of the
    # tendency: _step_group builds it, and no other function, such as a
    # physical-space wrapper, calls the factory
    tree = ast.parse((Path(spectral.__file__).parent / module).read_text())
    callers = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "make_nonlinear_operator":
                callers.append(getattr(top, "name", None))
    assert callers == (["_step_group"] if module == "experiments.py" else [])


@pytest.mark.parametrize("module", sorted(
    path.name for path in Path(spectral.__file__).parent.glob("*.py")))
def test_only_the_stepping_loop_calls_a_steppers_step(module):
    # one loop steps every run, checks it and replays a failed interval:
    # only it builds the compiled IF-RK4 loop, calls it an interval (or a
    # step) at a time, and calls an ETDRK4 stepper's step
    tree = ast.parse((Path(spectral.__file__).parent / module).read_text())
    callers = {name: set() for name in ("make_if_rk4", "advance", "step")}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name in callers:
                    callers[name].add(getattr(top, "name", None))
    expected = {"_step_group"} if module == "experiments.py" else set()
    assert callers == dict.fromkeys(callers, expected)


_BINDING = {"_pocketfft", "_r2c", "_c2r", "pypocketfft"}


@pytest.mark.parametrize("module", sorted(
    path.name for path in Path(spectral.__file__).parent.glob("*.py")))
def test_only_spectral_names_the_fft_binding(module):
    # every transform goes through spectral's one binding pair, so no other
    # module imports, calls or spells out the binding or its functions
    tree = ast.parse((Path(spectral.__file__).parent / module).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    assert names & _BINDING == (_BINDING if module == "spectral.py" else set())
