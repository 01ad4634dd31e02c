"""Periodic grid, the half-spectrum convention, dealiased derivatives, and the
two exponential RK4 steppers, IF-RK4 and ETDRK4.

Transform convention: every spectral quantity lives on the real-FFT half
spectrum, modes 0..N/2 (length N//2 + 1).  A field u goes to ``rfft(u)``,
unnormalized, so a constant field c has coefficient N*c in mode 0, and
comes back through ``irfft(u_hat)``, which carries the 1/N factor.
``Grid.k`` and ``Grid.dealias`` are per-mode arrays of that length; the
Nyquist entry of ``k`` is -pi N / L, the sign numpy's full ``fftfreq``
gives it.  In both steppers the state has the symbol's shape: a
``(B, N//2 + 1)`` state steps B rows at once.

``rfft`` and ``irfft`` are the package's one transform pair; only the
nonlinear operator, which makes its arrays once with their shapes and
dtypes fixed, calls ``rfft_unchecked`` and ``irfft_unchecked`` instead,
which skip the input check (0.5-1 µs a call).  Only ``irfft_unchecked``
writes into the operator's arrays; ``rfft_unchecked`` returns a new one.
All four call ``r2c`` and ``c2r`` of scipy's pybind11 build of pocketfft,
the C++ code ``np.fft.rfft`` and ``np.fft.irfft`` also end in, with the
same normalisation, so for an even n the results are bit-identical to
those functions'.  N is even, so m modes fix n = 2 (m - 1), the
``np.fft.irfft`` default: ``irfft`` takes n from its spectrum and
``irfft_unchecked`` from its output.  Fed inf or nan, they give the same
values, though a nan may carry the other sign bit: one in about 40 random
non-finite ``irfft`` inputs.  The binding's fixed cost per call is lower
than that of numpy's gufunc: an ``rfft`` of (256,) costs about 4 µs
against 10 µs.  It transforms a float32 or complex64 array in single
precision, hence the dtype checks of ``rfft`` and ``irfft``, and writes
past the end of a short ``out``, which only ``irfft_unchecked`` passes.

The import system's path finder finds the extension under scipy's install
directory, and it is loaded from its file under its own dotted name but
without importing any scipy Python module:
``import scipy.fft`` costs about 0.3 s, the file 1-1.5 ms.  A later
``import scipy.fft`` reuses the loaded extension.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import DomainError

# points on the circle |r - dt L| = 1 whose mean gives the ETDRK4 coefficients
_CONTOUR_POINTS = 64


class Grid:
    """Uniform periodic grid on [0, L) with a power-of-two point count.

    Exposes the sample positions ``x`` and, per half-spectrum mode 0..N/2,
    the angular wavenumbers ``k`` and the 2/3-rule dealias mask.
    """

    def __init__(self, length: float, n: int):
        if not (math.isfinite(length) and length > 0):
            raise DomainError("grid length must be finite and positive")
        if int(n) != n:
            raise DomainError(f"N must be an integer, not {n!r}")
        n = int(n)
        if n < 8 or n & (n - 1):
            raise DomainError("N must be a power of two and at least 8")
        self.length = float(length)
        self.n = n
        self.dx = self.length / n
        self.x = np.arange(n) * self.dx
        # integer mode numbers; the Nyquist mode keeps numpy's fftfreq sign,
        # which the odd-order multipliers zero and the symbols depend on
        modes = np.arange(n // 2 + 1.0)
        modes[-1] = -modes[-1]
        self.k = (2.0 * np.pi / self.length) * modes
        self.dealias = (np.abs(modes) <= n // 3).astype(float)

    def __repr__(self):
        return f"Grid(length={self.length!r}, n={self.n})"

    def check_field(self, u) -> np.ndarray:
        """u as a float64 array of shape (N,), or ValueError."""
        if np.iscomplexobj(u):
            raise ValueError("a field is real, not complex")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"field has shape {u.shape}, grid expects ({self.n},)")
        return u


_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"

_LAST_AXIS = (-1,)


def _load_pocketfft():
    """scipy's pocketfft extension module, loaded straight from its file.

    Raises ImportError, naming the directory looked in, when it holds no
    extension module of that name or its ``r2c``/``c2r`` take no ``out``
    array in the place this module passes it.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("fpu5 needs scipy: no scipy package found")
    where = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft")
    spec = importlib.machinery.PathFinder.find_spec(_POCKETFFT, [where])
    if spec is None or not isinstance(spec.loader,
                                      importlib.machinery.ExtensionFileLoader):
        raise ImportError(f"scipy's pocketfft extension not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    field = np.zeros(2)
    spectrum = np.empty(2, dtype=complex)
    try:
        takes_out = (
            module.r2c(field, _LAST_AXIS, True, 0, spectrum, 1) is spectrum
            and module.c2r(spectrum, _LAST_AXIS, 2, False, 2, field, 1) is field)
    except TypeError:
        takes_out = False
    if not takes_out:
        raise ImportError(f"{spec.origin}: r2c and c2r take no out array")
    return module


_pocketfft = _load_pocketfft()
_r2c = _pocketfft.r2c
_c2r = _pocketfft.c2r
_FLOAT = np.dtype(float)
_COMPLEX = np.dtype(complex)


def rfft(u: np.ndarray) -> np.ndarray:
    """``np.fft.rfft(u)`` along the last axis, as a new complex128 array.

    u must be a float64 array with an even last axis, or ValueError."""
    if not (isinstance(u, np.ndarray) and u.dtype == _FLOAT and u.ndim
            and u.shape[-1] >= 2 and u.shape[-1] % 2 == 0):
        raise ValueError("rfft takes a float64 array with an even last axis, "
                         f"not {getattr(u, 'dtype', type(u).__name__)} "
                         f"{np.shape(u)}")
    return _r2c(u, _LAST_AXIS, True, 0, None, 1)


def irfft(u_hat: np.ndarray) -> np.ndarray:
    """``np.fft.irfft(u_hat)`` along the last axis, as a new float64 array
    of length n = 2 (m - 1) for a spectrum of m modes.

    u_hat must be a complex128 array of at least two modes, or ValueError."""
    if not (isinstance(u_hat, np.ndarray) and u_hat.dtype == _COMPLEX
            and u_hat.ndim and u_hat.shape[-1] >= 2):
        raise ValueError("irfft takes a complex128 array of at least two "
                         f"modes, not {getattr(u_hat, 'dtype', type(u_hat).__name__)} "
                         f"{np.shape(u_hat)}")
    return _c2r(u_hat, _LAST_AXIS, 2 * (u_hat.shape[-1] - 1), False, 2, None, 1)


def rfft_unchecked(u: np.ndarray) -> np.ndarray:
    """``rfft`` without the input check, as a new complex128 array."""
    return _r2c(u, _LAST_AXIS, True, 0, None, 1)


def irfft_unchecked(u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``irfft`` to n = ``out.shape[-1]`` into out, unchecked: a mis-shaped
    out is written past its end."""
    return _c2r(u_hat, _LAST_AXIS, out.shape[-1], False, 2, out, 1)


def derivative_multiplier(grid: Grid, order: int, dealias: bool = True) -> np.ndarray:
    """Per-mode factor (i k)^order, Nyquist zeroed for odd orders."""
    if not 1 <= order <= 5:
        raise ValueError("derivative order must be between 1 and 5")
    if int(order) != order:
        raise ValueError(f"derivative order must be an integer, not {order!r}")
    mult = (1j * grid.k) ** order
    if order % 2:
        # the Nyquist mode of an odd derivative has no real-valued counterpart
        mult[-1] = 0.0
    if dealias:
        mult = mult * grid.dealias
    return mult


def spectral_derivative(grid: Grid, u: np.ndarray, order: int = 1,
                        dealias: bool = True) -> np.ndarray:
    """n-th spatial derivative computed in Fourier space.

    The half spectrum used is the mean of ``rfft(u)`` and the conjugate
    ``rfft`` of u mirrored about x = 0, the same coefficients with different
    rounding.  Averaging the two shrinks the transform's share of the error
    that high orders amplify: the third derivative of sin on N = 64 is off
    by 9.7e-13 this way and by 1.1e-12 from ``rfft(u)`` alone, against
    8.8e-13 from the exact transform of the rounded samples.
    """
    u = grid.check_field(u)
    mirrored = np.roll(u[::-1], 1)
    u_hat = 0.5 * (rfft(u) + np.conj(rfft(mirrored)))
    return irfft(derivative_multiplier(grid, order, dealias) * u_hat)


def _checked_symbol(symbol, dt: float) -> np.ndarray:
    """The constructor checks both steppers share: a finite dt > 0 and a
    purely imaginary symbol (dispersive, no growth or decay)."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be finite and positive")
    symbol = np.asarray(symbol)
    if np.max(np.abs(symbol.real)) != 0.0:
        raise DomainError("linear symbol must be purely imaginary")
    return symbol


class IntegratingFactorRK4:
    """IF-RK4 stepper with the integrating-factor exponentials precomputed.

    ``symbol`` must be purely imaginary (dispersive, no growth or decay);
    this is asserted on construction.
    """

    def __init__(self, symbol: np.ndarray, nonlinear, dt: float):
        symbol = _checked_symbol(symbol, dt)
        self.dt = float(dt)
        self.nonlinear = nonlinear
        self.e_half = np.exp(symbol * (0.5 * self.dt))
        self.e_full = self.e_half * self.e_half
        # the step's scalars dt, 1/2, 2 and 6 as complex arrays of the
        # symbol's shape, each used in its scalar's place: a scalar operand
        # costs numpy a set-up on every call, and a full array in the same
        # place gives the same bits (the complex product need not commute
        # bit for bit, so the place matters)
        self._scalars = tuple(np.full(self.e_half.shape, v, dtype=complex)
                              for v in (self.dt, 0.5, 2.0, 6.0))

    def step(self, u_hat: np.ndarray) -> np.ndarray:
        """One step from u_hat; returns the new state as a fresh array.

        Never writes into u_hat or into an array the nonlinear callable
        returned: each stage result is scaled by dt into a new array, and
        only those, the stage input and the result are updated in place.
        The stage input handed to the callable is one array of the step's
        own, overwritten once the callable has returned.  The arithmetic is
        that of the textbook combination

            a = dt N(u),  b = dt N((u + a/2) E),  c = dt N(u E + b/2),
            d = dt N(u E^2 + c E),
            u' = u E^2 + (a E^2 + 2 (b + c) E + d) / 6,   E = exp(L dt/2),

        evaluated operation for operation in the same order.
        """
        dt, half, two, six = self._scalars
        e_half = self.e_half
        e_full = self.e_full
        n = self.nonlinear
        a = dt * n(u_hat)
        stage = np.multiply(half, a)
        np.add(u_hat, stage, out=stage)
        np.multiply(stage, e_half, out=stage)
        b = dt * n(stage)
        # the result array holds b/2 until u E^2 is needed
        result = np.multiply(half, b)
        np.multiply(u_hat, e_half, out=stage)
        np.add(stage, result, out=stage)
        c = dt * n(stage)
        np.multiply(u_hat, e_full, out=result)
        np.multiply(c, e_half, out=stage)
        np.add(result, stage, out=stage)
        d = dt * n(stage)
        np.multiply(a, e_full, out=a)
        np.add(b, c, out=b)
        np.multiply(two, b, out=b)
        np.multiply(b, e_half, out=b)
        np.add(a, b, out=a)
        np.add(a, d, out=a)
        np.divide(a, six, out=a)
        np.add(result, a, out=result)
        return result


class ETDRK4:
    """Exponential time differencing RK4 (Cox & Matthews, JCP 176, 2002).

    Same contract as ``IntegratingFactorRK4``: the symbol must be purely
    imaginary, ``step`` returns a fresh array and writes into neither its
    input nor an array the nonlinear callable returned.  With z = dt L per
    mode, E = exp(z) and E_half = exp(z/2) are taken directly, so the zero
    mode has E = 1 exactly; the phi-function coefficients

        Q  = dt (exp(z/2) - 1) / z
        f1 = dt (-4 - z + exp(z) (4 - 3z + z^2)) / z^3
        f2 = dt (2 + z + exp(z) (z - 2)) / z^3
        f3 = dt (-4 - 3z - z^2 + exp(z) (4 - z)) / z^3

    cancel badly for small |z|, so each is the mean of its formula over
    _CONTOUR_POINTS points on the circle |r - z| = 1 (Kassam & Trefethen,
    SISC 26, 2005).  The circle is the full one: z is imaginary, so the
    real part of a half-circle mean, which serves a real symbol, would be
    wrong here.  The points are summed one at a time, so the set-up keeps
    O(symbol.size) memory; a (B, N//2 + 1) symbol gets per-row values.
    """

    def __init__(self, symbol: np.ndarray, nonlinear, dt: float):
        symbol = _checked_symbol(symbol, dt)
        self.dt = float(dt)
        self.nonlinear = nonlinear
        z = symbol * self.dt
        self.e_half = np.exp(0.5 * z)
        self.e_full = np.exp(z)
        q, f1, f2, f3 = (np.zeros(z.shape, dtype=complex) for _ in range(4))
        # midpoints of M equal arcs: no point lands on r = 0 for an
        # imaginary z, since exp(i pi (2j - 1) / M) is never +-i
        angles = np.pi * (2.0 * np.arange(1, _CONTOUR_POINTS + 1) - 1.0) \
            / _CONTOUR_POINTS
        for root in np.exp(1j * angles):
            r = z + root
            # exp(r) as exp(z) exp(root): no rounding of r in the exponent
            er = self.e_full * np.exp(root)
            r3 = r * r * r
            q += (self.e_half * np.exp(0.5 * root) - 1.0) / r
            f1 += (-4.0 - r + er * (4.0 - 3.0 * r + r * r)) / r3
            f2 += (2.0 + r + er * (r - 2.0)) / r3
            f3 += (-4.0 - 3.0 * r - r * r + er * (4.0 - r)) / r3
        scale = self.dt / _CONTOUR_POINTS
        self.q, self.f1, self.f2, self.f3 = (c * scale for c in (q, f1, f2, f3))
        # the doubled coefficients the step multiplies by
        self._q2 = 2.0 * self.q
        self._f2x2 = 2.0 * self.f2

    def step(self, u_hat: np.ndarray) -> np.ndarray:
        """One step from u_hat; returns the new state as a fresh array.

        The Cox-Matthews stages, with N the nonlinear callable:

            a = E_half u + Q N(u),   b = E_half u + Q N(a),
            c = E_half a + Q (2 N(b) - N(u)),
            u' = E u + f1 N(u) + 2 f2 (N(a) + N(b)) + f3 N(c).
        """
        n = self.nonlinear
        e_half = self.e_half
        nv = n(u_hat)
        eu = u_hat * e_half
        q_nv = self.q * nv
        a = eu + q_nv
        na = n(a)
        b = eu + self.q * na
        nb = n(b)
        c = a * e_half + self._q2 * nb - q_nv
        return (self.f1 * nv + self._f2x2 * na + self._f2x2 * nb
                + self.f3 * n(c) + u_hat * self.e_full)
