"""Periodic grid, transform conventions, dealiased derivatives, IF-RK4 stepping.

Transform convention: ``forward`` is the plain unnormalized DFT (numpy's
``fft``), so a constant field c has coefficient N*c in mode 0; ``inverse``
carries the 1/N factor and ``inverse(forward(u)) == u`` to roundoff.  The
analysis helpers work on this full spectrum.

Time stepping works on the real-FFT half spectrum instead: the state is
``np.fft.rfft(u)``, modes 0..N/2 (length N//2 + 1), and fields come back
through ``np.fft.irfft(u_hat, N)``.  The half-spectrum multipliers are the
first N//2 + 1 entries of the full ones, so the Nyquist entry keeps the sign
of ``Grid.k``.  ``IntegratingFactorRK4`` is indifferent to shape: a
``(B, N//2 + 1)`` state steps B rows at once.

``rfft_into`` and ``irfft_into`` are the half-spectrum transforms of the
stepping hot loop.  They call the pocketfft gufuncs that ``np.fft.rfft`` and
``np.fft.irfft`` end in for an even N, with the same normalisation factor, so
their results are bit-identical to those functions'.  Going straight to the
gufunc skips the wrapper's argument handling, which costs 4-7 µs a call, a
large part of a 110-250 µs step at N = 128..512.
"""
from __future__ import annotations

import numpy as np
# numpy's private FFT gufunc module, present since numpy 2.0 (the package's
# floor): the wrapper np.fft.rfft/irfft calls these same gufuncs
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import DomainError
from .params import EquationKind, ModelParams, effective_mu


class Grid:
    """Uniform periodic grid on [0, L) with a power-of-two point count.

    Exposes the sample positions ``x``, the angular wavenumbers ``k``
    (ordered like numpy's fft output), the 2/3-rule dealias mask, and the
    index of the Nyquist mode.
    """

    def __init__(self, length: float, n: int):
        if not length > 0:
            raise DomainError("grid length must be positive")
        n = int(n)
        if n < 8 or n & (n - 1):
            raise DomainError("N must be a power of two and at least 8")
        self.length = float(length)
        self.n = n
        self.dx = self.length / n
        self.x = np.arange(n) * self.dx
        self.modes = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
        self.k = (2.0 * np.pi / self.length) * self.modes
        self.dealias = (np.abs(self.modes) <= n // 3).astype(float)
        self.nyquist_index = n // 2

    def __repr__(self):
        return f"Grid(length={self.length!r}, n={self.n})"

    def check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        if u.shape != (self.n,):
            raise ValueError(f"field has shape {u.shape}, grid expects ({self.n},)")
        return u


def forward(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Physical samples to spectral coefficients (unnormalized DFT)."""
    return np.fft.fft(grid.check_field(u))


def inverse(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """Spectral coefficients back to real physical samples."""
    return np.fft.ifft(grid.check_field(u_hat)).real


def rfft_into(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.rfft(u)`` along the last axis, written into and returning out.

    u is float64 with an even last axis n; out is complex128 with the same
    leading shape and last axis n//2 + 1.  u is left unchanged.
    """
    return _pocketfft.rfft_n_even(u, 1.0, out=(out,))


def irfft_into(u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.irfft(u_hat, n)`` with n = ``out.shape[-1]``, into out.

    u_hat is complex128 with last axis n//2 + 1; out is float64.  As for
    irfft, the imaginary parts of modes 0 and n/2 are ignored and u_hat is
    left unchanged.
    """
    return _pocketfft.irfft(u_hat, 1.0 / out.shape[-1], out=(out,))


def dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule mask: 1 for |mode| <= floor(N/3), 0 above. Idempotent."""
    return grid.dealias.copy()


def derivative_multiplier(grid: Grid, order: int, dealias: bool = True) -> np.ndarray:
    """Per-mode factor (i k)^order, Nyquist zeroed for odd orders."""
    if order < 1 or order > 5:
        raise ValueError("derivative order must be between 1 and 5")
    mult = (1j * grid.k) ** order
    if order % 2:
        # the Nyquist mode of an odd derivative has no real-valued counterpart
        mult[grid.nyquist_index] = 0.0
    if dealias:
        mult = mult * grid.dealias
    return mult


def spectral_derivative(grid: Grid, u: np.ndarray, order: int = 1,
                        dealias: bool = True) -> np.ndarray:
    """n-th spatial derivative computed in Fourier space."""
    mult = derivative_multiplier(grid, order, dealias)
    return np.fft.ifft(mult * forward(grid, u)).real


class IntegratingFactorRK4:
    """IF-RK4 stepper with the integrating-factor exponentials precomputed.

    ``symbol`` must be purely imaginary (dispersive, no growth or decay);
    this is asserted on construction.
    """

    def __init__(self, symbol: np.ndarray, nonlinear, dt: float):
        if not dt > 0:
            raise DomainError("dt must be positive")
        symbol = np.asarray(symbol)
        if np.max(np.abs(symbol.real)) != 0.0:
            raise DomainError("linear symbol must be purely imaginary")
        self.dt = float(dt)
        self.nonlinear = nonlinear
        self.e_half = np.exp(symbol * (0.5 * self.dt))
        self.e_full = self.e_half * self.e_half
        # the step's scalars as complex128: numpy would convert a Python
        # float to this same value on every call, at a cost per call
        self._scalars = tuple(np.complex128(v) for v in (self.dt, 0.5, 2.0, 6.0))

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


def default_time_step(grid: Grid, params: ModelParams, kind: EquationKind,
                      u0: np.ndarray, safety: float = 0.5) -> float:
    """Step-size heuristic from the explicitly treated terms.

    The fifth-order linear term is absorbed exactly by the integrating
    factor; what limits dt is the advection-like nonlinearity at the highest
    retained wavenumber and, for the fifth-order equations, the u-dependent
    third-derivative terms.  Runs may always override this value.
    """
    k_active = 2.0 * np.pi * (grid.n // 3) / grid.length
    amp = float(np.max(np.abs(u0)))
    amp = max(amp, 1e-12)
    mu = effective_mu(kind, params)
    advective = (amp + mu * amp * amp) * k_active
    rate = advective
    if kind in (EquationKind.FPU5, EquationKind.KDV5):
        stiff = params.delta**2 * (amp + mu * amp * amp) * k_active**3
        rate = max(rate, stiff)
    return safety / rate
