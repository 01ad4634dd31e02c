"""Linear symbols, nonlinear tendencies, and the conservation-form flux.

Each equation is split as u_t = symbol*u + N(u): the two constant-coefficient
linear terms (third and, for the fifth-order family, fifth derivative) go
into the per-mode symbol and everything u-dependent is treated explicitly.
Symbols and tendencies live on the rfft half spectrum, modes 0..N/2.  Both
factories take one ``ModelParams`` or a sequence of them; a sequence gives
one row per entry, with delta and mu set per row.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import BlowUpError
from .params import EquationKind, ModelParams, effective_mu
from .spectral import Grid, derivative_multiplier, forward

FIFTH_ORDER = (EquationKind.FPU5, EquationKind.KDV5)


def _per_row(values, batched: bool):
    """Scalar for one parameter set, a (B, 1) column for a sequence."""
    return np.array(values)[:, None] if batched else values[0]


def _rows(params: ModelParams | Sequence[ModelParams]):
    if isinstance(params, ModelParams):
        return [params], False
    return list(params), True


def linear_symbol(kind: EquationKind,
                  params: ModelParams | Sequence[ModelParams],
                  grid: Grid) -> np.ndarray:
    """Per-mode multiplier of the linear dispersive terms, modes 0..N/2.

    Purely imaginary for every equation kind: i (delta^2 k^3) for the
    third-order family, i (delta^2 k^3 - (2/5) delta^4 k^5) with the extra
    fifth-order term for FPU5/KDV5.  Shape (N//2 + 1,) for one parameter
    set, (B, N//2 + 1) for a sequence of B.
    """
    rows, batched = _rows(params)
    k = grid.k[:grid.n // 2 + 1]
    d2 = _per_row([p.delta**2 for p in rows], batched)
    if kind in FIFTH_ORDER:
        return 1j * (d2 * k**3 - 0.4 * d2 * d2 * k**5)
    return 1j * d2 * k**3


def make_nonlinear_operator(kind: EquationKind,
                            params: ModelParams | Sequence[ModelParams],
                            grid: Grid):
    """Build the half-spectrum nonlinear tendency u_hat -> N_hat.

    One operator serves every kind: KDV is GARDNER at mu = 0 and KDV5 is
    FPU5 at mu = 0, and the third-order pair is the fifth-order tendency
    without its delta^2 block.  One ``irfft`` of the stacked product
    u_hat * [1, ik, (ik)^2, (ik)^3] (two rows for the third-order kinds)
    gives u and its derivatives; the derivatives carry the 2/3 mask.
    Products are formed in physical space and the ``rfft`` of the tendency
    is masked again.  The mode-0 component is zeroed: the tendency is an
    exact x-derivative, so its mean vanishes identically and zeroing
    removes the aliasing residue of the cubic terms.

    The operator accepts u_hat of shape (..., N//2 + 1).  Built from a
    sequence of B parameter sets it expects (B, N//2 + 1), row b stepping
    under the b-th set.
    """
    rows, batched = _rows(params)
    n = grid.n
    h = n // 2 + 1
    fifth = kind in FIFTH_ORDER
    orders = (1, 2, 3) if fifth else (1,)
    mult = np.stack([np.ones(h, dtype=complex)]
                    + [derivative_multiplier(grid, m)[:h] for m in orders])
    mask = grid.dealias[:h]
    mu = _per_row([effective_mu(kind, p) for p in rows], batched)
    delta2 = _per_row([p.delta**2 for p in rows], batched)
    irfft = np.fft.irfft
    rfft = np.fft.rfft

    def nonlinear(u_hat):
        f = irfft(u_hat[..., None, :] * mult, n)
        u = f[..., 0, :]
        ux = f[..., 1, :]
        w = mu * u * u - u
        if fifth:
            uxx = f[..., 2, :]
            uxxx = f[..., 3, :]
            tend = w * (ux + delta2 * uxxx) \
                + delta2 * ux * ((4.0 * mu * u - 2.0) * uxx + mu * ux * ux)
        else:
            tend = w * ux
        out = rfft(tend)
        out *= mask
        out[..., 0] = 0.0
        return out

    return nonlinear


def nonlinear_rhs(kind: EquationKind, params: ModelParams, grid: Grid,
                  u: np.ndarray) -> np.ndarray:
    """Physical-space nonlinear tendency du/dt (linear terms excluded)."""
    u = grid.check_field(u)
    if not np.all(np.isfinite(u)):
        raise BlowUpError("nonlinear tendency fed a non-finite field")
    op = make_nonlinear_operator(kind, params, grid)
    tend = np.fft.irfft(op(np.fft.rfft(u)), grid.n)
    if not np.all(np.isfinite(tend)):
        raise BlowUpError("nonlinear tendency became non-finite")
    return tend


def full_rhs(kind: EquationKind, params: ModelParams, grid: Grid,
             u: np.ndarray) -> np.ndarray:
    """Complete du/dt, linear plus nonlinear, in physical space."""
    u_hat = np.fft.rfft(grid.check_field(u))
    lam = linear_symbol(kind, params, grid)
    op = make_nonlinear_operator(kind, params, grid)
    return np.fft.irfft(lam * u_hat + op(u_hat), grid.n)


def conservation_flux(params: ModelParams, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Flux F(u) of the fifth-order equation, so that du/dt = -dF/dx.

    F = u^2/2 - mu u^3/3 + delta^2 u_xx + delta^2 (u u_xx + u_x^2/2)
        - delta^2 mu (u^2 u_xx + u u_x^2) + (2/5) delta^4 u_xxxx
    """
    u = grid.check_field(u)
    if not np.all(np.isfinite(u)):
        raise BlowUpError("flux fed a non-finite field")
    u_hat = forward(grid, u)
    ux = np.fft.ifft(derivative_multiplier(grid, 1) * u_hat).real
    uxx = np.fft.ifft(derivative_multiplier(grid, 2) * u_hat).real
    uxxxx = np.fft.ifft(derivative_multiplier(grid, 4) * u_hat).real
    mu = params.mu
    d2 = params.delta**2
    return (0.5 * u * u - mu * u**3 / 3.0 + d2 * uxx
            + d2 * (u * uxx + 0.5 * ux * ux)
            - d2 * mu * (u * u * uxx + u * ux * ux)
            + 0.4 * d2 * d2 * uxxxx)
