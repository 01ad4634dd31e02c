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

from . import _native, spectral
from .errors import BlowUpError
from .params import FIFTH_ORDER, EquationKind, ModelParams, effective_mu
from .spectral import Grid, derivative_multiplier, spectral_derivative


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
    k = grid.k
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
    is masked again.  The fifth-order tendency is one call to the C kernel
    of ``_tendency.c``, which ``_native`` builds on first use with the
    interpreter's C compiler and caches; it takes each product and sum in
    the order of the plain numpy expression, so its bits are numpy's.  With
    no working compiler, building a fifth-order operator raises
    ImportError.  The third-order tendency stays 2-4 numpy calls.
    The mode-0 component is zeroed: the tendency is an
    exact x-derivative, so its mean vanishes identically and zeroing
    removes the aliasing residue of the cubic terms.

    The operator takes u_hat of one shape, the shape ``linear_symbol``
    gives for the same parameters: (N//2 + 1,) for one parameter set,
    (B, N//2 + 1) for a sequence of B, row b stepping under the b-th set.
    Any other shape raises ValueError.  It returns a fresh array on every
    call and never writes into u_hat.  Its work arrays, made here once,
    are shared by all calls, so one operator is not reentrant and must not
    be called from two threads at once.
    """
    rows, batched = _rows(params)
    n = grid.n
    h = grid.k.size
    shape = (len(rows), h) if batched else (h,)
    row = shape[:-1] + (n,)
    fifth = kind in FIFTH_ORDER
    orders = (1, 2, 3) if fifth else (1,)
    mult = np.stack([np.ones(h, dtype=complex)]
                    + [derivative_multiplier(grid, m) for m in orders])
    mus = [effective_mu(kind, p) for p in rows]
    # the arrays below are made for these transforms, so their checks can go
    irfft = spectral.irfft_unchecked
    rfft = spectral.rfft_unchecked
    # Arrays are stacked row first, so f[r] is u or one of its derivatives.
    # Every view is made here once: making one costs about half an
    # elementwise pass at N = 512.  So is every constant operand (the
    # derivative multipliers, the dealias mask and mu), copied out to the
    # shape and dtype of the output it meets: numpy sets up a broadcast, a
    # scalar or a float-to-complex cast anew on every call, at up to the
    # cost of the call's own arithmetic.  Operands keep their order in the
    # plain expression, since numpy's complex multiply need not give x*y
    # and y*x the same bits.
    mult_rows = np.full((len(mult),) + shape, mult[:, None] if batched else mult)
    mask_full = np.full(shape, grid.dealias, dtype=complex)
    prod = np.empty((len(mult),) + shape, dtype=complex)
    f = np.empty((len(mult),) + row)

    if fifth:
        # w = mu u u - u and the tendency
        #   w (ux + d2 uxxx) + d2 ux ((4 mu u - 2) uxx + mu ux ux)
        # in one call to the C kernel of _tendency.c, which takes every
        # product and sum in the order written.  It reads and writes through
        # the addresses of these arrays, so the closure holds every one.
        kernel = _native.fifth_order_tendency()
        operands = (f, np.array(mus, dtype=float),
                    np.array([p.delta**2 for p in rows], dtype=float),
                    np.empty(row))
        args = tuple(a.ctypes.data for a in operands) + (len(rows), n)

        def tendency():
            kernel(*args)
            return operands[-1]
    else:
        # (mu u u - u) ux
        w = np.empty(row)
        mu_row = np.full(row, _per_row(mus, batched), dtype=float)
        u, ux = f
        if any(mus):
            def tendency():
                np.multiply(mu_row, u, out=w)
                np.multiply(w, u, out=w)
                np.subtract(w, u, out=w)
                return np.multiply(w, ux, out=w)
        else:
            def tendency():
                # with mu = 0 in every row, (mu u) u - u is mu - u bit for
                # bit for every finite u, the zero signs of mu and u included
                np.subtract(mu_row, u, out=w)
                return np.multiply(w, ux, out=w)

    def nonlinear(u_hat):
        if u_hat.shape != shape:
            raise ValueError(f"nonlinear operator built for shape {shape} "
                             f"was given shape {u_hat.shape}")
        np.multiply(u_hat, mult_rows, out=prod)
        irfft(prod, f)
        out = rfft(tendency(), np.empty(shape, dtype=complex))
        np.multiply(out, mask_full, out=out)
        # kept apart from the mask: folding it in can flip a zero's sign
        out[..., 0] = 0.0
        return out

    return nonlinear


def flux(params: ModelParams, u, ux, uxx, uxxxx):
    """Flux F of the fifth-order equation, du/dt = -dF/dx, from samples of
    u and its derivatives:

    F = u^2/2 - mu u^3/3 + delta^2 u_xx + delta^2 (u u_xx + u_x^2/2)
        - delta^2 mu (u^2 u_xx + u u_x^2) + (2/5) delta^4 u_xxxx
    """
    mu = params.mu
    d2 = params.delta**2
    return (0.5 * u * u - mu * u**3 / 3.0 + d2 * uxx
            + d2 * (u * uxx + 0.5 * ux * ux)
            - d2 * mu * (u * u * uxx + u * ux * ux)
            + 0.4 * d2 * d2 * uxxxx)


def conservation_flux(params: ModelParams, grid: Grid, u: np.ndarray) -> np.ndarray:
    """``flux`` of a periodic field, its derivatives taken spectrally."""
    u = grid.check_field(u)
    if not np.all(np.isfinite(u)):
        raise BlowUpError("flux fed a non-finite field")
    return flux(params, u, *(spectral_derivative(grid, u, m) for m in (1, 2, 4)))
