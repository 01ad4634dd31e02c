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

from . import spectral
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
    is masked again.  The mode-0 component is zeroed: the tendency is an
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
    mu = _per_row(mus, batched)
    delta2 = _per_row([p.delta**2 for p in rows], batched)
    # the arrays below are made for these transforms, so their checks can go
    irfft = spectral.irfft_unchecked
    rfft = spectral.rfft_unchecked
    # Arrays are stacked row first, so f[r] is u or one of its derivatives.
    # Every view is made here once: making one costs about half an
    # elementwise pass at N = 512.  So is every constant operand (the
    # derivative multipliers, the dealias mask, mu, delta^2, 4 mu and 2),
    # copied out to the shape and dtype of the output it meets: numpy sets
    # up a broadcast, a scalar or a float-to-complex cast anew on every
    # call, at up to the cost of the call's own arithmetic.  Operands keep
    # their order in the plain expression, since numpy's complex multiply
    # need not give x*y and y*x the same bits.
    mult_rows = np.full((len(mult),) + shape, mult[:, None] if batched else mult)
    mask_full = np.full(shape, grid.dealias, dtype=complex)
    prod = np.empty((len(mult),) + shape, dtype=complex)
    f = np.empty((len(mult),) + row)

    if fifth:
        # w = mu u u - u and the tendency
        #   w (ux + d2 uxxx) + d2 ux ((4 mu u - 2) uxx + mu ux ux),
        # every product and sum taken in the order written; adjacent rows
        # of t that meet the same operation are done in one call
        t = np.empty((7,) + row)
        mu_both = np.full((2,) + row, mu, dtype=float)
        d2 = np.full(row, delta2, dtype=float)
        mu4 = np.full(row, 4.0 * mu, dtype=float)
        two = np.full(row, 2.0, dtype=float)
        u, ux, uxx, uxxx = f
        u_ux = f[:2]
        d2ux, w, muxux, j, b, g, d2uxxx = t
        mu_pair, d2ux_w, j_b = t[1:3], t[:2], t[3:5]

        def tendency():
            np.multiply(mu_both, u_ux, out=mu_pair)     # mu u, mu ux
            np.multiply(d2, ux, out=d2ux)
            np.multiply(d2, uxxx, out=d2uxxx)
            np.multiply(mu4, u, out=g)
            np.multiply(mu_pair, u_ux, out=mu_pair)     # mu u u, mu ux ux
            np.subtract(w, u, out=w)
            np.subtract(g, two, out=g)
            np.multiply(g, uxx, out=g)
            np.add(ux, d2uxxx, out=b)
            np.add(g, muxux, out=j)
            np.multiply(d2ux_w, j_b, out=j_b)           # d2 ux j, w b
            return np.add(b, j, out=b)
    else:
        # (mu u u - u) ux
        w = np.empty(row)
        mu_row = np.full(row, mu, dtype=float)
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


def _require_finite(values: np.ndarray, message: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise BlowUpError(message)
    return values


def _physical(grid: Grid, u: np.ndarray, spectral_rhs) -> np.ndarray:
    """irfft(spectral_rhs(rfft(u))) for a checked, finite field u.

    Raises ``BlowUpError`` for a non-finite field or result.
    """
    u = _require_finite(grid.check_field(u),
                        "nonlinear tendency fed a non-finite field")
    return _require_finite(
        spectral.irfft(spectral_rhs(spectral.rfft(u)), grid.n),
        "nonlinear tendency became non-finite")


def nonlinear_rhs(kind: EquationKind, params: ModelParams, grid: Grid,
                  u: np.ndarray) -> np.ndarray:
    """Physical-space nonlinear tendency du/dt (linear terms excluded).

    Raises ``BlowUpError`` for a non-finite field or result.
    """
    return _physical(grid, u, make_nonlinear_operator(kind, params, grid))


def full_rhs(kind: EquationKind, params: ModelParams, grid: Grid,
             u: np.ndarray) -> np.ndarray:
    """Complete du/dt, linear plus nonlinear, in physical space.

    Raises ``BlowUpError`` for a non-finite field or result, as
    ``nonlinear_rhs`` does.
    """
    lam = linear_symbol(kind, params, grid)
    op = make_nonlinear_operator(kind, params, grid)
    return _physical(grid, u, lambda u_hat: lam * u_hat + op(u_hat))


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
    u = _require_finite(grid.check_field(u), "flux fed a non-finite field")
    return flux(params, u, *(spectral_derivative(grid, u, m) for m in (1, 2, 4)))
