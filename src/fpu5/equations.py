"""Linear symbols, nonlinear tendencies, and the conservation-form flux.

Each equation is split as u_t = symbol*u + N(u): the two constant-coefficient
linear terms (third and, for the fifth-order family, fifth derivative) go
into the per-mode symbol and everything u-dependent is treated explicitly,
for every kind in one call to the compiled kernel (``_native``).
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
    # a (B, 1) column for a sequence, a scalar for one parameter set
    d2 = np.array([[p.delta**2] for p in rows]) if batched else params.delta**2
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
    is masked again.  The tendency of every kind is one call to the C
    kernel of ``_tendency.c``, which ``_native`` builds on first use with
    the interpreter's C compiler and caches; ``_native.tendency`` makes the
    real-space arrays it reads and writes.  It takes each product and sum
    in the order of the plain numpy expression, so its bits are numpy's.
    With no working compiler, building an operator of any kind raises
    ImportError.  The mode-0 component is zeroed: the tendency is an
    exact x-derivative, so its mean vanishes identically and zeroing
    removes the aliasing residue of the cubic terms.

    The operator takes u_hat of one shape, the shape ``linear_symbol``
    gives for the same parameters: (N//2 + 1,) for one parameter set,
    (B, N//2 + 1) for a sequence of B, row b stepping under the b-th set.
    Any other shape raises ValueError.  It returns a fresh array on every
    call and never writes into u_hat.  Its work arrays, made once when it
    is built, are shared by all calls, so one operator is not reentrant and must not
    be called from two threads at once.
    """
    rows, batched = _rows(params)
    h = grid.k.size
    shape = (len(rows), h) if batched else (h,)
    fifth = kind in FIFTH_ORDER
    orders = (1, 2, 3) if fifth else (1,)
    mult = np.stack([np.ones(h, dtype=complex)]
                    + [derivative_multiplier(grid, m) for m in orders])
    # the transforms' inputs are made here with their shapes and dtypes
    # fixed, so their checks can go
    irfft = spectral.irfft_unchecked
    rfft = spectral.rfft_unchecked
    # Every constant operand (the derivative multipliers and the dealias
    # mask) is copied out once to the shape and dtype of the output it
    # meets: numpy sets up a broadcast, a scalar or a float-to-complex cast
    # anew on every call, at up to the cost of the call's own arithmetic.
    # Operands keep their order in the plain expression, since numpy's
    # complex multiply need not give x*y and y*x the same bits.  The
    # stacked rows are u and its derivatives, f[r] the r-th of them.
    mult_rows = np.full((len(mult),) + shape, mult[:, None] if batched else mult)
    mask_full = np.full(shape, grid.dealias, dtype=complex)
    f, tendency, kernel = _native.tendency(
        fifth, [effective_mu(kind, p) for p in rows],
        [p.delta**2 for p in rows], shape[:-1], grid.n)

    def nonlinear(u_hat):
        if u_hat.shape != shape:
            raise ValueError(f"nonlinear operator built for shape {shape} "
                             f"was given shape {u_hat.shape}")
        irfft(u_hat * mult_rows, f)
        kernel()
        out = rfft(tendency)
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
