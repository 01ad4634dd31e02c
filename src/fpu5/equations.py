"""Linear symbols, nonlinear tendencies, and the conservation-form flux.

Each equation is split as u_t = symbol*u + N(u): the two constant-coefficient
linear terms (third and, for the fifth-order family, fifth derivative) go
into the per-mode symbol and everything u-dependent is treated explicitly,
for every kind in one call to the compiled pass (``_native``).
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


def _terms(kind: EquationKind, params, grid: Grid):
    """What the tendency of kind takes besides the state: the state's
    shape, the rows [1, ik, (ik)^2, (ik)^3] of the stacked transform (two
    rows for the third-order kinds), the derivatives' carrying the 2/3
    mask, and one mu and one delta^2 per parameter set."""
    rows, batched = _rows(params)
    h = grid.k.size
    orders = (1, 2, 3) if kind in FIFTH_ORDER else (1,)
    mult = np.stack([np.ones(h, dtype=complex)]
                    + [derivative_multiplier(grid, m) for m in orders])
    return ((len(rows), h) if batched else (h,), mult,
            [effective_mu(kind, p) for p in rows], [p.delta**2 for p in rows])


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

    Each call is one call of ``fpu5_nonlinear``, the pass of every stage
    of ``make_if_rk4``'s loop, through ``_native.loop``; ``_native``
    builds ``_tendency.c`` on first use and caches it, and with no working
    compiler building an operator raises ImportError.  ETDRK4 runs and
    ``IntegratingFactorRK4.step`` step with it; its numpy reference, the
    same pipeline written out, lives in the tests.

    The operator takes u_hat of one shape, the shape ``linear_symbol``
    gives for the same parameters: (N//2 + 1,) for one parameter set,
    (B, N//2 + 1) for a sequence of B, row b stepping under the b-th set.
    Any other shape raises ValueError.  It returns a fresh array on every
    call and never writes into u_hat.  Its work arrays, made once when it
    is built, are shared by all calls, so one operator is not reentrant and must not
    be called from two threads at once.
    """
    shape, mult, mu, d2 = _terms(kind, params, grid)
    return _native.loop(shape, mult, grid.dealias, mu, d2)


def make_if_rk4(kind: EquationKind,
                params: ModelParams | Sequence[ModelParams], grid: Grid,
                dt: float):
    """``advance(u_hat, steps)``: the state ``steps`` IF-RK4 steps of dt on
    from u_hat, as a fresh array, in one call to the compiled loop of
    ``_tendency.c``; u_hat is not written.  Each step has the bits of
    ``IntegratingFactorRK4(linear_symbol(...), make_nonlinear_operator(...),
    dt).step`` for the same arguments, and u_hat the shape of that symbol:
    each stage makes the operator's pass, on a block ``_native.loop``
    makes.  The tests hold it to that step with the operator's numpy
    reference.  Like the operator, one loop is not reentrant.
    """
    shape, mult, mu, d2 = _terms(kind, params, grid)
    e_half, e_full = spectral.integrating_factors(
        linear_symbol(kind, params, grid), dt)
    return _native.loop(shape, mult, grid.dealias, mu, d2, e_half, e_full, dt)


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
