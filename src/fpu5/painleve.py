"""Pole-order balance and Fuchs indices of the travelling-wave reduction.

The dominant-balance equation of the third-order reduced ODE has three
monomial terms:

    -(mu d^2 / 2) v^2 v'^2  +  (2/5) d^4 v' v'''  -  (1/5) d^4 v''^2

Substituting v = a0 z^-p balances every term at the same power of z only for
p = 1, which fixes a0^2 = 16 d^2 / (5 mu).  The Fuchs indices come from the
coefficient linear in the perturbation of v = a0/z + eps z^(j-1); that
coefficient is assembled here with exact rational arithmetic (float inputs
are converted to exact binary fractions first), so the (mu, delta)
cancellation in the indicial polynomial is checked identically, not to
roundoff.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .params import ModelParams

# monomials of the dominant-balance equation: (prefactor builder, derivative
# orders of the factors); prefactors are exact in Fraction(mu), Fraction(delta)
_TERMS = (
    (lambda mu, d: -mu * d**2 / 2, (0, 0, 1, 1)),
    (lambda mu, d: Fraction(2, 5) * d**4, (1, 3)),
    (lambda mu, d: Fraction(-1, 5) * d**4, (2, 2)),
)


@dataclass(frozen=True)
class LeadingBalance:
    pole_order: int
    coefficients: tuple[float, float]  # the two branches of a0


@dataclass(frozen=True)
class FuchsResult:
    indicial_coefficients: tuple[Fraction, ...]  # monic, highest degree first
    indices: tuple[complex, ...]
    passes: bool
    reason: str


def _check_params(params: ModelParams):
    if not params.mu > 0:
        raise DomainError("the balance requires mu > 0")
    if not params.delta > 0:
        raise DomainError("the balance requires delta > 0")


def _balance_pole_order() -> int:
    """Equate the z-exponents of the monomials under v ~ z^-p.

    A product of factors v^(n_i) scales as z^(-(d*p + s)) with d the number
    of factors and s the total derivative count, so each term contributes a
    line in p; all lines must meet at a single positive integer p.
    """
    lines = {(len(orders), sum(orders)) for _, orders in _TERMS}
    (d1, s1), (d2, s2) = sorted(lines)
    p = Fraction(s1 - s2, d2 - d1)
    for d, s in lines:
        assert d * p + s == d1 * p + s1
    if p != int(p) or p <= 0:
        raise AssertionError("balance did not produce a positive integer pole order")
    return int(p)


def leading_balance(params: ModelParams) -> LeadingBalance:
    """Pole order and the two branch coefficients of v ~ a0 / z."""
    _check_params(params)
    p = _balance_pole_order()
    # with p = 1: v^(n) base coefficient is (-1)^n n! a0, so the quartic term
    # contributes -(mu d^2/2) a0^4 and the quadratic ones ((12-4)/5) d^4 a0^2
    mu_f = Fraction(params.mu)
    d_f = Fraction(params.delta)
    quartic = Fraction(0)
    quadratic = Fraction(0)
    for pref, orders in _TERMS:
        coef = pref(mu_f, d_f)
        for n in orders:
            coef *= Fraction((-1) ** n * math.factorial(n))
        if len(orders) == 4:
            quartic += coef
        else:
            quadratic += coef
    a0_sq = -quadratic / quartic
    assert a0_sq == Fraction(16, 5) * d_f**2 / mu_f
    a0 = math.sqrt(a0_sq)
    return LeadingBalance(pole_order=p, coefficients=(a0, -a0))


def _falling_factor_poly(n: int) -> list[Fraction]:
    """Coefficients (low to high) of prod_{r=1..n} (j - r)."""
    poly = [Fraction(1)]
    for r in range(1, n + 1):
        shifted = [Fraction(0)] + poly            # j * poly
        scaled = [c * Fraction(-r) for c in poly] + [Fraction(0)]
        poly = [a + b for a, b in zip(scaled, shifted)]
    return poly


def _indicial_polynomial(params: ModelParams, branch: int) -> list[Fraction]:
    """Monic indicial polynomial for one a0 branch, exact rationals."""
    mu_f = Fraction(params.mu)
    d_f = Fraction(params.delta)
    a0_sq = Fraction(16, 5) * d_f**2 / mu_f
    total: list[Fraction] = []
    z_exponent_shift = None
    for pref, orders in _TERMS:
        shift = len(orders) + sum(orders)  # z-power is j - shift for each term
        if z_exponent_shift is None:
            z_exponent_shift = shift
        elif shift != z_exponent_shift:
            raise AssertionError("terms do not share a common z power")
        base = pref(mu_f, d_f)
        for i, n in enumerate(orders):
            coef = base
            for m_idx, n_other in enumerate(orders):
                if m_idx != i:
                    coef *= Fraction((-1) ** n_other * math.factorial(n_other))
            a0_power = len(orders) - 1
            if a0_power % 2 == 0:
                raise AssertionError("expected an odd leftover power of a0")
            coef *= a0_sq ** ((a0_power - 1) // 2)
            if branch < 0:
                coef = -coef  # odd a0 power flips with the branch sign
            poly = [coef * c for c in _falling_factor_poly(n)]
            if len(poly) > len(total):
                total += [Fraction(0)] * (len(poly) - len(total))
            for idx, c in enumerate(poly):
                total[idx] += c
    while total and total[-1] == 0:
        total.pop()
    lead = total[-1]
    monic = [c / lead for c in reversed(total)]
    return monic


def fuchs_indices(params: ModelParams) -> FuchsResult:
    """Indicial polynomial and its roots; mu and delta must cancel exactly."""
    _check_params(params)
    monic_plus = _indicial_polynomial(params, +1)
    monic_minus = _indicial_polynomial(params, -1)
    if monic_plus != monic_minus:
        raise AssertionError("the two a0 branches disagree on the indices")
    monic = monic_plus
    if len(monic) != 4:
        raise AssertionError("indicial polynomial should have degree 3")
    # universal resonance at j = -1, checked identically
    at_minus_one = sum(c * Fraction(-1) ** (3 - i) for i, c in enumerate(monic))
    if at_minus_one != 0:
        raise AssertionError("j = -1 is not a root of the indicial polynomial")
    # synthetic division by (j + 1) leaves the quadratic factor
    b = monic[1] - 1
    c = monic[2] - b
    assert monic[3] - c == 0
    disc = b * b - 4 * c
    sq = cmath.sqrt(float(disc))
    roots = (-1.0 + 0.0j, (-float(b) + sq) / 2.0, (-float(b) - sq) / 2.0)
    passes, reason = painleve_verdict(roots)
    return FuchsResult(indicial_coefficients=tuple(monic), indices=roots,
                       passes=passes, reason=reason)


def painleve_verdict(indices, tol: float = 1e-9) -> tuple[bool, str]:
    """Generic index test: besides one -1, all must be nonnegative integers."""
    values = [complex(j) for j in indices]
    universal = [j for j in values if abs(j - (-1.0)) <= tol]
    if not universal:
        return False, "missing the universal index -1"
    rest = list(values)
    rest.remove(universal[0])
    for j in rest:
        if abs(j.imag) > tol:
            return False, "complex Fuchs indices"
        r = j.real
        if abs(r - round(r)) > tol:
            return False, "non-integer Fuchs index"
        if round(r) < 0:
            return False, "negative Fuchs index"
    return True, "all indices beyond -1 are nonnegative integers"


def leading_coefficient_residual(params: ModelParams) -> Fraction:
    """Exact coefficient of the leading z power after substituting v = a0/z.

    Zero by construction of the balance; exposed so tests can assert it
    identically rather than numerically.
    """
    _check_params(params)
    mu_f = Fraction(params.mu)
    d_f = Fraction(params.delta)
    a0_sq = Fraction(16, 5) * d_f**2 / mu_f
    total = Fraction(0)
    for pref, orders in _TERMS:
        coef = pref(mu_f, d_f)
        for n in orders:
            coef *= Fraction((-1) ** n * math.factorial(n))
        coef *= a0_sq ** (len(orders) // 2)
        total += coef
    return total
