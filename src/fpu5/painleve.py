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

from .errors import DomainError
from .params import ModelParams

# monomials of the dominant-balance equation: (prefactor builder, derivative
# orders of the factors); prefactors are exact in Fraction(mu), Fraction(delta)
_TERMS = (
    (lambda mu, d: -mu * d**2 / 2, (0, 0, 1, 1)),
    (lambda mu, d: Fraction(2, 5) * d**4, (1, 3)),
    (lambda mu, d: Fraction(-1, 5) * d**4, (2, 2)),
)


# how far a float Fuchs index may sit from -1, the real axis or an integer
VERDICT_TOL = 1e-9


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


def _derivative_factor(n: int) -> Fraction:
    """(-1)^n n!: v^(n) = (-1)^n n! a0 z^(-1-n) for v = a0/z."""
    return Fraction((-1) ** n * math.factorial(n))


def _substitute_pole(params: ModelParams):
    """Substitute v = a0/z into each ``_TERMS`` monomial, exactly.

    A term with derivative orders (n_1, ..., n_d) becomes c a0^d
    z^-(d + n_1 + ... + n_d), with c its prefactor times
    prod_i (-1)^n_i n_i!.  Returns the (orders, c) of each term and the
    balance's a0^2 = 16 d^2 / (5 mu).
    """
    if not params.mu > 0:
        raise DomainError("the balance requires mu > 0")
    mu_f = Fraction(params.mu)
    d_f = Fraction(params.delta)
    terms = [(orders, pref(mu_f, d_f)
              * math.prod(_derivative_factor(n) for n in orders))
             for pref, orders in _TERMS]
    return terms, Fraction(16, 5) * d_f**2 / mu_f


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
    terms, a0_sq = _substitute_pole(params)
    p = _balance_pole_order()
    # with p = 1 the quartic term contributes -(mu d^2/2) a0^4 and the
    # quadratic ones ((12-4)/5) d^4 a0^2
    quartic = sum(c for orders, c in terms if len(orders) == 4)
    quadratic = sum(c for orders, c in terms if len(orders) == 2)
    assert -quadratic / quartic == a0_sq
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


def _indicial_polynomial(terms, a0_sq: Fraction, branch: int) -> list[Fraction]:
    """Monic indicial polynomial for one a0 branch, exact rationals."""
    # the z-power of each term is j - (d + n_1 + ... + n_d)
    if len({len(orders) + sum(orders) for orders, _ in terms}) != 1:
        raise AssertionError("terms do not share a common z power")
    total = [Fraction(0)] * (1 + max(max(orders) for orders, _ in terms))
    for orders, term_coef in terms:
        a0_power = len(orders) - 1
        if a0_power % 2 == 0:
            raise AssertionError("expected an odd leftover power of a0")
        # the odd a0 power flips with the branch sign
        base = term_coef * a0_sq ** ((a0_power - 1) // 2) * branch
        for n in orders:
            # the perturbed factor gives the falling factorial in place of
            # its (-1)^n n!
            coef = base / _derivative_factor(n)
            for idx, c in enumerate(_falling_factor_poly(n)):
                total[idx] += coef * c
    while total and total[-1] == 0:
        total.pop()
    return [c / total[-1] for c in reversed(total)]


def fuchs_indices(params: ModelParams) -> FuchsResult:
    """Indicial polynomial and its roots; mu and delta must cancel exactly."""
    terms, a0_sq = _substitute_pole(params)
    monic = _indicial_polynomial(terms, a0_sq, +1)
    if _indicial_polynomial(terms, a0_sq, -1) != monic:
        raise AssertionError("the two a0 branches disagree on the indices")
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


def painleve_verdict(indices) -> tuple[bool, str]:
    """Generic index test: besides one -1, all must be nonnegative integers
    (each to within VERDICT_TOL)."""
    values = [complex(j) for j in indices]
    universal = [j for j in values if abs(j - (-1.0)) <= VERDICT_TOL]
    if not universal:
        return False, "missing the universal index -1"
    rest = list(values)
    rest.remove(universal[0])
    for j in rest:
        if abs(j.imag) > VERDICT_TOL:
            return False, "complex Fuchs indices"
        r = j.real
        if abs(r - round(r)) > VERDICT_TOL:
            return False, "non-integer Fuchs index"
        if round(r) < 0:
            return False, "negative Fuchs index"
    return True, "all indices beyond -1 are nonnegative integers"


def leading_coefficient_residual(params: ModelParams) -> Fraction:
    """Exact coefficient of the leading z power after substituting v = a0/z.

    Zero by construction of the balance; exposed so tests can assert it
    identically rather than numerically.
    """
    terms, a0_sq = _substitute_pole(params)
    return sum(c * a0_sq ** (len(orders) // 2) for orders, c in terms)
