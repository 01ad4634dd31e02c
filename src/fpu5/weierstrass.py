"""Real-line Weierstrass elliptic function and its degenerate closed form.

The evaluator factors 4t^3 - g2 t - g3, reduces to Jacobi elliptic functions
and gets sn/cn/dn from scipy's ellipj (Landen-style iteration under the
hood).  Three regimes:

* three real roots e1 >= e2 >= e3 (positive discriminant):
      p(z)  = e3 + (e1 - e3) / sn(w, m)^2,          w = z sqrt(e1 - e3),
      p'(z) = -2 (e1 - e3)^{3/2} cn dn / sn^3,      m = (e2 - e3)/(e1 - e3)
* one real root e (negative discriminant), with h^2 = 3e^2 - g2/4:
      p(z)  = e + h (1 + cn(w, m)) / (1 - cn(w, m)), w = 2 z sqrt(h),
      p'(z) = -4 h^{3/2} sn dn / (1 - cn)^2,         m = 1/2 - 3e/(4h)
* g2 = g3 = 0: p = 1/z^2 exactly.

Poles sit at integer multiples of the real period; evaluation is refused
within ``POLE_THRESHOLD`` of one.

``scipy.special`` is imported by the methods that call it, not with this
module: it takes about 260 ms to import, against about 135 ms for numpy and
the whole package, so ``import fpu5`` and every run that evaluates no
elliptic function start without it.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, PoleError

POLE_THRESHOLD = 1e-8

# discriminants within this relative band are treated as exactly degenerate
_DEGENERATE_BAND = 1e-11


def _classify_cubic(g2: float, g3: float):
    """Roots of 4t^3 - g2 t - g3 grouped by the sign of g2^3 - 27 g3^2.

    Returns ("three", (e1, e2, e3)) with e1 >= e2 >= e3 (repeats allowed)
    or ("one", e) for a single real root.  Raises DomainError when
    g2^3 - 27 g3^2 is not a finite double, as for a non-finite g2 or g3.
    """
    try:
        disc = g2**3 - 27.0 * g3**2
    except OverflowError:
        disc = np.inf
    if not np.isfinite(disc):
        raise DomainError(f"invariants g2 = {g2!r}, g3 = {g3!r}: g2^3 - 27 g3^2 "
                          "is not a finite double")
    scale = max(abs(g2) ** 3, 27.0 * g3**2)
    if scale == 0.0:
        return "three", (0.0, 0.0, 0.0)
    # depressed form t^3 + p t + q
    p = -g2 / 4.0
    q = -g3 / 4.0
    if abs(disc) <= _DEGENERATE_BAND * scale:
        a = np.cbrt(q / 2.0)  # double root a, simple root -2a
        roots = sorted([a, a, -2.0 * a], reverse=True)
        return "three", tuple(roots)
    if disc > 0.0:
        # three distinct real roots; p < 0 is guaranteed here
        r = 2.0 * np.sqrt(-p / 3.0)
        arg = np.clip(3.0 * q / (p * r), -1.0, 1.0)
        theta = np.arccos(arg)
        roots = [r * np.cos((theta - 2.0 * np.pi * kk) / 3.0) for kk in range(3)]
        roots.sort(reverse=True)
        return "three", tuple(roots)
    s = np.sqrt(-disc / 1728.0)
    e = np.cbrt(g3 / 8.0 + s) + np.cbrt(g3 / 8.0 - s)
    return "one", e


class WeierstrassP:
    """Evaluator for p(z; g2, g3) and its derivative on the real line."""

    def __init__(self, g2: float, g3: float):
        from scipy.special import ellipk

        self.g2 = float(g2)
        self.g3 = float(g3)
        case, roots = _classify_cubic(self.g2, self.g3)
        self.case = case
        if case == "three":
            e1, e2, e3 = roots
            self.roots = roots
            span = e1 - e3
            if span == 0.0:
                # fully degenerate lattice: p(z) = 1/z^2
                self.case = "trivial"
                self.period = np.inf
                return
            self.span = span
            self.scale = np.sqrt(span)
            self.m = min(max((e2 - e3) / span, 0.0), 1.0)
            quarter = float(ellipk(self.m))
            self.period = np.inf if not np.isfinite(quarter) else 2.0 * quarter / self.scale
        else:
            e = roots
            self.roots = (e,)
            h = np.sqrt(3.0 * e * e - self.g2 / 4.0)
            self.h = h
            self.scale = 2.0 * np.sqrt(h)
            self.m = min(max(0.5 - 3.0 * e / (4.0 * h), 0.0), 1.0)
            quarter = float(ellipk(self.m))
            self.period = np.inf if not np.isfinite(quarter) else 2.0 * quarter / np.sqrt(h)

    def pole_distance(self, z):
        """Distance from z to the nearest real pole of p."""
        z = np.asarray(z, dtype=float)
        if np.isfinite(self.period):
            return np.abs(z - self.period * np.round(z / self.period))
        return np.abs(z)

    def _check_poles(self, z):
        dist = self.pole_distance(z)
        dmin = float(np.min(dist))
        if dmin < POLE_THRESHOLD:
            raise PoleError(
                f"evaluation {dmin:.3e} away from a pole of the elliptic function",
                distance=dmin)

    def __call__(self, z):
        """Return (p, p') at real z (scalar or array)."""
        from scipy.special import ellipj

        z = np.asarray(z, dtype=float)
        self._check_poles(z)
        if self.case == "trivial":
            p = z**-2.0
            return p, -2.0 * z**-3.0
        if self.case == "three":
            e1, e2, e3 = self.roots
            w = self.scale * z
            sn, cn, dn, _ = ellipj(w, self.m)
            p = e3 + self.span / sn**2
            pp = -2.0 * self.span * self.scale * cn * dn / sn**3
            return p, pp
        (e,) = self.roots
        w = self.scale * z
        sn, cn, dn, _ = ellipj(w, self.m)
        den = 1.0 - cn
        p = e + self.h * (1.0 + cn) / den
        pp = -4.0 * self.h * np.sqrt(self.h) * sn * dn / den**2
        return p, pp


def degenerate_p(z, g3: float):
    """Closed form of p(z; 3 g3^(2/3), g3) for g3 > 0.

    At these invariants the cubic has a double root and the function
    collapses to g3^(1/3) + (3/2) g3^(1/3) cot^2(sqrt(3/2) g3^(1/6) z),
    with the pole of p at z = 0 carried by the cotangent.
    """
    if not g3 > 0:
        raise DomainError("degenerate closed form needs g3 > 0")
    z = np.asarray(z, dtype=float)
    a = np.cbrt(g3)
    c = np.sqrt(1.5) * g3 ** (1.0 / 6.0)
    pole_spacing = np.pi / c  # cot^2 poles, and the real period of p here
    dist = np.abs(z - pole_spacing * np.round(z / pole_spacing))
    dmin = float(np.min(dist))
    if dmin < POLE_THRESHOLD:
        raise PoleError(
            f"evaluation {dmin:.3e} away from a cotangent pole", distance=dmin)
    return a + 1.5 * a / np.tan(c * z) ** 2
