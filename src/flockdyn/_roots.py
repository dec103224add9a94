"""The package's one scalar root finder: Brent-Dekker on a sign-change bracket.

Brent (1973), *Algorithms for Minimization without Derivatives*, ch. 4:
inverse quadratic interpolation or a secant step whenever it lands well
inside the current bracket, bisection otherwise.  Convergence is
superlinear on smooth functions, and the bisection fallback guarantees it
on any sign-change bracket.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketFailureError

#: relative bracket width at which the search stops (about 4.4e-16)
XTOL = 2.0 * np.finfo(np.float64).eps


def bracketed_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` in ``[lo, hi]``, where ``f(lo)`` and ``f(hi)`` differ in sign.

    Each endpoint is evaluated once.  An endpoint where ``f`` is exactly 0 is
    returned as is; otherwise the result is the end of a sign-change bracket
    of width at most ``XTOL * |root|`` at which ``|f|`` is smaller.  Raises
    BracketFailureError when ``f(lo)`` and ``f(hi)`` have the same sign.
    """
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketFailureError(
            f"no sign change on ({lo:.6g}, {hi:.6g}): f = {fa:.3e}, {fb:.3e}"
        )
    # invariant: the root lies between b (best estimate) and c; a is the
    # previous b
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * XTOL * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through (a, b, c)
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = float(f(b))
