"""The package's one scalar root finder: Brent-Dekker on a sign-change bracket.

Brent (1973), *Algorithms for Minimization without Derivatives*, ch. 4:
inverse quadratic interpolation or a secant step whenever it lands well
inside the current bracket, bisection otherwise.  Convergence is
superlinear on smooth functions, and the bisection fallback guarantees it
on any sign-change bracket.

The search is written once, as a generator that yields each point at which
it needs ``f`` and is sent ``f`` there, and driven by one function,
``bracketed_roots``, on one bracket or on many together.
"""

from __future__ import annotations

import math
from typing import Callable, Generator

import numpy as np

from .errors import BracketFailureError

#: relative bracket width at which the search stops (about 4.4e-16)
XTOL = 2.0 * np.finfo(np.float64).eps


def _brent(lo: float, hi: float) -> Generator[float, float, float]:
    """The search on ``[lo, hi]``: yields each point, is sent f there and
    returns the root (see ``bracketed_roots``)."""
    a, b = float(lo), float(hi)
    fa = float((yield a))
    fb = float((yield b))
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
        fb = float((yield b))


def bracketed_roots(f: Callable, brackets) -> list[float]:
    """The root of ``f`` in each ``(lo, hi)`` of ``brackets``, where
    ``f(lo)`` and ``f(hi)`` differ in sign, from one call of ``f`` per round
    on the array of every open bracket's next point.

    Each end is evaluated once.  An end where ``f`` is exactly 0 is
    returned as is; otherwise the root is the end of a sign-change bracket
    of width at most ``XTOL * |root|`` at which ``|f|`` is smaller.  ``f``
    must give an element of an array call the bits of its float call, so
    each root is the one its bracket gives alone.  The last open search,
    and so a single bracket, passes only floats to ``f``.  Raises the
    BracketFailureError of the first bracket, in order, whose ends have
    the same sign.
    """
    searches = [_brent(lo, hi) for lo, hi in brackets]
    roots = [0.0] * len(searches)
    points = [next(search) for search in searches]
    open_ = list(range(len(searches)))
    while open_:
        values = f(np.array(points)).tolist() if len(open_) > 1 else [f(points[0])]
        still_open, points = [], []
        for i, value in zip(open_, values):
            try:
                points.append(searches[i].send(value))
                still_open.append(i)
            except StopIteration as done:
                roots[i] = done.value
        open_ = still_open
    return roots
