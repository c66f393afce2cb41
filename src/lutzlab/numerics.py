"""Shared quadrature and 1-d search utilities.

Adaptive Simpson (absolute tolerance 1e-11 by default) serves only the
Gray-integral oracle `distance.gray_integral`.  The mollifier's
convolutions and tube volumes use fixed-order Gauss-Legendre panels split
at integrand kinks; the two routes cross-check each other in the test
suite.  A tube volume (`family._integrate_profile_product`) takes order 20
on every panel, guarded by order 12.  The compensator's bump moments and
the ellipsoid's conformal-factor bound are closed forms and take no
quadrature.
`grid_sup` is the one sup refiner: the Gray integrand and the smoothing
bound both take a grid argmax and shrink a bracket around it.  It samples,
so it does not enclose the sup between its samples.
`brentq` is the one bracketed root finder, the resonance polish of
`reeb.resonance_scan`: Brent's method (Brent, *Algorithms for Minimization
without Derivatives*, 1973) step for step as scipy's `brentq` takes it, so
it returns the same float.  The package imports no scipy module; scipy is
a test dependency, where its `brentq` and `solve_ivp` serve as oracles.
This module loads numpy, so the modules that need no float numerics
(`persistence`, `cli`, `errors` and the package root) do not import it;
artifacts format floats with the `.17g` spec, which round-trips every
float and writes infinities as `inf` and `-inf`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

SIMPSON_TOL = 1e-11


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = SIMPSON_TOL, max_depth: int = 48) -> float:
    """Recursive adaptive Simpson on [a, b] with absolute tolerance `tol`.

    Intervals narrower than 1e-12 of the original span are accepted as-is;
    rounding noise cannot be subdivided away.
    """
    if a == b:
        return 0.0
    min_h = 1e-12 * abs(b - a)

    def _simp(x0, x2, f0, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def _rec(x0, x2, f0, f2, whole, x1, f1, eps, depth):
        lm, flm, left = _simp(x0, x1, f0, f1)
        rm, frm, right = _simp(x1, x2, f1, f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps or (x2 - x0) <= min_h:
            return left + right + delta / 15.0
        if depth >= max_depth:
            raise QuadratureFailure(
                f"adaptive Simpson hit depth {max_depth} on [{x0}, {x2}]")
        return (_rec(x0, x1, f0, f1, left, lm, flm, 0.5 * eps, depth + 1)
                + _rec(x1, x2, f1, f2, right, rm, frm, 0.5 * eps, depth + 1))

    fa, fb = f(a), f(b)
    m, fm, whole = _simp(a, b, fa, fb)
    return _rec(a, b, fa, fb, whole, m, fm, tol, 0)


@lru_cache(maxsize=16)
def gauss_legendre(n: int) -> tuple:
    """Nodes and weights on [-1, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_panel_nodes(a: np.ndarray, b: np.ndarray, order: int):
    """Mapped Gauss-Legendre nodes/weights for per-row intervals [a_i, b_i].

    Returns (nodes, weights) of shape (len(a), order); rows with empty
    intervals get zero weights.
    """
    x, w = gauss_legendre(order)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = np.where(half[:, None] > 0.0, half[:, None] * w[None, :], 0.0)
    return nodes, weights


def grid_sup(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
             vals: np.ndarray) -> tuple:
    """(argmax, max) of the vectorised f from its samples `vals` on `xs`:
    four rounds of 33-point bracket shrinking around the grid argmax, each
    16 times narrower; the result is the largest sample seen."""
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    best_x, best_v = float(xs[i]), float(vals[i])
    for _ in range(4):
        rs = np.linspace(lo, hi, 33)
        vv = f(rs)
        j = int(np.argmax(vv))
        if vv[j] > best_v:
            best_x, best_v = float(rs[j]), float(vv[j])
        lo = rs[max(j - 1, 0)]
        hi = rs[min(j + 1, 32)]
    return best_x, best_v


BRENT_RTOL = 4.0 * np.finfo(float).eps
BRENT_MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = 2e-12) -> float:
    """A root of the scalar f in the bracket [a, b] by Brent's method.

    Inverse quadratic interpolation or a secant step where it is short
    enough, bisection otherwise, until half the bracket is below
    (xtol + 4 eps |x|) / 2.  An end where f vanishes is returned as is.
    Raises ValueError when f has the same sign at both ends, returns NaN,
    or the bracket has not closed after 100 iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("f returned NaN at a bracket end")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)       # secant
            else:                                # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"f returned NaN at {xcur!r}")
    raise ValueError(
        f"Brent's method did not converge in {BRENT_MAXITER} iterations")
