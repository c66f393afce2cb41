"""Shared quadrature and 1-d search utilities.

Adaptive Simpson is the workhorse scalar quadrature (absolute tolerance
1e-11 by default).  Convolution tables use fixed-order Gauss-Legendre
panels split at integrand kinks; the two routes cross-check each other in
the test suite.
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f: Callable[[float], float], a: float, b: float,
               tol: float = 1e-12) -> tuple:
    """Golden-section maximisation on [a, b]; returns (argmax, max)."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def grid_argmax_refined(f_grid: Callable[[np.ndarray], np.ndarray],
                        a: float, b: float, n: int,
                        tol: float = 1e-12) -> tuple:
    """Dense-grid argmax followed by golden-section refinement.

    `f_grid` must accept a numpy array and return element-wise values.
    """
    rs = np.linspace(a, b, n)
    vals = f_grid(rs)
    i = int(np.argmax(vals))
    lo = rs[max(i - 1, 0)]
    hi = rs[min(i + 1, n - 1)]
    if hi <= lo:
        return float(rs[i]), float(vals[i])
    x, fx = golden_max(lambda r: float(f_grid(np.array([r]))[0]), lo, hi, tol=tol)
    if vals[i] > fx:
        return float(rs[i]), float(vals[i])
    return x, fx


def format_float(x: float) -> str:
    """17-significant-digit, locale-free float formatting for artifacts."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return f"{x:.17g}"
