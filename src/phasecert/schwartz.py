"""Rapidly decaying test functions and their Fourier transforms.

Convention:  Fu(xi) = integral e^{-i t xi} u(t) dt,  with the inverse
carrying the 1/(2 pi) factor.  Under it the Gaussian exp(-t^2/2) maps to
sqrt(2 pi) exp(-xi^2/2) and the Hermite functions h_j = H_j(t) e^{-t^2/2}
are eigenfunctions with eigenvalue sqrt(2 pi) (-i)^j.

The catalog carries closed-form transforms; the numeric paths (full-line
and half-line) are panel quadratures with oscillation-resolving panel
counts, used both as fallbacks and as cross-oracles for the analytic
formulas.  Half-line transforms of smooth decaying functions fall off to
first order at infinity; measured_decay_exponent fits that exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .quadrature import Oscillatory, integrate_fixed
from .symbols import loglog_fit

SQRT_2PI = math.sqrt(2.0 * math.pi)
SUPPORT_TOL = 1e-18     # |u| below this counts as outside its support
FT_PHASE = ex.neg(ex.mul(ex.var("t"), ex.var("xi")))    # -t xi, of Fu


@dataclass
class SchwartzFn:
    """A test function given in closed form on the line (or half-line).

    analytic_ft / analytic_half_ft are optional closed-form transforms.
    """

    name: str
    expr: ex.Expr
    analytic_ft: object | None = None
    analytic_half_ft: object | None = None

    def __call__(self, t):
        return ex.eval_array(self.expr, {"t": np.asarray(t, dtype=float)})

    def ft_radius(self, tol: float = 1e-16,
                  weight_order: float = 0.0) -> float:
        """Smallest radius, at most 120, beyond which the (weighted)
        transform modulus stays below tol; used to truncate frequency
        integrals."""
        xi = np.linspace(0.0, 120.0, 1201)
        vals = np.abs(self.ft_values(xi))
        w = (1.0 + xi * xi) ** (max(weight_order, 0.0) / 2.0)
        g = vals * w
        above = np.nonzero(g > tol)[0]
        if len(above) == 0:
            return 4.0
        return float(min(120.0, xi[above[-1]] + 2.0))

    def ft_values(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.analytic_ft is not None:
            return self.analytic_ft(xi)
        return fourier_transform(self, xi)

    def half_ft_values(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.analytic_half_ft is not None:
            return self.analytic_half_ft(xi)
        return half_line_ft(self, xi)


def _hermite_poly_expr(j: int, t: ex.Expr) -> ex.Expr:
    hm2, hm1 = ex.const(1.0), ex.mul(ex.const(2.0), t)
    if j == 0:
        return hm2
    if j == 1:
        return hm1
    for n in range(1, j):
        cur = ex.sub(ex.mul(ex.const(2.0), t, hm1),
                     ex.mul(ex.const(2.0 * n), hm2))
        hm2, hm1 = hm1, cur
    return hm1


def hermite_fn(j: int) -> SchwartzFn:
    """h_j(t) = H_j(t) exp(-t^2/2) with its eigenfunction transform."""
    t = ex.var("t")
    gauss = ex.exp_(ex.neg(ex.quot(ex.mul(t, t), ex.const(2.0))))
    expr = ex.mul(_hermite_poly_expr(j, t), gauss)

    def ft(xi, _j=j):
        hj = ex.eval_array(expr, {"t": np.asarray(xi, dtype=float)})
        return SQRT_2PI * (-1j) ** _j * hj

    return SchwartzFn(f"h{j}", expr, analytic_ft=ft)


def exp_decay() -> SchwartzFn:
    """u(t) = exp(-t), used on the half-line; F(e+ u)(xi) = 1/(1 + i xi)."""
    expr = ex.exp_(ex.neg(ex.var("t")))

    def half_ft(xi):
        return 1.0 / (1.0 + 1j * np.asarray(xi, dtype=float))

    return SchwartzFn("exp-decay", expr, analytic_half_ft=half_ft)


def catalog() -> dict[str, SchwartzFn]:
    out = {f"h{j}": hermite_fn(j) for j in range(5)}
    out["exp-decay"] = exp_decay()
    return out


def _support_radius(u: SchwartzFn) -> float:
    t = np.linspace(0.0, 45.0, 901)
    vals = np.maximum(np.abs(u(t)), np.abs(u(-t)))
    above = np.nonzero(vals > SUPPORT_TOL)[0]
    if len(above) == 0:
        return 1.0
    return float(t[above[-1]] + 1.0)


def _panel_ft(u: SchwartzFn, xi, half_line: bool):
    """integral_a^T e^{-i t xi} u(t) dt with a = 0 or -T, at every xi in
    one Oscillatory sum with u as its spectrum, on panels of [a, T] that
    resolve the oscillation at the largest |xi|."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    T = _support_radius(u)
    a = 0.0 if half_line else -T
    top = float(np.max(np.abs(xi)))
    n = max(24, int(np.ceil((T - a) * (top + 1.0) / (2 * np.pi) * 3)))
    return integrate_fixed(Oscillatory(FT_PHASE, ex.const(1.0), {"xi": xi},
                                       spectrum=u, kvar="t"), a, T, n)


def fourier_transform(u: SchwartzFn, xi):
    """Numeric Fu(xi) by oscillation-resolving panels on [-T, T]."""
    return _panel_ft(u, xi, half_line=False)


def half_line_ft(u: SchwartzFn, xi):
    """Numeric F(e+ u)(xi) = integral_0^T e^{-i t xi} u(t) dt."""
    return _panel_ft(u, xi, half_line=True)


def measured_decay_exponent(u: SchwartzFn, lo: float = 10.0,
                            hi: float = 1000.0) -> tuple[float, float]:
    """Least-squares log-log slope of |F(e+ u)| at 12 points of [lo, hi],
    numeric path.

    Returns (slope, limit_constant) where limit_constant is the median of
    |xi| * |F(e+ u)(xi)| over the fit window (the first-order decay
    coefficient, equal to |u(0)| for smooth u).
    """
    xi = np.geomspace(lo, hi, 12)
    vals = np.abs(half_line_ft(u, xi))
    return loglog_fit(xi, vals)[0], float(np.median(xi * vals))
