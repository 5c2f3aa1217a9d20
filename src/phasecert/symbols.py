"""Symbol-class membership estimation on grids.

Two checks live here:

* The transmission (symmetry) condition for positively homogeneous
  symbols: parity relation between the rescaled symbol's derivative
  values at (xi', xi_n) = (0, +1) and (0, -1).
* Membership in the mixed collar classes: after the anisotropic rescale
  (x_n -> x_n/<xi'>, xi_n -> xi_n <xi'>), one-dimensional symbol seminorms
  must grow at most like <xi'>^(m - |alpha|); growth exponents are fitted
  by least squares on geometric ladders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .exceptions import RegressionError, SingularLocusError
from .grids import bracket_ladder, grid_digest
from .symplectic import SAMPLE_DTYPE, XI_VARS

TRANSMISSION_TOL = 1e-10    # the parity residual of check_transmission


@dataclass
class SymbolFn:
    """A smooth symbol a(x', x_n, xi', xi_n) with a declared class order.

    homogeneous_degree is declared only when a is positively homogeneous in
    (xi', xi_n) away from 0; the declaration is verified on sampled rays at
    construction time, not assumed.  support is an optional box in (x1, xn)
    outside which the symbol vanishes.
    """

    expr: ex.Expr
    order: float
    homogeneous_degree: float | None = None
    support: tuple[tuple[float, float], tuple[float, float]] | None = None
    name: str = ""

    def __post_init__(self):
        if self.homogeneous_degree is not None:
            res = ex.homogeneity_residual(
                self.expr, set(XI_VARS), self.homogeneous_degree,
                _ray_samples(20))
            if not res <= 1e-10:    # a NaN residual must fail too
                raise ValueError(
                    f"declared homogeneity degree {self.homogeneous_degree} "
                    f"fails on sampled rays (residual {res:.2e})")


def _ray_samples(count: int) -> np.ndarray:
    """Sample array of count unit covectors at (x1, xn) = (0.3, 0.2)."""
    theta = (np.arange(count) + 0.5) * (2 * np.pi / count)
    out = np.empty(count, dtype=SAMPLE_DTYPE)
    out["x1"], out["xn"] = 0.3, 0.2
    out["k1"], out["kn"] = np.cos(theta), np.sin(theta)
    return out


# ---------------------------------------------------------------------------
# transmission / symmetry condition
# ---------------------------------------------------------------------------

def check_transmission(a: SymbolFn, max_orders: int = 2
                       ) -> tuple[bool, dict]:
    """Parity relation at (xi', xi_n) = (0, +-1) for homogeneous symbols.

    For every x_n-order k, xi'-order al and x'-order be up to max_orders,
    the derivative at (x', 0, 0, +1) must equal (-1)^(m - al) times its
    value at (x', 0, 0, -1), on 11 sampled x' in [-1, 1].  Normal
    derivatives in the second copy of the collar variable are not taken:
    symbols here are left-quantized and x-only.  All derivatives run as
    one program, with x' as a (1, 11) axis against xi_n = +-1 as a (2, 1)
    axis.  metrics carries the NaN-strict max_residual over all orders,
    and the check passes when it is at most TRANSMISSION_TOL.  A symbol
    that is not smooth at the axis points fails: its residual there is
    inf.
    """
    if a.homogeneous_degree is None:
        raise ValueError("transmission check requires declared homogeneity")
    m = a.homogeneous_degree
    if abs(m - round(m)) > 1e-12:
        raise ValueError("transmission parity needs an integer degree")
    m = int(round(m))
    orders = range(max_orders + 1)
    keys = [(k, al, be) for k in orders for al in orders for be in orders]
    prog = ex.Program([ex.derivative_multi(
        a.expr, {"xn": k, "k1": al, "x1": be}) for k, al, be in keys])
    x1 = np.linspace(-1.0, 1.0, 11)[None, :]
    try:
        vals = prog({"x1": x1, "xn": 0.0, "k1": 0.0,
                     "kn": np.array([[1.0], [-1.0]])})
    except SingularLocusError:
        return False, {"max_residual": float("inf")}
    worst = 0.0
    for (_, al, _), v in zip(keys, vals):
        plus, minus = np.broadcast_to(v, (2, x1.size))
        sign = -1.0 if (m - al) % 2 else 1.0
        # np.maximum, not max(): a NaN residual must stick
        worst = float(np.maximum(worst, np.max(np.abs(plus - sign * minus))))
    return worst <= TRANSMISSION_TOL, {"max_residual": worst}


# ---------------------------------------------------------------------------
# collar-rescaled class membership
# ---------------------------------------------------------------------------

@dataclass
class BsReport:
    """Fitted growth exponents of the collar-rescaled symbol.

    Membership sweeps internal derivative orders: for every (alpha, beta)
    up to ab_bound, the <xi'>-ladder sups of the rescaled derivative must
    grow no faster than <xi'>^(m - alpha) and its one-dimensional order in
    <xi_n> must stay at most l.  xi_slope and xin_order report the
    (0, 0)-derivative fits; slopes carries the whole table.
    """

    m: float
    l: float
    ab_bound: int
    xi_slope: float | None
    xin_order: float | None
    slopes: dict
    xin_orders: dict
    rung_sups: dict
    tol: float
    identically_zero: bool = False
    grid: str = ""

    @property
    def passed(self) -> bool:
        if self.identically_zero:
            return True
        # not <=: a NaN slope or order fails
        for (al, be), slope in self.slopes.items():
            if slope is not None and not slope <= self.m - al + self.tol:
                return False
        for order in self.xin_orders.values():
            if order is not None and not order <= self.l + self.tol:
                return False
        return True


def loglog_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of log y against log x, with the RMS of the
    fit residual (0 when lstsq reports none).  The one growth-exponent
    fitter of the package; a NaN or infinite y makes the slope NaN."""
    lx = np.log(x)
    A = np.vstack([lx, np.ones_like(lx)]).T
    sol, res, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    rms = float(np.sqrt(res[0] / len(lx))) if len(res) else 0.0
    return float(sol[0]), rms


def check_bs_membership(a, m: float, l: float,
                        rung_top: float = 256.0,
                        xn_count: int = 33,
                        tol: float = 0.1) -> BsReport:
    """Fit growth exponents of the rescaled symbol on geometric ladders.

    `a` is a SymbolFn, a bare Expr, or an (re, im) pair of Exprs (the
    modulus is swept).  For each <xi'> rung r the symbol is evaluated at
    (x', x_n/r, xi', xi_n r) with xi' = sqrt(r^2 - 1), on 7 x' and xn_count
    x_n in [-1, 1], and <xi_n> rungs up to 64; normal derivatives of the
    rescale pick up the exact factor r^(gamma - delta) with gamma, delta
    up to 2, and tangential derivative orders (alpha, beta) each run up
    to 1.
    """
    ab_bound, deriv_bound = 1, 2
    if isinstance(a, SymbolFn):
        parts = [a.expr]
    elif isinstance(a, ex.Expr):
        parts = [a]
    else:
        parts = list(a)
    rungs = bracket_ladder(rung_top)
    if len(rungs) < 4:
        raise RegressionError("need at least 4 <xi'> rungs for the fit")
    xin_rungs = bracket_ladder(64.0)
    xprime_samples = np.linspace(-1.0, 1.0, 7)
    xn_vals = np.linspace(-1.0, 1.0, xn_count)
    # shell values of xi_n with <xi_n> equal to each rung (both signs)
    shells = []
    for R in xin_rungs:
        rho = np.sqrt(max(R * R - 1.0, 0.0))
        shells.append(np.array([rho, -rho]) if rho else np.array([0.0]))

    combos = [(al, be) for al in range(ab_bound + 1)
              for be in range(ab_bound + 1)]
    derivs = {}
    for al, be in combos:
        for g in range(deriv_bound + 1):
            for dlt in range(deriv_bound + 1):
                derivs[(al, be, g, dlt)] = [
                    ex.derivative_multi(
                        p, {"kn": g, "xn": dlt, "k1": al, "x1": be})
                    for p in parts]

    sups = {key: np.zeros((len(rungs), len(xin_rungs))) for key in derivs}
    X1 = xprime_samples[:, None, None]
    XN = xn_vals[None, :, None]
    for i, r in enumerate(rungs):
        k1v = float(np.sqrt(max(r * r - 1.0, 0.0)))
        for j, shell in enumerate(shells):
            KN = shell[None, None, :] * r
            env = {"x1": X1, "xn": XN / r, "k1": k1v, "kn": KN}
            shape = (len(xprime_samples), len(xn_vals), len(shell))
            for key, dparts in derivs.items():
                g, dlt = key[2], key[3]
                mods = [np.abs(np.broadcast_to(ex.eval_array(p, env), shape))
                        for p in dparts]
                mod = np.sqrt(sum(v * v for v in mods)) if len(mods) > 1 \
                    else mods[0]
                sups[key][i, j] = float(np.max(mod)) * r ** (g - dlt)

    floor = 1e-14
    slopes: dict = {}
    xin_orders: dict = {}
    rung_sups: dict = {"rungs": rungs.tolist()}
    all_zero = True
    for al, be in combos:
        V = np.zeros(len(rungs))
        for g in range(deriv_bound + 1):
            for dlt in range(deriv_bound + 1):
                S = sups[(al, be, g, dlt)]
                V = np.maximum(V, (S * xin_rungs[None, :] ** (g - l)
                                   ).max(axis=1))
        live = ~(V <= floor)    # NaN is live, so its slope is NaN
        if not live.any():
            slopes[(al, be)] = None
            xin_orders[(al, be)] = None
            continue
        all_zero = False
        if live.sum() < 4:
            raise RegressionError(
                f"fewer than 4 non-vanishing rungs at orders {(al, be)}")
        slopes[(al, be)] = loglog_fit(rungs[live], V[live])[0]
        if (al, be) == (0, 0):
            rung_sups["V"] = V.tolist()
        # <xi_n>-order: per gamma, normalize out the certified growth
        order = None
        for g in range(deriv_bound + 1):
            W = np.zeros(len(xin_rungs))
            for dlt in range(deriv_bound + 1):
                S = sups[(al, be, g, dlt)] / rungs[:, None] ** (m - al)
                W = np.maximum(W, S.max(axis=0))
            ok = ~(W <= floor)
            if ok.sum() >= 4:
                sl = loglog_fit(xin_rungs[ok], W[ok])[0] + g
                order = sl if order is None else float(np.maximum(order, sl))
        xin_orders[(al, be)] = order

    if all_zero:
        return BsReport(m, l, ab_bound, None, None, slopes, xin_orders,
                        {}, tol, identically_zero=True)
    return BsReport(m, l, ab_bound, slopes.get((0, 0)),
                    xin_orders.get((0, 0)), slopes, xin_orders, rung_sups,
                    tol, grid=grid_digest(rungs=rungs, xin=xin_rungs,
                                          x1=xprime_samples, xn=xn_vals))
