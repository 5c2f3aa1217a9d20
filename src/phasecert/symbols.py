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
from .exceptions import (NonIntegerDegreeError, RegressionError,
                         SingularLocusError)
from .grids import bracket_ladder
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
                RAY_SAMPLES)
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
    out.flags.writeable = False
    return out


RAY_SAMPLES = _ray_samples(20)  # the rays of every SymbolFn's oracle


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
    symbols here are left-quantized and x-only.  A derivative that folds
    to a constant c has residual |c - sign c| without evaluation; the
    others run as one program, with x' as an 11-point axis against
    xi_n = +-1 as a (2, 1) axis.  metrics carries the NaN-strict
    max_residual over all orders, and the check passes when it is at most
    TRANSMISSION_TOL.  A symbol that is not smooth at the axis points
    fails: its residual there is inf.
    """
    if a.homogeneous_degree is None:
        raise ValueError("transmission check requires declared homogeneity")
    m = a.homogeneous_degree
    if abs(m - round(m)) > 1e-12:
        raise NonIntegerDegreeError(
            f"transmission parity needs an integer degree, got {m:g}")
    m = int(round(m))
    # (sign, derivative) per (al, be, k)
    table = [(-1.0 if (m - al) % 2 else 1.0, d)
             for (al, _, _), d in ex.derivative_table(
                 a.expr, [("k1", max_orders), ("x1", max_orders),
                          ("xn", max_orders)]).items()]
    const = [abs(d.aux - s * d.aux) for s, d in table if d.op == ex.CONST]
    live = [(s, d) for s, d in table if d.op != ex.CONST]
    x1 = np.linspace(-1.0, 1.0, 11)
    vals = np.empty((len(live), 2, x1.size))
    try:
        outs = ex.Program([d for _, d in live])(
            {"x1": x1, "xn": 0.0, "k1": 0.0,
             "kn": np.array([[1.0], [-1.0]])})
    except SingularLocusError:
        return False, {"max_residual": float("inf")}
    for i, v in enumerate(outs):
        vals[i] = v
    sign = np.array([s for s, _ in live])[:, None]
    # np.max, not max(): a NaN residual must stick
    worst = float(np.max(np.append(np.abs(vals[:, 0] - sign * vals[:, 1]),
                                   const), initial=0.0))
    return worst <= TRANSMISSION_TOL, {"max_residual": worst}


# ---------------------------------------------------------------------------
# collar-rescaled class membership
# ---------------------------------------------------------------------------

@dataclass
class BsReport:
    """Fitted growth exponents of the collar-rescaled symbol.

    Membership sweeps internal derivative orders: for every (alpha, beta)
    up to 1, the <xi'>-ladder sups of the rescaled derivative must grow
    no faster than <xi'>^(m - alpha) and its one-dimensional order in
    <xi_n> must stay at most l.  slopes and xin_orders map (alpha, beta)
    to those fits, None where the derivative vanishes on the ladder.
    """

    m: float
    l: float
    slopes: dict
    xin_orders: dict
    tol: float

    @property
    def identically_zero(self) -> bool:
        return all(s is None for s in self.slopes.values())

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


LIVE_FLOOR = 1e-14  # a ladder value at or below it is a vanishing rung


def fit_live_rungs(rungs, values, min_live: int) -> float | None:
    """The loglog_fit slope of values over the live rungs, those above
    LIVE_FLOOR.  A NaN value is live, not zero, so it makes the slope NaN;
    no live rung gives None (an identically zero ladder), and fewer than
    min_live raise RegressionError."""
    x, y = np.asarray(rungs, dtype=float), np.asarray(values, dtype=float)
    live = ~(y <= LIVE_FLOOR)
    n_live = int(live.sum())
    if n_live == 0:
        return None
    if n_live < min_live:
        raise RegressionError(
            f"only {n_live} live rungs; need >= {min_live} for the fit")
    return loglog_fit(x[live], y[live])[0]


# (alpha, beta): xi'- and x'-derivative orders of the membership sweep;
# each runs with xi_n- and x_n-orders (gamma, delta) up to 2
BS_ORDERS = ((0, 0), (0, 1), (1, 0), (1, 1))
BS_KEYS = tuple((al, be, g, dlt) for al, be in BS_ORDERS
                for g in range(3) for dlt in range(3))


def collar_sups(parts, rungs: np.ndarray, xin_rungs: np.ndarray,
                xn_count: int) -> dict:
    """{BS_KEYS key: sup of the modulus of the parts' rescaled derivative
    per (<xi'> rung r, <xi_n> shell R)}.  The (alpha, beta, gamma, delta)
    derivative is evaluated at (x', x_n / r, sqrt(r^2 - 1), xi_n r) on 7
    x' and xn_count x_n in [-1, 1] and xi_n = +-sqrt(R^2 - 1) (0 and -0
    at R = 1), times the exact rescaling factor r^(gamma - delta).  One
    program runs every derivative of every part over the axes (rung,
    shell, sign, x', x_n), reduced by max over the last three."""
    tables = [ex.derivative_table(
        p, [("k1", 1), ("kn", 2), ("x1", 1), ("xn", 2)]) for p in parts]
    prog = ex.Program([t[al, g, be, dlt]
                       for al, be, g, dlt in BS_KEYS for t in tables])
    r = rungs[:, None, None, None, None]
    rho = np.sqrt(np.maximum(xin_rungs * xin_rungs - 1.0, 0.0))
    shell = np.stack([rho, -rho], axis=1)[None, :, :, None, None]
    xn_vals = np.linspace(-1.0, 1.0, xn_count)
    vals = prog({"x1": np.linspace(-1.0, 1.0, 7)[:, None], "xn": xn_vals / r,
                 "k1": np.sqrt(np.maximum(r * r - 1.0, 0.0)),
                 "kn": shell * r})
    shape = (len(rungs), len(xin_rungs), 2, 7, xn_count)
    n = len(parts)
    sups = {}
    for i, key in enumerate(BS_KEYS):
        v = vals[i * n:(i + 1) * n]
        mod = np.abs(v[0]) if n == 1 else np.sqrt(sum(p * p for p in v))
        sups[key] = np.max(np.broadcast_to(mod, shape), axis=(2, 3, 4)) \
            * rungs[:, None] ** (key[2] - key[3])
    return sups


def check_bs_membership(a, m: float, l: float, xn_count: int = 33,
                        tol: float = 0.1) -> BsReport:
    """Fit growth exponents of the rescaled symbol on geometric ladders.

    `a` is an Expr, or an (re, im) pair of Exprs whose modulus is swept.
    collar_sups gives the sup of each rescaled derivative per <xi'> rung
    and per <xi_n> rung up to 64.  Per (alpha, beta), the <xi'> slope is
    fitted by fit_live_rungs on at least 4 live rungs, and the <xi_n>
    order per gamma wherever at least 4 <xi_n> rungs are live.
    """
    parts = [a] if isinstance(a, ex.Expr) else list(a)
    rungs = bracket_ladder(256.0)
    xin_rungs = bracket_ladder(64.0)
    sups = collar_sups(parts, rungs, xin_rungs, xn_count)

    slopes: dict = {}
    xin_orders: dict = {}
    for al, be in BS_ORDERS:
        S = {(g, dlt): sups[(al, be, g, dlt)]
             for g in range(3) for dlt in range(3)}
        V = np.max([(s * xin_rungs ** (g - l)).max(axis=1)
                    for (g, _), s in S.items()], axis=0)
        slopes[(al, be)] = fit_live_rungs(rungs, V, 4)
        xin_orders[(al, be)] = None
        if slopes[(al, be)] is None:
            continue
        # <xi_n>-order: per gamma, normalize out the certified growth
        for g in range(3):
            W = np.max([(S[(g, dlt)] / rungs[:, None] ** (m - al)).max(axis=0)
                        for dlt in range(3)], axis=0)
            ok = ~(W <= LIVE_FLOOR)
            if ok.sum() >= 4:
                sl = loglog_fit(xin_rungs[ok], W[ok])[0] + g
                order = xin_orders[(al, be)]
                xin_orders[(al, be)] = sl if order is None \
                    else float(np.maximum(order, sl))
    return BsReport(m, l, slopes, xin_orders, tol)
