"""Independent numeric oracles used by the test suite.

These deliberately avoid the package's own differentiation/quadrature
paths: finite differences with Richardson extrapolation, brute-force
trapezoid quadrature, and refined-grid suprema.  The jets and
fd_crosscheck tabulate the package's symbolic derivatives at a point and
hold them against central differences of its evaluator.  The sg oracles
at the end evaluate the regularized phase's derivative table the plain
way: its whole program on every t column, gate live or not, each
derivative broadcast to the full grid before it is reduced, and the
t-grid through np.unique;
looped_uniformity checks and reduces those constants one (x', rung) combo
at a time.  looped_transmission runs the parity check one derivative and
one ray at a time, and looped_bs_sups the collar-class sweep one rung,
one shell and one derivative at a time, each by its own eval_array call.
The quadrature oracles never call the oscillatory kernel they check:
dense_values takes one complex exponential per (point, node) pair,
blockwise_panel_sum and cutoff_richardson_separate sum such dense values,
and per_function_outputs sweeps the conjugated outputs of one test
function on its own s grid by the dense formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from phasecert.exceptions import RegressionError, SingularLocusError
from phasecert.expr import (Expr, derivative_multi, differentiate,
                            eval_array, evaluate)
from phasecert.grids import bracket_ladder
from phasecert.quadrature import panel_nodes
from phasecert.sgphase import (LADDER, RATIO_KEYS, ZERO_FLOOR, Margins,
                               StarPhaseFamily)
from phasecert.symbols import BsReport, loglog_fit


def central_diff(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_derivative(f, x: float, order: int, h: float) -> float:
    """order-th derivative by the symmetric finite-difference stencil."""
    total = 0.0
    for j in range(order + 1):
        total += (-1) ** j * comb(order, j) * f(x + (order / 2.0 - j) * h)
    return total / h**order


def richardson_diff(f, x: float, order: int = 1, h: float = 1e-2) -> float:
    """order-th derivative, one Richardson level on the symmetric stencil."""
    d1 = fd_derivative(f, x, order, h)
    d2 = fd_derivative(f, x, order, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def trapezoid(f, a: float, b: float, n: int = 100_000):
    """Brute-force trapezoid rule; f vectorized, possibly complex."""
    x = np.linspace(a, b, n)
    y = f(x)
    return np.trapezoid(y, x)


def grid_sup(f, grids) -> float:
    """Max of |f| over the cartesian product of 1-d grids."""
    mesh = np.meshgrid(*grids, indexing="ij")
    return float(np.max(np.abs(f(*mesh))))


def sample_array(points: list[dict[str, float]]) -> np.ndarray:
    """Structured sample array of point dicts, with the fields in the key
    order of the first point."""
    names = list(points[0])
    return np.array([tuple(p[v] for v in names) for p in points],
                    dtype=[(v, np.float64) for v in names])


def loglog_slope(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0])


def smooth_cutoff(xi, R: float):
    """1 for |xi| <= R, 0 for |xi| >= 2R, exp(-1/s) transition in
    p = (xi / 2R)^2: w = F(1 - p) / (F(1 - p) + F(p - 1/4))."""
    p = (np.asarray(xi, dtype=float) / (2.0 * R)) ** 2

    def F(s):
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            return np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)),
                            0.0)

    return F(1.0 - p) / (F(1.0 - p) + F(p - 0.25))


def cutoff_richardson_separate(f, R: float, panels_per_unit: float,
                               order: int = 12, min_panels: int = 64):
    """Smooth-cutoff Richardson value on three separate grids: radius L*R
    (L = 1, 2, 4) on its own composite Gauss grid over [-2LR, 2LR] with
    max(min_panels, ceil(4LR * panels_per_unit)) panels, f evaluated on all
    nodes at once.  Returns (I_R, I_2R, I_4R, extrapolated value)."""
    x, w = np.polynomial.legendre.leggauss(order)
    vals = []
    for level in (1.0, 2.0, 4.0):
        a = 2.0 * R * level
        n = max(min_panels, int(np.ceil(2.0 * a * panels_per_unit)))
        h = a / n
        mids = -a + h * (2.0 * np.arange(n) + 1.0)
        nodes = (mids[:, None] + h * x[None, :]).ravel()
        weights = np.tile(h * w, n)
        vals.append(f(nodes) @ (weights * smooth_cutoff(nodes, R * level)))
    i1, i2, i4 = vals
    return i1, i2, i4, (8.0 * i4 - 6.0 * i2 + i1) / 3.0


# ---------------------------------------------------------------------------
# jets and finite-difference cross checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """Per-variable non-negative derivative orders."""

    orders: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if any(k < 0 for _, k in self.orders):
            raise ValueError("multi-index entries must be >= 0")

    @classmethod
    def of(cls, **orders: int) -> "MultiIndex":
        return cls(tuple(sorted(orders.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.orders)

    @property
    def total(self) -> int:
        return sum(k for _, k in self.orders)


@dataclass
class Jet:
    """Table of partial derivatives of one expression at one point.

    Keys are order tuples aligned with ``vars``; every multi-index up to
    the requested bound is present, each computed once in canonical
    variable order (so permuted mixed partials are identical by
    construction).
    """

    vars: tuple[str, ...]
    point: dict[str, float]
    table: dict[tuple[int, ...], float]

    def value(self, **orders: int) -> float:
        key = tuple(orders.get(v, 0) for v in self.vars)
        return self.table[key]


def jet(e: Expr, point: dict[str, float], bound: MultiIndex) -> Jet:
    names = tuple(v for v, _ in bound.orders)
    limits = [k for _, k in bound.orders]
    table = {}
    for combo in itertools.product(*(range(m + 1) for m in limits)):
        d = derivative_multi(e, dict(zip(names, combo)))
        table[combo] = evaluate(d, point)
    return Jet(names, dict(point), table)


def fd_crosscheck(e: Expr, point: dict[str, float], v: str,
                  h: float = 1e-4) -> float:
    """Relative gap between the symbolic derivative and a central difference.

    Returns |symbolic - (e(p+h) - e(p-h)) / 2h| / max(1, |symbolic|).
    """
    up = dict(point)
    dn = dict(point)
    up[v] = point[v] + h
    dn[v] = point[v] - h
    fd = (evaluate(e, up) - evaluate(e, dn)) / (2.0 * h)
    sym = evaluate(differentiate(e, v), point)
    return abs(sym - fd) / max(1.0, abs(sym))


# ---------------------------------------------------------------------------
# sg derivative table
# ---------------------------------------------------------------------------

def unique_tgrid(fam, rung: float, tgrid: np.ndarray) -> np.ndarray:
    """The t-grid of StarPhaseFamily.eval_tgrid, deduplicated by np.unique."""
    band = rung * fam.k * np.linspace(0.35, 1.05, 29)
    band = band[band <= float(np.max(np.abs(tgrid)))]
    if len(band) == 0:
        return tgrid
    return np.unique(np.concatenate([tgrid, band, -band]))


def broadcast_constants(fam, xprimes, rung: float, sign: int,
                        ladder: np.ndarray) -> list[dict]:
    """The constants of StarPhaseFamily.constants_at as one dict of floats
    per x', keyed by report name, with every derivative broadcast to
    (m, T, U) before the weights, abs and max/min reduce it."""
    tgrid = unique_tgrid(fam, rung, ladder)
    xs = np.asarray(xprimes, dtype=float)
    m, nt, nu = xs.size, len(tgrid), len(ladder)
    env = fam.env_for(xs.reshape(m, 1, 1), rung, sign)
    env["t"] = tgrid[None, :, None]
    env["tau"] = ladder[None, None, :]
    vals = {k: np.broadcast_to(v, (m, nt, nu))
            for k, v in zip(fam.table, fam.program(env))}
    bt = np.sqrt(1.0 + tgrid * tgrid)[None, :, None]
    btau = np.sqrt(1.0 + ladder * ladder)[None, None, :]
    out = [{} for _ in range(m)]
    for (a, al), D in vals.items():
        w = np.abs(D) * bt ** (a - 1) * btau ** (al - 1)
        for i, v in enumerate(w.max(axis=(1, 2)).tolist()):
            out[i][f"C_{a}{al}"] = v
    d10, d01, d11 = vals[(1, 0)], vals[(0, 1)], vals[(1, 1)]
    q_t = np.sqrt(1.0 + d10 * d10) / btau
    q_tau = np.sqrt(1.0 + d01 * d01) / bt
    lo, hi = d11.min(axis=(1, 2)), d11.max(axis=(1, 2))
    eps = np.abs(d11).min(axis=(1, 2))
    for i in range(m):
        sign_ok = lo[i] > 0.0 or hi[i] < 0.0
        out[i].update({
            "c_t": float(q_t[i].min()), "C_t": float(q_t[i].max()),
            "c_tau": float(q_tau[i].min()), "C_tau": float(q_tau[i].max()),
            "eps": float(eps[i] if sign_ok else -eps[i]),
            "eps_sign": float(np.sign(hi[i])) if sign_ok else 0.0})
    return out


def looped_uniformity(phase, k: float, K: float, xprimes=None, rungs=None,
                      margins=None, order_bound: int = 3) -> dict:
    """The fields of sgphase.check_uniformity's report, one combo at a time:
    a dict of float constants per (x', rung) from broadcast_constants, x'
    outer and rung inner, each checked against the margins on its own,
    and the ratios taken over lists of those floats.  Returns the ratios,
    the per-combo dicts (without eps_sign), the failures, the spread and
    the verdict."""
    margins = margins or Margins()
    if xprimes is None:
        xprimes = np.linspace(-1.0, 1.0, 9)
    if rungs is None:
        rungs = bracket_ladder().tolist()
    fam = StarPhaseFamily(phase, k, K, order_bound)
    by_rung = [broadcast_constants(fam, xprimes, float(rung),
                                   1 if j % 2 == 0 else -1, LADDER)
               for j, rung in enumerate(rungs)]
    table_keys = [f"C_{a}{al}" for a in range(order_bound + 1)
                  for al in range(order_bound + 1)]
    per_combo, failures = [], []
    for i, xp in enumerate(xprimes):
        for rung, batch in zip(rungs, by_rung):
            cs = dict(batch[i])
            eps_sign = cs.pop("eps_sign")
            per_combo.append(cs)
            lows = np.array([cs["c_t"], cs["c_tau"], cs["eps"]])
            highs = np.array([cs["C_t"], cs["C_tau"],
                              *(cs[key] for key in table_keys)])
            passes = bool(np.all(lows >= [margins.c_min, margins.c_min,
                                          margins.eps_min])
                          and np.all(highs <= margins.c_max))
            if eps_sign == 0.0:
                failures.append(f"sign change at x'={xp:.3f}, rung={rung:g}")
            elif not passes:
                failures.append(f"margins fail at x'={xp:.3f}, rung={rung:g}")
    ratios = {}
    for key in per_combo[0]:
        vals = np.array([pc[key] for pc in per_combo])
        if np.isnan(vals).any():
            ratios[key] = float("nan")
        elif key.startswith("c_") or key == "eps":
            ratios[key] = float(vals.max() / vals.min()) \
                if vals.min() > 0 else float("inf")
        else:
            live = vals[np.abs(vals) > ZERO_FLOOR]
            ratios[key] = float(live.max() / live.min()) if len(live) else 1.0
    spread = float(np.max([ratios[key] for key in RATIO_KEYS]))
    return {"ratios": ratios, "per_combo": per_combo, "failures": failures,
            "spread": spread,
            "passed": not failures and spread <= margins.ratio_max}


# ---------------------------------------------------------------------------
# transmission condition
# ---------------------------------------------------------------------------

def looped_transmission(a, max_orders: int = 2) -> float:
    """max_residual of symbols.check_transmission with each derivative
    compiled on its own and evaluated on each ray xi_n = +-1 by its own
    11-point call; a singular derivative has residual inf."""
    m = int(round(a.homogeneous_degree))
    xprime_samples = np.linspace(-1.0, 1.0, 11)
    worst = 0.0
    for k in range(max_orders + 1):
        for al in range(max_orders + 1):
            for be in range(max_orders + 1):
                d = derivative_multi(a.expr, {"xn": k, "k1": al, "x1": be})
                sign = -1.0 if (m - al) % 2 else 1.0
                try:
                    plus, minus = (eval_array(
                        d, {"x1": xprime_samples, "xn": 0.0, "k1": 0.0,
                            "kn": kn}) for kn in (1.0, -1.0))
                except SingularLocusError:
                    resid = float("inf")
                else:
                    resid = float(np.max(np.abs(
                        np.broadcast_to(plus, xprime_samples.shape)
                        - sign * np.broadcast_to(minus,
                                                 xprime_samples.shape))))
                worst = float(np.maximum(worst, resid))
    return worst


# ---------------------------------------------------------------------------
# collar-class membership
# ---------------------------------------------------------------------------

def looped_bs_sups(parts, xn_count: int = 33) -> dict:
    """Sups of the collar-rescaled derivatives of symbols.collar_sups,
    one <xi'> rung, one <xi_n> shell and one derivative at a time: the
    shell at <xi_n> = 1 is the single point xi_n = 0, every other one the
    two signs.  {(alpha, beta, gamma, delta): array over (rung, shell)}."""
    rungs = bracket_ladder(256.0)
    xin_rungs = bracket_ladder(64.0)
    xprime_samples = np.linspace(-1.0, 1.0, 7)
    xn_vals = np.linspace(-1.0, 1.0, xn_count)
    shells = []
    for R in xin_rungs:
        rho = np.sqrt(max(R * R - 1.0, 0.0))
        shells.append(np.array([rho, -rho]) if rho else np.array([0.0]))
    derivs = {(al, be, g, dlt): [
        derivative_multi(p, {"kn": g, "xn": dlt, "k1": al, "x1": be})
        for p in parts]
        for al in range(2) for be in range(2)
        for g in range(3) for dlt in range(3)}
    sups = {key: np.zeros((len(rungs), len(xin_rungs))) for key in derivs}
    X1 = xprime_samples[:, None, None]
    XN = xn_vals[None, :, None]
    for i, r in enumerate(rungs):
        k1v = float(np.sqrt(max(r * r - 1.0, 0.0)))
        for j, shell in enumerate(shells):
            env = {"x1": X1, "xn": XN / r, "k1": k1v,
                   "kn": shell[None, None, :] * r}
            shape = (len(xprime_samples), len(xn_vals), len(shell))
            for key, dparts in derivs.items():
                g, dlt = key[2], key[3]
                mods = [np.abs(np.broadcast_to(eval_array(p, env), shape))
                        for p in dparts]
                mod = np.sqrt(sum(v * v for v in mods)) if len(mods) > 1 \
                    else mods[0]
                sups[key][i, j] = float(np.max(mod)) * r ** (g - dlt)
    return sups


def looped_bs_report(a, m: float, l: float, xn_count: int = 33,
                     tol: float = 0.1) -> BsReport:
    """symbols.check_bs_membership on looped_bs_sups, with its ladder
    fits written out: a NaN rung is live, no live rung means no slope,
    and fewer than 4 live <xi'> rungs raise."""
    parts = [a] if isinstance(a, Expr) else list(a)
    rungs = bracket_ladder(256.0)
    xin_rungs = bracket_ladder(64.0)
    sups = looped_bs_sups(parts, xn_count)
    floor = 1e-14
    slopes: dict = {}
    xin_orders: dict = {}
    for al in range(2):
        for be in range(2):
            V = np.zeros(len(rungs))
            for g in range(3):
                for dlt in range(3):
                    S = sups[(al, be, g, dlt)]
                    V = np.maximum(V, (S * xin_rungs[None, :] ** (g - l)
                                       ).max(axis=1))
            live = ~(V <= floor)
            if not live.any():
                slopes[(al, be)] = None
                xin_orders[(al, be)] = None
                continue
            if live.sum() < 4:
                raise RegressionError(
                    f"fewer than 4 non-vanishing rungs at orders {(al, be)}")
            slopes[(al, be)] = loglog_fit(rungs[live], V[live])[0]
            order = None
            for g in range(3):
                W = np.zeros(len(xin_rungs))
                for dlt in range(3):
                    S = sups[(al, be, g, dlt)] / rungs[:, None] ** (m - al)
                    W = np.maximum(W, S.max(axis=0))
                ok = ~(W <= floor)
                if ok.sum() >= 4:
                    sl = loglog_fit(xin_rungs[ok], W[ok])[0] + g
                    order = sl if order is None \
                        else float(np.maximum(order, sl))
            xin_orders[(al, be)] = order
    return BsReport(m, l, slopes, xin_orders, tol)


# ---------------------------------------------------------------------------
# oscillatory panel sums and conjugated outputs
# ---------------------------------------------------------------------------

def dense_values(phi, amp, xn, nodes, spectrum=None):
    """The dense formula: e^{i phi} a s on every (point, node) pair, one
    np.exp per pair."""
    env = {"xn": xn[:, None], "kn": nodes[None, :]}
    shape = (len(xn), len(nodes))
    ph = np.broadcast_to(eval_array(phi, env), shape)
    am = np.broadcast_to(eval_array(amp, env), shape)
    vals = np.exp(1j * ph) * am
    return vals if spectrum is None else vals * spectrum(nodes)[None, :]


def blockwise_panel_sum(f, mid, half, g, weights, step: int
                        ) -> np.ndarray:
    """The dense values f(nodes) (points x nodes) summed against weights
    shaped (panels, order) + columns, one block of step panels at a time,
    and added over the blocks."""
    n_q, cols = weights.shape[1], weights.shape[2:]
    weights = weights.reshape(len(mid), n_q, -1)
    out = 0.0
    for lo in range(0, len(mid), step):
        nodes = (mid[lo:lo + step, None] + half * g).ravel()
        out = out + f(nodes) @ weights[lo:lo + step].reshape(len(nodes), -1)
    return out.reshape((-1,) + cols)


def per_function_outputs(family, u, rungs, t_grid) -> dict:
    """ConjugatedFamily.outputs of the one test function u on the s grid
    that u alone needs, by the dense formula: per rung, e^{i phi_resc}
    with one np.exp per (t, s) pair, times each amplitude pair and u_hat
    w, summed over the nodes."""
    t_grid = np.asarray(t_grid, dtype=float)
    a, b, n_panels = family._panels([u], float(np.max(np.abs(t_grid))))
    nodes, weights = panel_nodes(a, b, n_panels, order=10)
    uhat_w = u.ft_values(nodes) / (2.0 * math.pi) * weights
    out = {key: [] for key in family.keys}
    for rung in rungs:
        env = {"x1": family.spec.xprime,
               "k1": math.sqrt(max(rung * rung - 1.0, 0.0)),
               "r": float(rung), "t": t_grid[:, None], "s": nodes[None, :]}
        phase = np.broadcast_to(eval_array(family.phi_resc, env),
                                (len(t_grid), len(nodes)))
        kern = np.exp(1j * phase) * uhat_w
        parts = family._prog(env)
        with np.errstate(invalid="ignore"):
            for i, key in enumerate(family.keys):
                amp = parts[2 * i] + 1j * parts[2 * i + 1]
                out[key].append(np.sum(kern * amp, axis=1)
                                * rung ** (-key[2]))
    return out
