"""Operator-valued symbol estimates for the normal-direction family.

The unitary dilation group (kappa_c u)(t) = c^{1/2} u(c t) conjugates the
frozen normal operator; rescaling the frequency integral by s = xi_n / r
(r = <xi'>) turns the conjugated family into

    (kappa_{1/r} B kappa_r u)(t)
        = 1/(2 pi) integral e^{i phi(x', t/r, xi', r s)}
                            b(x', t/r, xi', r s) u_hat(s) ds,

where b is the amplitude produced from a by differentiating the
exponential-times-amplitude integrand in (x', xi') (and in x_n for output
derivatives): each derivative maps b to i (d phase) b + d b, so the
amplitudes stay closed-form pairs of real expressions.  The real parts
of all of them are one compiled program, and each rung of a sweep is one
quadrature.Oscillatory sum of that program, which decides how each part
is summed.  Schwartz
seminorms of the outputs are swept over a <xi'> ladder (ladder_window:
the full ladder, or its saturated tail for a support-limited amplitude)
and their growth exponent is fitted by symbols.fit_live_rungs, the
collar-class check's rule, in one loop that estimate_symbol_order and
sweep_symbol_orders share; the declared order bound is m - (number of
xi'-derivatives), following the convention in which the covariable
decay tracks covariable derivatives (the printed index pairing in the
source estimate differs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .grids import bracket_ladder
from .normalop import NormalOperatorSpec
from .quadrature import Oscillatory, gauss_rule, panel_frame, panel_nodes
from .schwartz import FT_PHASE, SchwartzFn
from .symbols import fit_live_rungs


def default_t_grid() -> np.ndarray:
    pos = np.array([0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.25, 1.5,
                    2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0])
    return np.concatenate([-pos[::-1], [0.0], pos])


DEFAULT_RUNGS = tuple(bracket_ladder().tolist())    # <xi'> = 1, 2, ..., 256
FIT_TOL = 0.1   # a fitted slope passes when slope <= target + FIT_TOL
TRANSPOSE_TOL = 1e-6    # |<A u, v> - <u, A^t v>| of transpose_check
SWEEP_MIN_LIVE = 4  # live rungs a sweep fit needs, on either window


def ladder_window(spec: NormalOperatorSpec):
    """(t_grid, rungs, label) of the order fits of spec: the full ladder,
    or for a support-limited amplitude, whose outputs vanish outside
    |t| <= rung * support half-width, the saturated tail of rungs whose
    rescaled support covers a shorter t grid.  label names the window in
    reports."""
    support = spec.amplitude.support
    if support is None:
        return default_t_grid(), DEFAULT_RUNGS, "full ladder"
    h = max(abs(support[1][0]), abs(support[1][1]))
    pos = np.array([0.05, 0.15, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0,
                    4.0, 5.0, 6.0])
    t_grid = np.concatenate([-pos[::-1], [0.0], pos])
    t_max = float(np.max(t_grid))
    return (t_grid, tuple(r for r in DEFAULT_RUNGS if r * h >= t_max),
            "saturated tail (support-limited amplitude)")


class ConjugatedFamily:
    """Derivative amplitudes of one operator spec, shared across sweeps.

    Amplitude pairs (re, im) are built once per (xi'-order, x'-order,
    output-order) and compiled together, so a full ladder sweep costs one
    program execution per rung and block of nodes, however many test
    functions it serves.
    """

    def __init__(self, spec: NormalOperatorSpec, max_xi: int = 2,
                 max_x: int = 2, max_s: int = 2):
        self.spec = spec
        self.max_xi = max_xi
        self.max_x = max_x
        self.max_s = max_s
        psi = spec.phase.psi
        phi = spec.phase.phi
        grad = {"x1": ex.differentiate(phi, "x1"),
                "k1": ex.differentiate(phi, "k1"),
                "xn": ex.differentiate(psi, "xn")}

        def bump_order(pair, v):
            re, im = pair
            nre = ex.sub(ex.differentiate(re, v), ex.mul(grad[v], im))
            nim = ex.add(ex.differentiate(im, v), ex.mul(grad[v], re))
            return (nre, nim)

        # x' derivatives first, then xi', then the output derivative
        table = ex.derivative_table(
            (spec.amplitude.expr, ex.const(0.0)),
            [("x1", max_x), ("k1", max_xi), ("xn", max_s)], bump_order)
        self.amp_pairs = {(a, b, s): pair
                          for (b, a, s), pair in table.items()}

        t, r, sv = ex.var("t"), ex.var("r"), ex.var("s")
        resc = {"xn": ex.quot(t, r), "kn": ex.mul(sv, r)}
        self.phi_resc = ex.substitute(phi, resc)
        self.keys = sorted(self.amp_pairs)
        exprs = []
        for key in self.keys:
            re, im = self.amp_pairs[key]
            exprs.append(ex.substitute(re, resc))
            exprs.append(ex.substitute(im, resc))
        self._prog = ex.Program(exprs)

    def amp_pair(self, n_xi: int, n_x: int):
        """Unrescaled amplitude pair with no output derivative, for
        class-membership checks."""
        return self.amp_pairs[(n_xi, n_x, 0)]

    def _panels(self, us: list[SchwartzFn], t_max: float):
        """(a, b, n_panels) of the s grid resolving every u_hat of us
        against the oscillation up to |t| <= t_max: the widest grid any of
        them needs."""
        order = max(self.spec.amplitude.order, 0.0) \
            + self.max_xi + self.max_x + self.max_s
        S = max(u.ft_radius(tol=1e-16, weight_order=order) for u in us)
        rate = t_max * 2.5 / (2.0 * math.pi)
        return -S, S, max(24, int(math.ceil(2 * S * rate * 1.5)))

    def outputs(self, us: list[SchwartzFn], rungs=DEFAULT_RUNGS,
                t_grid: np.ndarray | None = None) -> list[dict]:
        """Conjugated outputs of every test function of us per
        (xi'-order, x'-order, s) and rung, at xi' = +sqrt(r^2 - 1).

        Returns one {key: [complex array over t_grid per rung]} per test
        function, in the order of us; the s-th entries already carry the
        r^(-s) factor from rescaling the output derivative.  The test
        functions share one s grid, the widest any of them needs, and each
        rung is one Oscillatory sum of every real amplitude part against
        all their u_hat w.
        """
        if t_grid is None:
            t_grid = default_t_grid()
        t_grid = np.asarray(t_grid, dtype=float)
        a, b, n_panels = self._panels(us, float(np.max(np.abs(t_grid))))
        nodes, weights = panel_nodes(a, b, n_panels, order=10)
        mid, half = panel_frame(a, b, n_panels)
        g = gauss_rule(10)[0]
        # u_hat w per test function (panels x Q x U), the same for every rung
        uhat_w = np.stack([u.ft_values(nodes) / (2.0 * math.pi) * weights
                           for u in us], axis=-1).reshape(n_panels, 10, -1)
        out = [{key: [] for key in self.keys} for _ in us]
        for rung in rungs:
            xi = math.sqrt(max(rung * rung - 1.0, 0.0))
            points = {"x1": self.spec.xprime, "k1": xi, "r": float(rung),
                      "t": t_grid}
            # (t x parts x U) sums of each real part (re, im per key)
            sums = Oscillatory(self.phi_resc, self._prog, points,
                               kvar="s").panel_sum(mid, half, g, uhat_w)
            for i, key in enumerate(self.keys):
                res = (sums[:, 2 * i] + 1j * sums[:, 2 * i + 1]) \
                    * rung ** (-key[2])
                for j, o in enumerate(out):
                    o[key].append(res[:, j])
        return out


@dataclass
class OrderFit:
    """Least-squares growth exponent of one seminorm ladder."""

    alpha: int                 # xi'-derivative count (sets the target)
    beta: int                  # x'-derivative count
    l: int
    s: int
    u_name: str
    slope: float | None
    target: float
    tol: float = FIT_TOL

    @property
    def identically_zero(self) -> bool:
        return self.slope is None

    @property
    def passed(self) -> bool:
        return self.identically_zero or self.slope <= self.target + self.tol


def fit_seminorm_ladder(rungs, seminorms, alpha: int, beta: int, l: int,
                        s: int, u_name: str, target: float,
                        min_live: int = 6) -> OrderFit:
    """OrderFit of one seminorm ladder by symbols.fit_live_rungs."""
    slope = fit_live_rungs(rungs, seminorms, min_live)
    return OrderFit(alpha, beta, l, s, u_name, slope, target)


def _ladder_fits(spec: NormalOperatorSpec, family: ConjugatedFamily,
                 us: list[SchwartzFn], keys, ls, rungs, t_grid: np.ndarray,
                 min_live: int) -> list[OrderFit]:
    """OrderFits of the grid seminorms sup |t|^l |output| for every test
    function, output key (a, b, s) in keys and l in ls, in that nesting
    order, from one family.outputs sweep of all the test functions."""
    fits = []
    for u, outs in zip(us, family.outputs(us, rungs, t_grid)):
        for a, b, s in keys:
            for l in ls:
                sems = [float(np.max(np.abs(t_grid) ** l * np.abs(o)))
                        for o in outs[(a, b, s)]]
                fits.append(fit_seminorm_ladder(
                    rungs, sems, a, b, l, s, u.name,
                    spec.amplitude.order - a, min_live=min_live))
    return fits


def estimate_symbol_order(spec: NormalOperatorSpec, alpha: int, beta: int,
                          l: int, s: int, us: list[SchwartzFn],
                          family: ConjugatedFamily | None = None
                          ) -> list[OrderFit]:
    """OrderFit per test function for one (alpha, beta, l, s) selection,
    on the full ladder, from one ladder sweep for all test functions."""
    if family is None:
        family = ConjugatedFamily(spec, max_xi=alpha, max_x=beta, max_s=s)
    return _ladder_fits(spec, family, us, [(alpha, beta, s)], [l],
                        DEFAULT_RUNGS, default_t_grid(), 6)


def sweep_symbol_orders(spec: NormalOperatorSpec, us: list[SchwartzFn],
                        max_xi: int = 2, max_x: int = 2, max_l: int = 2,
                        max_s: int = 2) -> list[OrderFit]:
    """All OrderFits for derivative orders and seminorm indices up to the
    bounds, on the ladder window of spec, each fitted once it has
    SWEEP_MIN_LIVE live rungs; one ladder sweep for all test functions."""
    t_grid, rungs, _ = ladder_window(spec)
    family = ConjugatedFamily(spec, max_xi, max_x, max_s)
    return _ladder_fits(spec, family, us, family.keys, range(max_l + 1),
                        rungs, t_grid, SWEEP_MIN_LIVE)


def check_order_fit(spec: NormalOperatorSpec, us: list[SchwartzFn]
                    ) -> tuple[bool, dict]:
    """The sweep_symbol_orders fits of first derivatives and seminorm
    index l <= 1 for the test functions us; it passes when every fit does.
    metrics carries each fit's indices, test function, slope and target,
    the number failing, and the label of the ladder window fitted."""
    fits = sweep_symbol_orders(spec, us, 1, 1, 1, 1)
    n_failing = sum(not f.passed for f in fits)
    table = [{"alpha": f.alpha, "beta": f.beta, "l": f.l, "s": f.s,
              "u": f.u_name, "slope": f.slope, "target": f.target}
             for f in fits]
    return not n_failing, {"fits": table, "n_failing": n_failing,
                           "window": ladder_window(spec)[2]}


# ---------------------------------------------------------------------------
# formal transpose pairing
# ---------------------------------------------------------------------------

def panel_fourier_sum(c: np.ndarray, xi: np.ndarray, mid: np.ndarray,
                      half: float, g: np.ndarray) -> np.ndarray:
    """sum_q c_q e^{-i y xi_q} at the panel nodes y = mid_p + half g_k.

    This is the kernel's point sum for the transform phase
    schwartz.FT_PHASE = -t xi, with the nodes y as t; it is linear in t,
    so each frequency xi_q takes ceil(P / B) + B + order complex
    exponentials per call over P panels, B = isqrt(P), not P * order.
    Returned panel-major, in the node order of quadrature.panel_nodes.
    """
    return Oscillatory(FT_PHASE, ex.const(1.0), {"xi": xi},
                       kvar="t").point_sum(c, mid, half, g)


def transpose_check(spec: NormalOperatorSpec, u: SchwartzFn,
                    v: SchwartzFn) -> tuple[bool, dict]:
    """|<A u, v> - <u, A^t v>| with the transpose assembled through its own
    quantization route (frequency-first), not by reusing the forward path;
    it passes at or below TRANSPOSE_TOL.

    A^t v(y) = 1/(2 pi) integral e^{-i y xi} W(xi) dxi with
    W(xi) = integral e^{i phi(x, xi)} a(x, xi) v(x) dx.  W is the
    kernel's point sum over the x panel grid, 200 panels of 10 Gauss
    points on [-14, 14], at the nodes of a Gauss panel grid in xi, where a
    phase linear in xi factors; A^t v is then wanted on the x panel grid
    by panel_fourier_sum.  Each sum takes its panel factor once per call.
    """
    from .normalop import apply_normal_op

    x_half, n_panels, order = 14.0, 200, 10
    xn, xw = panel_nodes(-x_half, x_half, n_panels, order)
    au, _ = apply_normal_op(spec, u, xn)
    pair1 = complex((au * v(xn)) @ xw)

    R = u.ft_radius(tol=1e-15) + v.ft_radius(tol=1e-15)
    n_q = max(120, int(R * x_half / math.pi))
    qn, qw = panel_nodes(-R, R, n_q, order)
    g = gauss_rule(order)[0]
    # W(xi) = integral e^{i phi(x, xi)} a(x, xi) v(x) dx on the xi panels
    W = Oscillatory(spec.frozen_phi(), spec.frozen_amplitude(),
                    {"xn": xn}).point_sum(v(xn) * xw,
                                          *panel_frame(-R, R, n_q), g)
    mid, half = panel_frame(-x_half, x_half, n_panels)
    atv = panel_fourier_sum(W * qw, qn, mid, half, g) / (2.0 * np.pi)
    pair2 = complex((u(xn) * atv) @ xw)
    resid = abs(pair1 - pair2)
    return resid <= TRANSPOSE_TOL, {"residual": resid, "tol": TRANSPOSE_TOL}
