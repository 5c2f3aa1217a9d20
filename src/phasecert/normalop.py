"""Application of the frozen normal-direction operators by quadrature.

With (x', xi') frozen, the operator acts on one variable:

    (A u)(x_n)  = 1/(2 pi) integral e^{i phi(x_n, xi_n)} a(x_n, xi_n)
                  Fu(xi_n) d xi_n,
    (A+ u)(x_n) = the same with F(e+ u) in place of Fu, evaluated only at
                  x_n > 0,

where phi = psi - psi_b.  Schwartz transforms give absolutely convergent
integrands handled by adaptive panels; half-line transforms decay only to
first order, so the truncated operator always runs through the
smooth-cutoff Richardson integral at radius CUTOFF_RADIUS.  Evaluation at
x_n = 0 is excluded for the truncated operator.

The integrand at the output points is a quadrature.Oscillatory.  The
paper's local phases are linear in xi_n, phi = xi_n h(x_n) + c(x_n), and
the exact DAG test d^2 phi / d xi_n^2 == Const(0) lets both integrals factor
e^{i phi} over their Gauss panels instead of taking one complex
exponential per (point, node) pair; a phase that fails the test is summed
densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .exceptions import SingularLocusError
from .phase import GeneratingPhase, normal_coeffs
from .quadrature import Oscillatory, cutoff_richardson, integrate_adaptive
from .schwartz import SchwartzFn
from .symbols import SymbolFn

CUTOFF_RADIUS = 256.0   # base radius R of the half-line cutoff integral
L2_SLACK = 0.05         # relative slack of the L2 smoke bound
LINEARITY_TOL = 1e-9    # relative residual of check_linearity
CONSISTENT_SHARE = 0.95  # of points check_quadrature_consistency needs
GAUSS_ORDER = 12        # nodes per panel of both operators' quadrature


def validate_support(support, collar_halfwidth: float, amp: ex.Expr):
    """Raise ValueError when a declared support box (see SymbolFn) of the
    amplitude amp is empty, reaches past the collar |x_n| <=
    collar_halfwidth, or does not hold amp: amp must be exactly 0 (not
    NaN) at sampled collar points with x_n outside the box.  None
    declares no box."""
    if support is None:
        return
    lo, hi = support[1]
    h = collar_halfwidth
    if not lo < hi:
        raise ValueError(f"amplitude support [{lo}, {hi}] is empty")
    if lo < -h - 1e-12 or hi > h + 1e-12:
        raise ValueError(f"amplitude support [{lo}, {hi}] exceeds the "
                         f"collar half-width {h}")
    xn = np.concatenate([np.linspace(-h, lo, 9), np.linspace(hi, h, 9)])
    xn = xn[(xn < lo) | (xn > hi)]
    covectors = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
    try:
        vals = ex.eval_array(amp, {
            "x1": np.linspace(-1.0, 1.0, 5)[:, None, None, None],
            "xn": xn[:, None, None], "k1": covectors[:, None],
            "kn": covectors})
    except SingularLocusError:
        vals = np.nan
    bad = np.broadcast_to(~(vals == 0.0), (5, len(xn), 5, 5)).any((0, 2, 3))
    if bad.any():
        raise ValueError(f"the amplitude is not 0 at x_n = {xn[bad][0]:g}, "
                         f"outside its support [{lo}, {hi}]")


@dataclass
class NormalOperatorSpec:
    """Frozen normal-direction operator: phase + amplitude + (x', xi').

    A declared amplitude support box must sit inside the phase's collar
    (the region where the nondegenerate mixed derivative is certified),
    and the amplitude must vanish outside it.
    """

    phase: GeneratingPhase
    amplitude: SymbolFn
    xprime: float = 0.3
    xi_prime: float = 1.0
    panel_tol: float = 1e-9     # apply_normal_op's doubling tolerance
    name: str = ""

    def __post_init__(self):
        validate_support(self.amplitude.support,
                         self.phase.collar_halfwidth, self.amplitude.expr)

    def frozen_phi(self) -> ex.Expr:
        return ex.substitute(self.phase.phi,
                             {"x1": self.xprime, "k1": self.xi_prime})

    def frozen_amplitude(self) -> ex.Expr:
        return ex.substitute(self.amplitude.expr,
                             {"x1": self.xprime, "k1": self.xi_prime})


def _integrand_factory(spec: NormalOperatorSpec, ft,
                       xn_grid: np.ndarray) -> Oscillatory:
    """e^{i phi} a ft / (2 pi) over kn at the points xn_grid."""
    return Oscillatory(spec.frozen_phi(), spec.frozen_amplitude(),
                       {"xn": np.asarray(xn_grid, dtype=float)},
                       spectrum=lambda nodes: ft(nodes) / (2.0 * np.pi))


def apply_normal_op(spec: NormalOperatorSpec, u: SchwartzFn,
                    xn_grid) -> tuple[np.ndarray, np.ndarray]:
    """Sample (A u) on xn_grid; returns (values, per-point error estimate).

    u must have a full-line transform (catalog analytic or numeric); the
    integrand is then absolutely convergent and takes adaptive panels,
    with the truncation radius taken from the transform's decay against
    the amplitude's growth order.
    """
    xn_grid = np.asarray(xn_grid, dtype=float)
    R = u.ft_radius(tol=1e-16, weight_order=spec.amplitude.order)
    f = _integrand_factory(spec, u.ft_values, xn_grid)
    n0 = max(16, int(np.ceil(
        2 * R * (np.max(np.abs(xn_grid)) + 2.0) / (2 * np.pi))))
    val, err, _ = integrate_adaptive(f, -R, R, spec.panel_tol, n0,
                                     GAUSS_ORDER)
    return val, err


def apply_truncated_op(spec: NormalOperatorSpec, u: SchwartzFn,
                       xn_grid) -> tuple[np.ndarray, np.ndarray]:
    """Sample (A+ u) = restriction of the half-line-transform integral.

    Requires every x_n > 0 (the jump at 0 is not certified).  The
    half-line transform decays only to first order, so the integral is
    always the smooth-cutoff Richardson extrapolation at CUTOFF_RADIUS.
    """
    xn_grid = np.asarray(xn_grid, dtype=float)
    if np.any(xn_grid <= 0.0):
        raise ValueError("truncated operator evaluates on x_n > 0 only")
    f = _integrand_factory(spec, u.half_ft_values, xn_grid)
    rate = (np.max(np.abs(xn_grid)) + 2.0) / (2.0 * np.pi)
    val, err, _ = cutoff_richardson(f, CUTOFF_RADIUS,
                                    panels_per_unit=1.5 * rate,
                                    order=GAUSS_ORDER)
    return val, err


def l2_growth_factor(spec: NormalOperatorSpec) -> float:
    """Worst normal dilation factor of the frozen phase at the boundary.

    |q+(x')| is the boundary stretching rate in the normal direction; the
    L2 norm of a unit-Jacobian dilation by c scales by c^(-1/2), so the
    smoke bound uses max(sqrt(q), 1/sqrt(q)).  At the one sample x' of
    spec, |q+(x')| is 4 kappa of normal_coeffs, exactly.
    """
    _, nc = normal_coeffs(spec.phase,
                          xprime_samples=np.array([spec.xprime]))
    qv = 4.0 * nc["kappa"]
    return max(math.sqrt(qv), 1.0 / math.sqrt(qv))


def l2_smoke_check(spec: NormalOperatorSpec, u: SchwartzFn
                   ) -> tuple[bool, dict]:
    """Discrete L2 bound: ||A u||_2 over |x_n| <= 6 against
    (1 + L2_SLACK) ||u||_2 times the dilation factor."""
    xn = np.linspace(-6.0, 6.0, 241)
    vals, _ = apply_normal_op(spec, u, xn)
    h = xn[1] - xn[0]
    with np.errstate(over="ignore"):    # an inf norm fails the bound
        out_norm = float(np.sqrt(np.sum(np.abs(vals) ** 2) * h))
    t = np.linspace(-40.0, 40.0, 4001)
    in_norm = float(np.sqrt(np.trapezoid(np.abs(u(t)) ** 2, t)))
    bound = (1.0 + L2_SLACK) * in_norm * l2_growth_factor(spec)
    return out_norm <= bound, {"output_norm": out_norm,
                               "input_norm": in_norm, "bound": bound}


def check_linearity(spec: NormalOperatorSpec, u: SchwartzFn, v: SchwartzFn
                    ) -> tuple[bool, dict]:
    """A (0.7 u - 1.3 v) against 0.7 A u - 1.3 A v at 9 points of
    [-2, 2]: the largest difference relative to the outputs (at least 1),
    so that round-off scales with them, must be at most LINEARITY_TOL."""
    combo = SchwartzFn("combo", ex.add(ex.mul(ex.const(0.7), u.expr),
                                       ex.mul(ex.const(-1.3), v.expr)),
                       analytic_ft=lambda xi: 0.7 * u.ft_values(xi)
                       - 1.3 * v.ft_values(xi))
    xn = np.linspace(-2.0, 2.0, 9)
    w, _ = apply_normal_op(spec, combo, xn)
    au, _ = apply_normal_op(spec, u, xn)
    av, _ = apply_normal_op(spec, v, xn)
    scale = np.maximum(1.0, np.max(np.abs([au, av])))
    res = float(np.max(np.abs(w - 0.7 * au + 1.3 * av)) / scale)
    return res <= LINEARITY_TOL, {"residual": res, "tol": LINEARITY_TOL}


def check_quadrature_consistency(spec: NormalOperatorSpec, u: SchwartzFn
                                 ) -> tuple[bool, dict]:
    """A u at 21 points of [-2.5, 2.5] with panel tolerances 1e-6 and
    5e-7: the share of points where the two agree within the first run's
    error estimate (at least 1e-14) must be at least CONSISTENT_SHARE."""
    xn = np.linspace(-2.5, 2.5, 21)
    v1, e1 = apply_normal_op(replace(spec, panel_tol=1e-6), u, xn)
    v2, _ = apply_normal_op(replace(spec, panel_tol=5e-7), u, xn)
    frac = float(np.mean(np.abs(v1 - v2) <= np.maximum(e1, 1e-14)))
    return frac >= CONSISTENT_SHARE, {"fraction_within_estimate": frac}
