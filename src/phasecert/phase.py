"""Generating phases on the collar and their boundary structure.

A generating phase is a degree-1 fiber-homogeneous function
psi(x', x_n, xi', xi_n) whose graph relation
    y = grad_xi psi(x, eta),   xi = grad_x psi(x, eta)
encodes a boundary-preserving map.  This module extracts the boundary
phase psi_b(x', xi') = psi(x', 0, xi', *), forms phi = psi - psi_b,
certifies the nondegenerate mixed derivative on the collar, computes the
normal coefficients q+/q- with their sign symmetry, and checks the
transmission condition on all first derivatives.  Phases live on the
n = 2 collar of :mod:`symplectic`, in the variables x1, xn, k1, kn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .exceptions import (BoundaryFlatnessError, GraphMismatchError,
                         SignChangeError, SingularAxisError,
                         SingularLocusError)
from .grids import quasi_uniform
from .symbols import SymbolFn, check_transmission
from .symplectic import (HOMOGENEITY_TOL, SAMPLE_DTYPE, X_VARS, XI_VARS,
                         SymplectoMap, point_at, sup)

BOUNDARY_PHASE_TOL = 1e-10      # boundary-flatness residuals of psi
GENERATING_TOL = 1e-8           # the graph relation of phase and map
NONDEGENERACY_FLOOR = 1e-3      # min |d2 psi / dx_n dxi_n| on the collar
NORMAL_COEFFS_TOL = 1e-10       # q+ = -q- and the degeneracy test


@dataclass
class GeneratingPhase:
    """psi with its derived boundary phase and collar remainder phi.

    Construction runs the boundary-flatness diagnostics: psi restricted to
    x_n = 0 must be independent of xi_n and linear in xi'; the remainder
    phi = psi - psi_b then vanishes identically at x_n = 0.
    """

    psi: ex.Expr
    collar_halfwidth: float = 1.0
    name: str = ""
    psi_boundary: ex.Expr = field(init=False)
    phi: ex.Expr = field(init=False)
    boundary_diagnostics: dict = field(init=False)

    def __post_init__(self):
        self.psi_boundary, self.boundary_diagnostics = boundary_phase(
            self.psi)
        self.phi = ex.sub(self.psi, self.psi_boundary)

    def grad_xi(self) -> list[ex.Expr]:
        return [ex.differentiate(self.psi, v) for v in XI_VARS]

    def grad_x(self) -> list[ex.Expr]:
        return [ex.differentiate(self.psi, v) for v in X_VARS]


def boundary_phase(psi: ex.Expr) -> tuple[ex.Expr, dict]:
    """psi_b(x', xi') := psi(x', 0, xi', 1), with boundary diagnostics.

    xi_n-independence is verified by re-evaluating psi(x', 0, xi', s) at
    s in {-3, -1, 2, 5}; dependence signals a map that moves the boundary
    and raises BoundaryFlatnessError.  Linearity in xi' (vanishing second
    xi'-derivatives) is verified on the same samples, at 9 points x' in
    [-1, 1].
    """
    tol = BOUNDARY_PHASE_TOL
    psi_b = ex.substitute(psi, {"xn": 0.0, "kn": 1.0})
    restricted = ex.substitute(psi, {"xn": 0.0})

    base = {"x1": np.linspace(-1.0, 1.0, 9)}
    env = base | {"k1": np.array([-1.5, -0.4, 0.8, 2.0])[:, None]}
    shape = (4, 9)

    def sup_abs(values) -> float:       # NaN-strict
        return float(np.max(np.abs(np.broadcast_to(values, shape))))

    kn_resid = float(np.max([
        sup_abs(ex.eval_array(restricted, env | {"kn": kv})
                - ex.eval_array(psi_b, env))
        for kv in (-3.0, -1.0, 2.0, 5.0)]))
    if not kn_resid <= tol:
        raise BoundaryFlatnessError(
            f"boundary restriction depends on xi_n (residual {kn_resid:.2e})")

    lin_resid = sup_abs(ex.eval_array(
        ex.differentiate(ex.differentiate(psi_b, "k1"), "k1"), env))

    # psi(x', 0, 0, xi_n) must vanish identically
    at_zero = ex.substitute(restricted, {"k1": 0.0})
    zero_resid = float(np.max([
        sup_abs(ex.eval_array(at_zero, base | {"kn": kv}))
        for kv in (-2.0, 1.0, 3.0)]))

    diag = {"xi_n_residual": kn_resid, "linearity_residual": lin_resid,
            "zero_section_residual": zero_resid, "tol": tol}
    return psi_b, diag


def boundary_flat(diag: dict) -> bool:
    """The verdict of boundary_phase's diagnostics: every residual is at
    most diag["tol"], and a NaN residual fails."""
    return all(diag[k] <= diag["tol"] for k in (
        "xi_n_residual", "linearity_residual", "zero_section_residual"))


def homogeneity_samples(count: int, seed: int) -> np.ndarray:
    """Sample array of count points for check_homogeneity: x1 in [-1, 1],
    xn in [-0.4, 0.4], and each covariable of magnitude in [0.3, 3] with
    either sign.  The points are grids.quasi_uniform's for the seed, whose
    six coordinates give x1, xn, then |k| and a sign for each covariable."""
    u = quasi_uniform(count, 6, seed).T
    pts = np.empty(count, dtype=SAMPLE_DTYPE)
    pts["x1"], pts["xn"] = -1.0 + 2.0 * u[0], -0.4 + 0.8 * u[1]
    for v, mag, sgn in (("k1", u[2], u[3]), ("kn", u[4], u[5])):
        pts[v] = (0.3 + 2.7 * mag) * np.where(sgn < 0.5, -1.0, 1.0)
    return pts


def check_homogeneity(phase: GeneratingPhase,
                      samples: np.ndarray) -> tuple[bool, dict]:
    """Degree-1 homogeneity of psi in the covariables at a sample array by
    the scalar oracle expr.homogeneity_residual and by the Euler identity
    xi . grad_xi psi = psi.  It passes when the NaN-strict larger of the
    two residuals is at or below HOMOGENEITY_TOL."""
    res = ex.homogeneity_residual(phase.psi, set(XI_VARS), 1.0, samples)
    lhs = ex.add(*(ex.mul(ex.var(v), ex.differentiate(phase.psi, v))
                   for v in XI_VARS))
    lhs_v, psi_v = ex.Program([lhs, phase.psi])(samples)
    euler, _ = sup((lhs_v - psi_v) / np.maximum(1.0, np.abs(psi_v)),
                   len(samples))
    tol = HOMOGENEITY_TOL
    return float(np.maximum(res, euler)) <= tol, {
        "residual": res, "euler_residual": euler, "tol": tol}


def check_generating(phase: GeneratingPhase, chi: SymplectoMap,
                     samples: np.ndarray) -> tuple[bool, dict]:
    """Graph consistency: with y := grad_xi psi(x, eta), the map must send
    (y, eta) to (x, grad_x psi(x, eta)) within GENERATING_TOL.

    samples is a sample array of (x, eta) points; both gradients and the
    map run once over all of them, and the residual is NaN-strict.
    """
    count = len(samples)
    # samples carry (x, eta) in the shared names
    grads = ex.Program(phase.grad_xi() + phase.grad_x())(samples)
    y, xi = grads[:2], grads[2:]
    src = dict(zip(X_VARS, y)) | {c: samples[c] for c in XI_VARS}
    got = ex.Program([chi.components[v] for v in X_VARS + XI_VARS])(src)
    want = [samples[v] for v in X_VARS] + xi
    res = np.max([np.abs(np.broadcast_to(g - w, (count,)))
                  for g, w in zip(got, want)], axis=0)
    worst, i = sup(res, count)
    if not worst <= GENERATING_TOL:
        raise GraphMismatchError(f"graph relation fails: residual "
                                 f"{worst:.2e} at {point_at(samples, i)}")
    return True, {"residual": worst, "tol": GENERATING_TOL}


def check_nondegeneracy(phase: GeneratingPhase,
                        grid: np.ndarray | None = None
                        ) -> tuple[bool, dict]:
    """min |d2 psi / dx_n dxi_n| over a collar grid avoiding xi = 0, which
    must be at least NONDEGENERACY_FLOOR.

    grid is a sample array, evaluated in one pass; a NaN on it makes the
    minimum NaN and fails the check.
    The mixed derivative must also keep one sign on the grid; a sign
    change raises SignChangeError.
    """
    mixed = ex.differentiate(ex.differentiate(phase.psi, "xn"), "kn")
    grid = _collar_grid(phase) if grid is None else grid
    vals = np.broadcast_to(ex.eval_array(mixed, grid), (len(grid),))
    if vals.max() > 0.0 and vals.min() < 0.0:
        raise SignChangeError(
            "mixed normal derivative changes sign on the collar grid")
    i = int(np.argmin(np.abs(vals)))
    m = float(np.abs(vals[i]))
    floor = NONDEGENERACY_FLOOR
    return m >= floor, {"min_abs": m, "floor": floor,
                        "sign": float(np.sign(vals[0])),
                        "worst_point": point_at(grid, i)}


def _collar_grid(phase: GeneratingPhase) -> np.ndarray:
    """Sample array over 13 x1 x 7 xn x 12 directions x 3 radii (radius
    fastest)."""
    h = phase.collar_halfwidth
    theta = (np.arange(12) + 0.5) * (2 * np.pi / 12)
    x1, xn, t, r = np.meshgrid(np.linspace(-2.0, 2.0, 13),
                               np.linspace(-h, h, 7), theta,
                               (1.0, 4.0, 64.0), indexing="ij")
    grid = np.empty(x1.size, dtype=SAMPLE_DTYPE)
    grid["x1"], grid["xn"] = x1.ravel(), xn.ravel()
    grid["k1"], grid["kn"] = (r * np.cos(t)).ravel(), (r * np.sin(t)).ravel()
    return grid


def normal_coeffs(phase: GeneratingPhase,
                  xprime_samples: np.ndarray | None = None
                  ) -> tuple[bool, dict]:
    """q+-(x') := d psi/d x_n (x', 0, 0, +-1), with symmetry q+ = -q-.

    metrics: symmetry_residual, the sup of |q+ + q-| over the x' samples;
    kappa, a margin with min |q+| = 4 kappa, so that one sample x' gives
    |q+(x')| as 4 kappa exactly; euler_residual, the cross-check of q+-
    against +-d2 psi/dx_n dxi_n at the same points, which is what degree-1
    homogeneity in xi_n forces through the Euler relation; and degenerate,
    q+ = q- = 0.  It passes when the symmetry holds within
    NORMAL_COEFFS_TOL, kappa > 0 and q+ is not degenerate.  The first-order
    Taylor remainder in x_n is not computed.  Raises SingularAxisError
    when psi is not smooth on the rays (xi' = 0, xi_n = +-1).
    """
    if xprime_samples is None:
        xprime_samples = np.linspace(-1.0, 1.0, 21)
    tol = NORMAL_COEFFS_TOL
    dpsi = ex.differentiate(phase.psi, "xn")
    base = {"x1": xprime_samples}

    def on_ray(e, kn):      # the values of e at (x', 0, 0, kn) on x'
        e = ex.substitute(e, {"xn": 0.0, "k1": 0.0, "kn": kn})
        return np.broadcast_to(ex.eval_array(e, base), xprime_samples.shape)
    try:
        qpv, qmv = on_ray(dpsi, 1.0), on_ray(dpsi, -1.0)
        mixed = ex.differentiate(dpsi, "kn")
        mp, mm = on_ray(mixed, 1.0), on_ray(mixed, -1.0)
    except SingularLocusError as err:
        raise SingularAxisError(
            f"psi is not smooth at (xi', xi_n) = (0, +-1): {err}") from err
    sym = float(np.max(np.abs(qpv + qmv)))
    euler = float(np.max([np.max(np.abs(qpv - mp)),
                          np.max(np.abs(qmv + mm))]))
    kappa = float(np.min(np.abs(qpv))) / 4.0
    degenerate = sym <= tol and float(np.max(np.abs(qpv - qmv))) <= tol
    return (sym <= tol and kappa > 0.0 and not degenerate,
            {"kappa": kappa, "symmetry_residual": sym,
             "euler_residual": euler, "degenerate": degenerate, "tol": tol})


def check_admissibility(phase: GeneratingPhase,
                        max_orders: int = 2) -> tuple[bool, dict]:
    """Transmission condition on every first derivative of psi.

    x-derivatives of a degree-1 phase are homogeneous symbols of degree 1,
    xi-derivatives of degree 0; each runs the parity check at orders up to
    max_orders, and metrics carries each one's max_residual and their
    NaN-strict maximum.
    """
    per_derivative = {}
    worst = 0.0
    ok = True
    degrees = [(v, 1.0) for v in X_VARS] + [(v, 0.0) for v in XI_VARS]
    for v, m in degrees:
        sym = SymbolFn(ex.differentiate(phase.psi, v), order=m,
                       homogeneous_degree=m, name=f"d/d{v} psi")
        passed, r = check_transmission(sym, max_orders)
        per_derivative[f"d{v}"] = r["max_residual"]
        worst = float(np.maximum(worst, r["max_residual"]))
        ok = ok and passed
    return ok, {"max_residual": worst, "per_derivative": per_derivative}
