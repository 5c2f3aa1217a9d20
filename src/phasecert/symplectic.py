"""Validation of boundary-preserving homogeneous maps in collar coordinates.

A map chi sends source collar coordinates (y', y_n, eta', eta_n) to
(x', x_n, xi', xi_n).  Component expressions are written in the shared
variable names x1..x{n-1}, xn (positions) and k1..k{n-1}, kn (covariables),
read as the source point.  Checks: the symplectic matrix identity
J^T O J = O, vanishing of x_n on the boundary, the structural zero blocks
and unimodular sub-blocks of the boundary Jacobian, and extraction of the
induced boundary map with its linear cotangent action.

Sample points are one numpy structured array with a float field per
variable: ``len(samples)`` is the number of points, ``samples["x1"]`` is
a column, ``samples[i]`` is one point, and the array itself is an
evaluation environment for :mod:`expr`.  Each check evaluates its
expressions once over all of its samples and reduces with :func:`sup`.
The reductions propagate NaN and inf, so a non-finite value at any sample
makes the residual non-finite and fails the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .exceptions import (BoundaryPreservationError, FiberLinearityError)


def tangential_vars(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n)]


def cotangential_vars(n: int) -> list[str]:
    return [f"k{i}" for i in range(1, n)]


def source_order(n: int) -> list[str]:
    """Column order of the Jacobian: (y', eta', y_n, eta_n)."""
    return tangential_vars(n) + cotangential_vars(n) + ["xn", "kn"]


def as_samples(points) -> np.ndarray:
    """Sample array of points; a list of point dicts is converted, with
    the fields in the key order of its first point."""
    if isinstance(points, np.ndarray):
        return points
    names = list(points[0])
    return np.array([tuple(p[v] for v in names) for p in points],
                    dtype=[(v, np.float64) for v in names])


def point_at(samples: np.ndarray, i: int | None) -> dict[str, float] | None:
    """Sample i as a dict; None for no index."""
    if i is None:
        return None
    return dict(zip(samples.dtype.names, samples[i].tolist()))


def sup(values, count: int) -> tuple[float, int | None]:
    """max |values| over count samples and the first index attaining it.

    A scalar is broadcast to every sample.  NaN propagates: the sup is
    then NaN at the first NaN sample.  The index is None when the sup is
    0, since no sample exceeds it.
    """
    a = np.abs(np.broadcast_to(values, (count,)))
    i = int(np.argmax(a))
    return float(a[i]), (i if a[i] != 0.0 else None)


@dataclass
class SymplectoMap:
    """Explicit component form of a fiber-homogeneous collar map.

    components maps target names (same naming scheme) to expressions in
    the source variables.  Fiber components must be positively homogeneous
    of degree 1 in the covariables, base components of degree 0.
    """

    components: dict[str, ex.Expr]
    n: int = 2
    collar_halfwidth: float = 1.0
    name: str = ""
    # compiled Jacobian program, built by the first jacobian() call
    _jacobian: object = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        need = set(source_order(self.n))
        have = set(self.components)
        if have != need:
            raise ValueError(f"map components must be exactly {sorted(need)}")

    def target_order(self) -> list[str]:
        """Row order of the Jacobian: (x', xi', x_n, xi_n)."""
        return source_order(self.n)

    def eval_at(self, point: dict[str, float]) -> dict[str, float]:
        return {name: ex.evaluate(comp, point)
                for name, comp in self.components.items()}

    def homogeneity_residual(self, samples) -> float:
        """Worst homogeneity error over the components, by the scalar
        oracle :func:`expr.homogeneity_residual`; NaN-strict."""
        fiber = set(cotangential_vars(self.n)) | {"kn"}
        pts = [point_at(samples, i) for i in range(len(samples))]
        return float(np.max([
            ex.homogeneity_residual(comp, fiber,
                                    1.0 if name in fiber else 0.0, pts)
            for name, comp in self.components.items()]))


def collar_samples(chi: SymplectoMap, count: int = 200, seed: int = 7,
                   boundary: bool = False, eta_top: float = 8.0
                   ) -> np.ndarray:
    """Deterministic jittered samples in the collar with eta != 0.

    Returns a structured array with fields (x', xn, k', kn), see the
    module docstring; boundary samples have xn = 0.
    """
    rng = np.random.default_rng(seed)
    n = chi.n
    h = chi.collar_halfwidth
    names = (tangential_vars(n) + ["xn"] + cotangential_vars(n) + ["kn"])
    out = np.empty(count, dtype=[(v, np.float64) for v in names])
    if n == 2:
        # the loop below, vectorized: per point the same uniform draws in
        # the same order, scaled as Generator.uniform scales them
        u = rng.random((count, 3 if boundary else 4)).T
        scale = 0.5 + (eta_top - 0.5) * u[-2]
        theta = 2.0 * np.pi * u[-1]
        out["x1"] = -1.0 + 2.0 * u[0]
        out["xn"] = 0.0 if boundary else -h + 2.0 * h * u[1]
        out["k1"] = scale * np.cos(theta)
        out["kn"] = scale * np.sin(theta)
        return out
    for i in range(count):
        xs = rng.uniform(-1.0, 1.0, n - 1)
        xn = 0.0 if boundary else rng.uniform(-h, h)
        scale, _ = rng.uniform(0.5, eta_top), rng.uniform(0.0, 2.0 * np.pi)
        vec = rng.normal(size=n)
        out[i] = (*xs, xn, *(scale * (vec / np.linalg.norm(vec))))
    return out


def jacobian(chi: SymplectoMap, points) -> np.ndarray:
    """Matrices of first partials, rows (x', xi', x_n, xi_n) by columns
    (y', eta', y_n, eta_n).

    points is a sample array, giving shape (count, 2n, 2n), or one point
    (a dict or one sample), giving shape (2n, 2n).  All (2n)^2 entries run
    as one compiled program, kept on chi; constant entries are broadcast
    to every sample.
    """
    if chi._jacobian is None:
        chi._jacobian = ex._compile_many(
            [ex.differentiate(chi.components[r], c)
             for r in chi.target_order() for c in source_order(chi.n)])
    shape = points.shape if isinstance(points, np.ndarray) else ()
    return _matrices(ex._exec(chi._jacobian, points, False), shape, 2 * chi.n)


def _matrices(entries: list, shape: tuple, m: int) -> np.ndarray:
    """Row-major m*m entries (arrays over shape, or scalars) as an array
    of shape shape + (m, m)."""
    out = np.empty(shape + (m * m,))
    for k, val in enumerate(entries):
        out[..., k] = val
    return out.reshape(shape + (m, m))


def symplectic_form(n: int) -> np.ndarray:
    """Canonical form matrix in the (q', p', q_n, p_n) ordering used here."""
    m = 2 * n
    O = np.zeros((m, m))
    for i in range(n - 1):
        O[i, n - 1 + i] = -1.0
        O[n - 1 + i, i] = 1.0
    O[m - 2, m - 1] = -1.0
    O[m - 1, m - 2] = 1.0
    return O


@dataclass
class CheckReport:
    name: str
    residual: float
    tol: float
    worst_point: dict[str, float] | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def check_symplectic(chi: SymplectoMap, samples=None,
                     tol: float = 1e-10) -> CheckReport:
    """Max over samples of ||J^T O J - O||_max."""
    if samples is None:
        samples = collar_samples(chi)
    O = symplectic_form(chi.n)
    J = jacobian(chi, samples)
    with np.errstate(all="ignore"):    # non-finite entries give NaN
        res = np.max(np.abs(np.swapaxes(J, 1, 2) @ O @ J - O), axis=(1, 2))
    worst, i = sup(res, len(samples))
    return CheckReport("symplectic", worst, tol, point_at(samples, i))


def check_boundary_preserving(chi: SymplectoMap, samples=None,
                              tol: float = 1e-12) -> CheckReport:
    """sup |x_n(y', 0, eta)| over boundary samples."""
    if samples is None:
        samples = collar_samples(chi, boundary=True)
    worst, i = sup(ex.eval_array(chi.components["xn"], samples),
                   len(samples))
    return CheckReport("boundary_preserving", worst, tol,
                       point_at(samples, i))


@dataclass
class BoundaryMap:
    """Induced boundary map: base diffeo b and linear cotangent action.

    b holds one expression per tangential target in the y' variables only;
    cotangent is the (n-1) x (n-1) matrix of expressions M with
    xi'_boundary = M(y') eta'.
    """

    b: dict[str, ex.Expr]
    cotangent: list[list[ex.Expr]]
    n: int = 2

    def eval_b(self, point: dict[str, float]) -> list[float]:
        return [ex.evaluate(self.b[v], point) for v in tangential_vars(self.n)]

    def eval_cotangent(self, point: dict[str, float]) -> np.ndarray:
        return np.array([[ex.evaluate(e, point) for e in row]
                         for row in self.cotangent])


def induced_boundary_map(chi: SymplectoMap, samples=None,
                         lin_tol: float = 1e-10,
                         det_tol: float = 1e-8) -> tuple[BoundaryMap, CheckReport]:
    """Restrict (x', xi') to y_n = 0 and package the boundary symplectomorphism.

    Verifies eta_n-independence of both parts, eta'-independence of x',
    linearity of xi' in eta', and unimodularity of the boundary Jacobian.
    Requires check_boundary_preserving to have passed.
    """
    bp = check_boundary_preserving(chi)
    if not bp.passed:
        raise BoundaryPreservationError(
            f"x_n does not vanish on the boundary (sup {bp.residual:.2e})")
    if samples is None:
        samples = collar_samples(chi, boundary=True)
    count = len(samples)
    n = chi.n
    tvars = tangential_vars(n)
    cvars = cotangential_vars(n)
    b = {t: ex.substitute(chi.components[t], {"xn": 0.0}) for t in tvars}
    xib = {c: ex.substitute(chi.components[c], {"xn": 0.0}) for c in cvars}

    # derivatives that must vanish on the boundary, in report order
    vanish = [(f"d{t}/d{fib} at boundary", ex.differentiate(b[t], fib))
              for t in tvars for fib in cvars + ["kn"]]
    for c in cvars:
        vanish.append((f"d{c}/dkn at boundary",
                       ex.differentiate(xib[c], "kn")))
        vanish += [(f"second eta'-derivative of {c}",
                    ex.differentiate(ex.differentiate(xib[c], f1), f2))
                   for f1 in cvars for f2 in cvars]
    vals = ex.eval_array_many([d for _, d in vanish], samples)
    worst, i = sup([sup(v, count)[0] for v in vals], len(vals))
    if not worst <= lin_tol:
        raise FiberLinearityError(
            f"boundary map not fiber-trivial: {vanish[i][0]} = {worst:.2e}")

    cot = [[ex.substitute(ex.differentiate(chi.components[ci], kj),
                          {"xn": 0.0})
            for kj in cvars] for ci in cvars]
    bm = BoundaryMap(b, cot, n)

    # unimodularity of the composed boundary Jacobian in (y', eta')
    k = n - 1
    rows = [b[t] for t in tvars] + [xib[c] for c in cvars]
    Jb = _matrices(ex.eval_array_many(
        [ex.differentiate(r, s) for r in rows for s in tvars + cvars],
        samples), (count,), 2 * k)
    det_worst, i = sup(np.linalg.det(Jb) - 1.0, count)
    rep = CheckReport("boundary_map", float(np.max((worst, det_worst))),
                      det_tol, point_at(samples, i),
                      details={"linearity_residual": worst,
                               "det_residual": det_worst})
    return bm, rep


def check_jacobian_structure(chi: SymplectoMap, samples=None,
                             zero_tol: float = 1e-10,
                             det_tol: float = 1e-8) -> CheckReport:
    """Structural zero blocks and unimodular factors of J at y_n = 0.

    Verifies |dx'/deta_n|, |dxi'/deta_n|, |dx_n/dy'|, |dx_n/deta'|,
    |dx_n/deta_n| <= zero_tol, det of the boundary (y', eta') block
    = 1 +- det_tol, and dx_n/dy_n * dxi_n/deta_n = 1 +- det_tol; reports
    min |dx_n/dy_n| over the collar.
    """
    bp = check_boundary_preserving(chi)
    if not bp.passed:
        raise BoundaryPreservationError(
            f"structure check needs a boundary-preserving map "
            f"(sup |x_n| = {bp.residual:.2e})")
    if samples is None:
        samples = collar_samples(chi, boundary=True)
    n = chi.n
    cols = source_order(n)
    rows = chi.target_order()
    k = n - 1
    # (x', xi') rows vs the eta_n column, then the x_n row vs the
    # (y', eta') columns and the eta_n column
    zi = [*range(2 * k), *[2 * k] * (2 * k + 1)]
    zj = [*[2 * k + 1] * (2 * k), *range(2 * k), 2 * k + 1]

    count = len(samples)
    J = jacobian(chi, samples)
    z = np.max(np.abs(J[:, zi, zj]), axis=1)
    d = np.abs(np.linalg.det(J[:, :2 * k, :2 * k]) - 1.0)
    pr = np.abs(J[:, 2 * k, 2 * k] * J[:, 2 * k + 1, 2 * k + 1] - 1.0)
    zmax, det_res, prod_res = (sup(v, count)[0] for v in (z, d, pr))
    _, worst_i = sup(np.maximum(np.maximum(z, d), pr), count)

    interior = collar_samples(chi, count=200, seed=11)
    min_dxn = float(np.min(np.abs(jacobian(chi, interior)[:, 2 * k, 2 * k])))

    residual = float(np.max((zmax / zero_tol, det_res / det_tol,
                             prod_res / det_tol)))
    return CheckReport("jacobian_structure", residual, 1.0,
                       point_at(samples, worst_i),
                       details={"zero_blocks": zmax,
                                "boundary_det_residual": det_res,
                                "normal_product_residual": prod_res,
                                "min_normal_derivative": min_dxn,
                                "row_order": rows, "col_order": cols})
