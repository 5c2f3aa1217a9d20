"""Validation of boundary-preserving homogeneous maps in collar coordinates.

A map chi sends source collar coordinates (y', y_n, eta', eta_n) to
(x', x_n, xi', xi_n).  The collar is the n = 2 one: component expressions
are written in the shared variable names x1, xn (positions) and k1, kn
(covariables), read as the source point.  Checks: fiber homogeneity of
the components, the symplectic matrix identity J^T O J = O, vanishing of
x_n on the boundary, the structural zero blocks and unimodular
sub-blocks of the boundary Jacobian, and a check that the induced
boundary map acts linearly on the cotangent fiber with a unimodular
Jacobian.

Sample points are one numpy structured array with a float field per
variable: ``len(samples)`` is the number of points, ``samples["x1"]`` is
a column, ``samples[i]`` is one point, and the array itself is an
evaluation environment for :mod:`expr`.  Each check evaluates its
expressions once over all of its samples, reduces with :func:`sup` and
returns (passed, metrics), metrics being the body of its report.
The reductions propagate NaN and inf, so a non-finite value at any sample
makes the residual non-finite and fails the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .exceptions import (BoundaryPreservationError, FiberLinearityError)
from .grids import quasi_uniform

# The collar variables, the one definition of their names.
X_VARS = ("x1", "xn")                   # positions (x', x_n)
XI_VARS = ("k1", "kn")                  # covariables (xi', xi_n)
COLLAR_VARS = X_VARS + XI_VARS          # the fields of a sample array
SAMPLE_DTYPE = np.dtype([(v, np.float64) for v in COLLAR_VARS])
# row and column order of the Jacobian: (y', eta', y_n, eta_n)
SOURCE_ORDER = (X_VARS[0], XI_VARS[0], X_VARS[1], XI_VARS[1])

# The canonical form matrix in the (q', p', q_n, p_n) order of SOURCE_ORDER.
SYMPLECTIC_FORM = np.array([[0.0, -1.0, 0.0, 0.0],
                            [1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, -1.0],
                            [0.0, 0.0, 1.0, 0.0]])

HOMOGENEITY_TOL = 1e-10     # relative homogeneity error, maps and phases
SYMPLECTIC_TOL = 1e-10      # max |J^T O J - O|
BOUNDARY_TOL = 1e-12        # sup |x_n| on the boundary
LINEARITY_TOL = 1e-10       # fiber derivatives of the boundary map
ZERO_TOL = 1e-10            # structural zero blocks of J at the boundary
DET_TOL = 1e-8              # unimodular factors of J at the boundary


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
    collar_halfwidth: float = 1.0
    name: str = ""
    # compiled Jacobian program, built by the first jacobian() call
    _jacobian: object = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        need = set(COLLAR_VARS)
        have = set(self.components)
        if have != need:
            raise ValueError(f"map components must be exactly {sorted(need)}")


def collar_samples(chi: SymplectoMap, count: int = 200, seed: int = 7,
                   boundary: bool = False, eta_top: float = 8.0
                   ) -> np.ndarray:
    """Deterministic quasi-uniform samples in the collar with eta != 0.

    Returns a structured array with fields (x', xn, k', kn), see the
    module docstring; x' is in [-1, 1], xn in the collar (0 on boundary
    samples) and |eta| in [0.5, eta_top], at any angle.  The points are
    grids.quasi_uniform's for the seed.
    """
    h = chi.collar_halfwidth
    out = np.empty(count, dtype=SAMPLE_DTYPE)
    # per point the coordinates x1, xn (not on the boundary), |eta| and
    # its angle
    u = quasi_uniform(count, 3 if boundary else 4, seed).T
    scale = 0.5 + (eta_top - 0.5) * u[-2]
    theta = 2.0 * np.pi * u[-1]
    out["x1"] = -1.0 + 2.0 * u[0]
    out["xn"] = 0.0 if boundary else -h + 2.0 * h * u[1]
    out["k1"] = scale * np.cos(theta)
    out["kn"] = scale * np.sin(theta)
    return out


def jacobian(chi: SymplectoMap, points) -> np.ndarray:
    """Matrices of first partials, rows (x', xi', x_n, xi_n) by columns
    (y', eta', y_n, eta_n).

    points is a sample array, giving shape (count, 4, 4), or one point
    (a dict or one sample), giving shape (4, 4).  All 16 entries run as
    one compiled program, kept on chi; constant entries are broadcast to
    every sample.
    """
    if chi._jacobian is None:
        chi._jacobian = ex.Program(
            [ex.differentiate(chi.components[r], c)
             for r in SOURCE_ORDER for c in SOURCE_ORDER])
    shape = points.shape if isinstance(points, np.ndarray) else ()
    return _matrices(chi._jacobian(points), shape, 4)


def _matrices(entries: list, shape: tuple, m: int) -> np.ndarray:
    """Row-major m*m entries (arrays over shape, or scalars) as an array
    of shape shape + (m, m)."""
    out = np.empty(shape + (m * m,))
    for k, val in enumerate(entries):
        out[..., k] = val
    return out.reshape(shape + (m, m))


def check_homogeneity(chi: SymplectoMap, samples: np.ndarray
                      ) -> tuple[bool, dict]:
    """Fiber homogeneity of the components, degree 1 for the covariables
    and 0 for the positions: the worst error over the components by the
    scalar oracle :func:`expr.homogeneity_residual`, NaN-strict, which
    must be at most HOMOGENEITY_TOL."""
    fiber = set(XI_VARS)
    res = float(np.max([
        ex.homogeneity_residual(comp, fiber, 1.0 if name in fiber else 0.0,
                                samples)
        for name, comp in chi.components.items()]))
    return res <= HOMOGENEITY_TOL, {"residual": res, "tol": HOMOGENEITY_TOL}


def check_symplectic(chi: SymplectoMap, samples: np.ndarray
                     ) -> tuple[bool, dict]:
    """Max over samples of ||J^T O J - O||_max, with its worst sample."""
    O = SYMPLECTIC_FORM
    J = jacobian(chi, samples)
    with np.errstate(all="ignore"):    # non-finite entries give NaN
        res = np.max(np.abs(np.swapaxes(J, 1, 2) @ O @ J - O), axis=(1, 2))
    worst, i = sup(res, len(samples))
    return worst <= SYMPLECTIC_TOL, {"residual": worst,
                                     "tol": SYMPLECTIC_TOL,
                                     "worst_point": point_at(samples, i)}


def check_boundary_preserving(chi: SymplectoMap, samples: np.ndarray
                              ) -> tuple[bool, dict]:
    """sup |x_n(y', 0, eta)| over boundary samples."""
    worst, _ = sup(ex.eval_array(chi.components["xn"], samples),
                   len(samples))
    return worst <= BOUNDARY_TOL, {"residual": worst, "tol": BOUNDARY_TOL}


def induced_boundary_map(chi: SymplectoMap, samples: np.ndarray
                         ) -> tuple[bool, dict]:
    """Restrict (x', xi') to y_n = 0 and check the boundary symplectomorphism.

    Verifies eta_n-independence of both parts, eta'-independence of x',
    linearity of xi' in eta', and unimodularity of the boundary Jacobian
    within DET_TOL.  Requires x_n to vanish on the boundary samples (the
    check_boundary_preserving test, on these samples).
    """
    passed, bp = check_boundary_preserving(chi, samples)
    if not passed:
        raise BoundaryPreservationError(
            f"x_n does not vanish on the boundary (sup {bp['residual']:.2e})")
    count = len(samples)
    b = ex.substitute(chi.components["x1"], {"xn": 0.0})
    xib = ex.substitute(chi.components["k1"], {"xn": 0.0})

    # derivatives that must vanish on the boundary, in report order
    vanish = [("dx1/dk1 at boundary", ex.differentiate(b, "k1")),
              ("dx1/dkn at boundary", ex.differentiate(b, "kn")),
              ("dk1/dkn at boundary", ex.differentiate(xib, "kn")),
              ("second eta'-derivative of k1",
               ex.differentiate(ex.differentiate(xib, "k1"), "k1"))]
    vals = ex.Program([d for _, d in vanish])(samples)
    worst, i = sup([sup(v, count)[0] for v in vals], len(vals))
    if not worst <= LINEARITY_TOL:
        raise FiberLinearityError(
            f"boundary map not fiber-trivial: {vanish[i][0]} = {worst:.2e}")

    # unimodularity of the composed boundary Jacobian in (y', eta')
    Jb = _matrices(ex.Program(
        [ex.differentiate(r, s) for r in (b, xib) for s in ("x1", "k1")])(
        samples), (count,), 2)
    det_worst, _ = sup(np.linalg.det(Jb) - 1.0, count)
    return det_worst <= DET_TOL, {"linearity_residual": worst,
                                  "det_residual": det_worst}


def check_jacobian_structure(chi: SymplectoMap, samples: np.ndarray,
                             interior: np.ndarray) -> tuple[bool, dict]:
    """Structural zero blocks and unimodular factors of J at y_n = 0.

    Verifies |dx'/deta_n|, |dxi'/deta_n|, |dx_n/dy'|, |dx_n/deta'|,
    |dx_n/deta_n| <= ZERO_TOL, det of the boundary (y', eta') block
    = 1 +- DET_TOL, and dx_n/dy_n * dxi_n/deta_n = 1 +- DET_TOL on the
    boundary samples, where x_n must vanish; reports min |dx_n/dy_n| over
    the interior samples of the collar, which the verdict does not read.
    """
    passed, bp = check_boundary_preserving(chi, samples)
    if not passed:
        raise BoundaryPreservationError(
            f"structure check needs a boundary-preserving map "
            f"(sup |x_n| = {bp['residual']:.2e})")
    # (x', xi') rows vs the eta_n column, then the x_n row vs the
    # (y', eta') columns and the eta_n column
    zi, zj = [0, 1, 2, 2, 2], [3, 3, 0, 1, 3]

    count = len(samples)
    J = jacobian(chi, samples)
    z = np.max(np.abs(J[:, zi, zj]), axis=1)
    d = np.abs(np.linalg.det(J[:, :2, :2]) - 1.0)
    pr = np.abs(J[:, 2, 2] * J[:, 3, 3] - 1.0)
    zmax, det_res, prod_res = (sup(v, count)[0] for v in (z, d, pr))

    min_dxn = float(np.min(np.abs(jacobian(chi, interior)[:, 2, 2])))

    residual = float(np.max((zmax / ZERO_TOL, det_res / DET_TOL,
                             prod_res / DET_TOL)))
    return residual <= 1.0, {"zero_blocks": zmax,
                             "boundary_det_residual": det_res,
                             "normal_product_residual": prod_res,
                             "min_normal_derivative": min_dxn,
                             "row_order": list(SOURCE_ORDER),
                             "col_order": list(SOURCE_ORDER),
                             "tol_zero": ZERO_TOL, "tol_det": DET_TOL}
