"""Panel quadrature for the oscillatory frequency integrals.

Two modes, keyed on integrand decay:

* direct adaptive Gauss panels with doubling refinement, for absolutely
  convergent integrands (Schwartz transforms, or amplitude decay at least
  ~|xi|^-1.5 combined with first-order transform decay);
* smooth frequency cutoff at radii R, 2R, 4R with Richardson
  extrapolation in 1/R, for integrands decaying only to first order,
  where sharp truncation does not converge.  The three cutoffs share one
  composite Gauss grid on [-8R, 8R]: the integrand is evaluated once per
  node, in chunks of at most CHUNK nodes, and each chunk is contracted
  against a (nodes x 3) weight matrix whose columns are the Gauss weights
  times the cutoff at R, 2R and 4R.  Memory is bounded by the chunk, not
  by the grid.  The cutoff is the collar cutoff :func:`expr.cutoff_expr`,
  evaluated at xi / 2R.

Integrands are complex-vectorized over the last axis; any leading axes
(e.g. output sample points) ride along, and error estimates are reported
per leading element.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import expr as ex
from .exceptions import QuadratureBudgetError

# Largest number of nodes passed to the integrand in one call by
# cutoff_richardson; the (points x nodes) intermediates scale with it.
CHUNK = 2048


@lru_cache(maxsize=None)
def gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_frame(a: float, b: float, n_panels: int):
    """Midpoints and common half-width of n_panels equal panels on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0])


def panel_nodes(a: float, b: float, n_panels: int, order: int = 12):
    """Composite Gauss-Legendre nodes and weights on [a, b], panel-major:
    node p * order + k is mid_p + half * x_k."""
    x, w = gauss_rule(order)
    mid, half = panel_frame(a, b, n_panels)
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights


def integrate_fixed(f, a: float, b: float, n_panels: int, order: int = 12):
    nodes, weights = panel_nodes(a, b, n_panels, order)
    return f(nodes) @ weights


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-9,
                       n0: int = 16, order: int = 12,
                       max_doubles: int = 10):
    """Panel doubling until successive values agree within tol.

    Returns (value, err_estimate, evals); err is the last doubling
    difference, elementwise over the leading axes of f's output.
    """
    n = n0
    prev = integrate_fixed(f, a, b, n, order)
    evals = n * order
    for _ in range(max_doubles):
        n *= 2
        cur = integrate_fixed(f, a, b, n, order)
        evals += n * order
        err = np.abs(cur - prev)
        scale = np.maximum(1.0, np.abs(cur))
        if np.all(err <= tol * scale):
            return cur, err, evals
        prev = cur
    raise QuadratureBudgetError(
        f"no convergence to {tol:g} after {max_doubles} doublings "
        f"(last diff {float(np.max(err)):.3e})")


def smooth_freq_cutoff(xi, R: float):
    """Even smooth cutoff: 1 for |xi| <= R, 0 for |xi| >= 2R; the collar
    cutoff w(xi / 2R)."""
    w = ex.cutoff_expr(ex.quot(ex.var("xi"), ex.const(2.0 * R)))
    return ex.eval_array(w, {"xi": np.asarray(xi, dtype=float)})


def cutoff_richardson(f, R: float, panels_per_unit: float,
                      order: int = 12, min_panels: int = 64):
    """Richardson-extrapolated smooth-cutoff integrals at radii R, 2R, 4R.

    One composite Gauss grid on [-8R, 8R] with 4m panels, where
    m = max(min_panels, ceil(4R * panels_per_unit)), serves all three
    radii: each panel is as wide as an m-panel grid on [-2R, 2R].  The
    cutoff at radius L*R vanishes for |xi| >= 2LR, so integrating f times
    it over the whole grid gives the radius-L integral.  f is evaluated
    once per node, in chunks of at most CHUNK nodes, and each chunk is
    contracted with the weight matrix W[:, j] = weights * cutoff(L_j R).

    Models the truncation error as c1/R + c2/R^2 (the tail of a
    first-order-decay oscillatory integrand under a smooth cutoff) and
    eliminates both terms: I ~ (8 I_4R - 6 I_2R + I_R) / 3.
    Returns (value, err_estimate, evals), evals being the node count.
    """
    m = max(min_panels, int(np.ceil(4.0 * R * panels_per_unit)))
    nodes, weights = panel_nodes(-8.0 * R, 8.0 * R, 4 * m, order)
    W = np.stack([weights * smooth_freq_cutoff(nodes, R * level)
                  for level in (1.0, 2.0, 4.0)], axis=1)
    acc = sum(f(nodes[lo:lo + CHUNK]) @ W[lo:lo + CHUNK]
              for lo in range(0, len(nodes), CHUNK))
    i1, i2, i3 = np.moveaxis(acc, -1, 0)
    j2 = 2.0 * i3 - i2
    extrap = (8.0 * i3 - 6.0 * i2 + i1) / 3.0
    return extrap, np.abs(extrap - j2), len(nodes)
