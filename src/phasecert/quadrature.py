"""Panel quadrature for the oscillatory frequency integrals.

Two integrals, one per transform class:

* adaptive Gauss panels, doubled within a budget of (point, node) pairs,
  for absolutely convergent integrands (full-line Schwartz transforms);
* smooth frequency cutoff at radii R, 2R, 4R with Richardson
  extrapolation in 1/R, for integrands decaying only to first order
  (half-line transforms), where sharp truncation does not converge.  The
  three cutoffs share one composite Gauss grid on [-8R, 8R], summed in one
  call against a (panels x order x 3) weight array whose columns are the
  Gauss weights times the cutoff at R, 2R and 4R.  The cutoff is the collar
  cutoff :func:`expr.cutoff_expr`, evaluated at xi / 2R and compiled once.

Both integrals sum through one kernel, :func:`panel_sum`, over the panel frame
(midpoints mid, half-width half, Gauss abscissae g).  Every oscillatory
integrand e^{i phi(x, xi)} a(x, xi) s(xi) at fixed points x is an
:class:`Oscillatory`.  When d^2 phi / d xi^2 folds to exactly Const(0) in
the expression DAG, phi = xi h(x) + c(x), and at a node
xi = mid_p + half g_k the exponential factors as

    e^{i phi} = e^{i (c + mid_p h)} e^{i half g_k h},

the factoring of Filon- and Levin-type quadrature (Levin 1982; Iserles &
Norsett 2005).  The midpoints are equally spaced, so with B = isqrt(P) and
p = jB + l the panel factor splits again,

    e^{i (c + mid_p h)} = e^{i (c + mid_{jB} h)} e^{i (mid_l - mid_0) h},

both factors read from the midpoint array.  The Gauss abscissae are
symmetric, g_{Q-1-k} = -g_k, so e^{i half g_k h} for the upper half of the
nodes are the conjugates of the lower half's: P panels of Q nodes take
ceil(P / B) + B + ceil(Q / 2) complex exponentials per point, once per
call, instead of P Q.  A phase that fails the test (the bad-transmission
phase) takes one exponential per (point, node) pair.

Each amplitude is summed by what it depends on.  One free of xi scales the
plain sum of e^{i phi} s; one in xi but in no array-valued point is one
more weight column of that sum; only one in both is summed on the dense
(points x nodes) kernel, one weight column at a time.  On a linear phase
the plain and column sums contract the panels of each block first,
(points x P) @ (P x Q * columns), summed over the blocks, and the Q nodes
once, after the last block.  Every Oscillatory sum runs over blocks of
whole panels of at most BLOCK (point, node) pairs, so its memory is
bounded by the block, not by the grid.

Integrands are complex-vectorized over the last axis; any leading axes
(e.g. output sample points) ride along, and error estimates are reported
per leading element.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import expr as ex
from .exceptions import QuadratureBudgetError

# Most (point, node) pairs an Oscillatory sums in one step, which bounds its
# intermediates: 2048 nodes at 64 points.
BLOCK = 2**17
# Most (output element, node) pairs one integrate_adaptive call sums, 8.6
# times the catalog's largest call (the 2,000-point transpose, 3,888,000)
PAIR_BUDGET = 2**25

# w(xi / 2R) with 2R bound at evaluation, so it is compiled once
_FREQ_CUTOFF = ex.cutoff_expr(ex.quot(ex.var("xi"), ex.var("two_r")))


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


class Oscillatory:
    """The integrands e^{i phi(x, xi)} a_j(x, xi) s(xi) at fixed points x.

    phi is an expression and amps one expr.Program of real amplitudes a_j
    (a single Expr is compiled to one), both in the frequency kvar and in
    the names of points, which maps each name to a 1-D array over the
    points or to a scalar; spectrum is s, a function of the frequency
    alone (None for 1).  scaled, columns and dense list the amplitudes by
    how they are summed, read from their free variables.  With none in
    kvar, all are evaluated once, here; otherwise once per block.  Grids
    are given by their panel frame: midpoints mid, half-width half and
    Gauss abscissae g, node mid_p + half g_k.
    """

    def __init__(self, phi: ex.Expr, amps, points: dict,
                 spectrum=None, kvar: str = "kn"):
        if isinstance(amps, ex.Expr):
            amps = ex.Program([amps])
        self.phi, self.amps, self.spectrum, self.kvar = \
            phi, amps, spectrum, kvar
        self.env = {k: (v[:, None] if np.ndim(v) else v)
                    for k, v in points.items()}
        self.size = max(len(v) for v in self.env.values() if np.ndim(v))
        arrays = {k for k, v in points.items() if np.ndim(v)}
        self.scaled, self.columns, self.dense = [], [], []
        for j, names in enumerate(amps.out_vars):
            (self.scaled if kvar not in names else self.dense
             if names & arrays else self.columns).append(j)
        self.fixed = None if self.columns or self.dense \
            else amps(self.env)
        self.linear = ex.is_const(ex.differentiate(
            ex.differentiate(phi, kvar), kvar), 0.0)
        if self.linear:
            # phi = kvar * slope + offset, each a (points x 1) column
            at_zero = dict(self.env, **{kvar: 0.0})
            self.slope, self.offset = (
                np.broadcast_to(ex.eval_array(e, at_zero), (self.size, 1))
                for e in (ex.differentiate(phi, kvar), phi))

    def _amp_values(self, nodes: np.ndarray) -> list:
        """The amplitudes at the points, with the nodes as a (1 x nodes)
        row."""
        if self.fixed is not None:
            return self.fixed
        return self.amps(dict(self.env, **{self.kvar: nodes[None, :]}))

    def _blocks(self, mid, half, g):
        """The grid in blocks of whole panels of at most BLOCK (point, node)
        pairs: yields (panels, nodes, outer, inner), panels a slice of mid,
        nodes the block's nodes panel-major and, for a linear phase, outer
        = e^{i (offset + mid_p slope)} (points x panels) and inner =
        e^{i half g_k slope} (points x Q); None for a dense phase.  The
        equally spaced midpoint p = jB + l, B = isqrt(P), is mid_{jB} +
        (mid_l - mid_0), so the ceil(P / B) coarse and B fine exponentials
        are taken once per call and each block gathers its outer factor.
        The abscissae g are a Gauss rule, g[::-1] == -g, so inner takes
        the exponentials of its first ceil(Q / 2) columns and the rest are
        their conjugates in reverse order.
        """
        step = max(1, BLOCK // (self.size * len(g)))
        inner = None
        if self.linear:
            n_b = math.isqrt(len(mid))
            coarse = np.exp(1j * (self.offset + mid[None, ::n_b] * self.slope))
            fine = np.exp(1j * (mid[None, :n_b] - mid[0]) * self.slope)
            inner = np.exp(1j * (half * g[:(len(g) + 1) // 2])[None, :]
                           * self.slope)
            inner = np.concatenate(
                [inner, inner[:, :len(g) // 2][:, ::-1].conj()], axis=1)
        for lo in range(0, len(mid), step):
            p = np.arange(lo, min(lo + step, len(mid)))
            yield (slice(lo, lo + step), (mid[p, None] + half * g).ravel(),
                   coarse[:, p // n_b] * fine[:, p % n_b] if self.linear
                   else None, inner)

    def _kernel(self, nodes, outer, inner) -> np.ndarray:
        """e^{i phi} at every point and the block's nodes, (points x
        nodes), from its outer and inner factors, or densely, one complex
        exp per pair, when outer is None."""
        if outer is None:
            env = dict(self.env, **{self.kvar: nodes[None, :]})
            return np.exp(1j * np.broadcast_to(ex.eval_array(self.phi, env),
                                               (self.size, len(nodes))))
        # in C order, so that the reshape is a view: the gathered outer
        # factor is column-major, and a product in its order is copied
        return np.multiply(outer[..., None], inner[:, None, :],
                           order="C").reshape(self.size, -1)

    def panel_sum(self, mid, half, g, weights) -> np.ndarray:
        """sum over the grid nodes of each amplitude's integrand times
        weights[p, k, ...] at every point: shape (points, amplitudes) +
        weights.shape[2:]."""
        n_q, cols = weights.shape[1], weights.shape[2:]
        weights = weights.reshape(len(mid), n_q, -1)
        n_w = weights.shape[2]
        # the plain sum and its weight columns; on a linear phase they sum
        # the panels of every block first, (points x P) @ (P x Q*columns),
        # and the Q nodes once after the last
        width = (1 + len(self.columns)) * n_w * (n_q if self.linear else 1)
        plain = np.zeros((self.size, width), dtype=complex)
        dense = np.zeros((self.size, len(self.dense), n_w), dtype=complex)
        for panels, nodes, outer, inner in self._blocks(mid, half, g):
            w = weights[panels]
            if self.spectrum is not None:
                w = w * self.spectrum(nodes).reshape(len(w), n_q, 1)
            vals = self._amp_values(nodes)
            kern = None if self.linear else self._kernel(nodes, outer, inner)
            cw = w if not self.columns else np.concatenate(
                [w] + [w * vals[j].reshape(len(w), n_q, 1)
                       for j in self.columns], axis=-1)
            if self.linear:
                plain += outer @ cw.reshape(len(w), -1)
            else:
                plain += kern @ cw.reshape(len(nodes), -1)
            if self.dense:
                if kern is None:
                    kern = self._kernel(nodes, outer, inner)
                # neither is live beside the dense sums' product buffer
                del cw, outer
                # non-finite amplitudes give NaN sums, which fail checks
                with np.errstate(invalid="ignore"):
                    dense += _dense_sums(kern, w.reshape(len(nodes), -1),
                                         [vals[j] for j in self.dense])
        if self.linear:
            plain = np.matmul(inner[:, None, :],
                              plain.reshape(self.size, n_q, -1))[:, 0, :]
        plain = plain.reshape(self.size, -1, n_w)
        out = np.empty((self.size, len(self.amps.out_vars), n_w),
                       dtype=complex)
        for j in self.scaled:
            out[:, j] = vals[j] * plain[:, 0]
        out[:, self.columns] = plain[:, 1:]
        out[:, self.dense] = dense
        return out.reshape((self.size, -1) + cols)

    def point_sum(self, b: np.ndarray, mid, half, g) -> np.ndarray:
        """sum_x b(x) times the integrand of amplitude 0 at every grid
        node, panel-major."""
        parts = []
        for _, nodes, outer, inner in self._blocks(mid, half, g):
            a = self._amp_values(nodes)[0]
            if not self.linear or 0 in self.dense:
                part = b @ (self._kernel(nodes, outer, inner) * a)
            elif 0 in self.scaled:
                # (b a e^{i (offset + mid slope)})^T @ e^{i half g slope}
                part = ((b[:, None] * a * outer).T @ inner).ravel()
            else:
                part = ((b[:, None] * outer).T @ inner).ravel() * a.ravel()
            parts.append(part if self.spectrum is None
                         else part * self.spectrum(nodes))
        return np.concatenate(parts)


def _dense_sums(kern: np.ndarray, w: np.ndarray, amps: list) -> np.ndarray:
    """(points x amplitudes x columns) sums over the nodes of kern w times
    each (points x nodes) amplitude of amps, for the columns of w (nodes x
    columns), one column at a time in one product buffer read as (points
    x nodes x 2) real and imaginary parts."""
    n_x = kern.shape[0]
    out = np.empty((n_x, len(amps), w.shape[1]), dtype=complex)
    ku = np.empty_like(kern)
    re_im = ku.view(float).reshape(n_x, -1, 2)
    for c in range(w.shape[1]):
        np.multiply(kern, w[:, c], out=ku)
        for k, a in enumerate(amps):
            re, im = np.matmul(a[:, None, :], re_im)[:, 0, :].T
            out[:, k, c] = re + 1j * im
    return out


def panel_sum(f, mid, half, g, weights) -> np.ndarray:
    """The quadrature kernel: f summed over the grid nodes mid_p + half g_k
    against weights shaped (panels, order) or (panels, order, columns).
    An Oscillatory integrand sums its amplitude 0 itself, factored when
    its phase is linear; any other callable is evaluated on the nodes.
    """
    if isinstance(f, Oscillatory):
        return f.panel_sum(mid, half, g, weights)[:, 0]
    nodes = (mid[:, None] + half * g).ravel()
    return f(nodes) @ weights.reshape(len(nodes), *weights.shape[2:])


def integrate_fixed(f, a: float, b: float, n_panels: int, order: int = 12):
    x, w = gauss_rule(order)
    mid, half = panel_frame(a, b, n_panels)
    return panel_sum(f, mid, half, x, np.tile(half * w, (n_panels, 1)))


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-9,
                       n0: int = 16, order: int = 12):
    """Panel doubling until successive values agree within tol.

    The floor is relative to the output: a doubling is accepted when every
    difference is at most tol * max(1, max |value|), the largest value over
    all points, since the round-off of the sums scales with the largest
    of them.  A doubling that would take evals times the value's size
    past PAIR_BUDGET pairs is not started; QuadratureBudgetError is raised
    instead.  It is raised at once when some value is non-finite in two
    successive rounds: the two grids share no node, so the integrand, not
    a node, made it.  Returns (value, err_estimate, evals); err is the last
    doubling difference, elementwise over the leading axes of f's output.
    """
    n = n0
    cur = integrate_fixed(f, a, b, n, order)
    evals = n * order
    diff = "none"
    while (evals + 2 * n * order) * np.size(cur) <= PAIR_BUDGET:
        prev = cur
        n *= 2
        cur = integrate_fixed(f, a, b, n, order)
        evals += n * order
        stuck = int(np.sum(~np.isfinite(prev) & ~np.isfinite(cur)))
        if stuck:
            raise QuadratureBudgetError(
                f"{stuck} of {np.size(cur)} values non-finite at both "
                f"{n // 2} and {n} panels")
        err = np.abs(cur - prev)
        scale = np.maximum(1.0, np.max(np.abs(cur)))
        if np.all(err <= tol * scale):
            return cur, err, evals
        diff = f"{float(np.max(err)):.3e}"
    raise QuadratureBudgetError(
        f"no convergence to {tol:g} within {PAIR_BUDGET} (point, node) "
        f"pairs, at {n} panels (last diff {diff})")


def smooth_freq_cutoff(xi, R: float):
    """Even smooth cutoff: 1 for |xi| <= R, 0 for |xi| >= 2R; the collar
    cutoff w(xi / 2R).  w is exactly 1 and 0 there, so it is evaluated
    only on the transition band R < |xi| < 2R."""
    xi = np.asarray(xi, dtype=float)
    size = np.abs(xi)
    out = (size <= R).astype(float)
    band = (size > R) & (size < 2.0 * R)
    out[band] = ex.eval_array(_FREQ_CUTOFF, {"xi": xi[band],
                                             "two_r": 2.0 * R})
    return out


def cutoff_richardson(f, R: float, panels_per_unit: float,
                      order: int = 12, min_panels: int = 64):
    """Richardson-extrapolated smooth-cutoff integrals at radii R, 2R, 4R.

    One composite Gauss grid on [-8R, 8R] with 4m panels, where
    m = max(min_panels, ceil(4R * panels_per_unit)), serves all three
    radii: each panel is as wide as an m-panel grid on [-2R, 2R].  The
    cutoff at radius L*R vanishes for |xi| >= 2LR, so integrating f times
    it over the whole grid gives the radius-L integral.  f is summed by one
    panel_sum against the weight array W[p, k, j] = weights * cutoff(L_j R).

    Models the truncation error as c1/R + c2/R^2 (the tail of a
    first-order-decay oscillatory integrand under a smooth cutoff) and
    eliminates both terms: I ~ (8 I_4R - 6 I_2R + I_R) / 3.
    Returns (value, err_estimate, evals), evals being the node count.
    """
    m = max(min_panels, int(np.ceil(4.0 * R * panels_per_unit)))
    nodes, weights = panel_nodes(-8.0 * R, 8.0 * R, 4 * m, order)
    mid, half = panel_frame(-8.0 * R, 8.0 * R, 4 * m)
    # W is filled column by column, and the nodes are dropped before the
    # sum, so no other grid-sized array is live beside it
    W = np.empty((len(nodes), 3))
    for j, level in enumerate((1.0, 2.0, 4.0)):
        np.multiply(weights, smooth_freq_cutoff(nodes, R * level),
                    out=W[:, j])
    evals = len(nodes)
    del nodes, weights
    acc = panel_sum(f, mid, half, gauss_rule(order)[0],
                    W.reshape(4 * m, order, 3))
    i1, i2, i3 = np.moveaxis(acc, -1, 0)
    j2 = 2.0 * i3 - i2
    extrap = (8.0 * i3 - 6.0 * i2 + i1) / 3.0
    return extrap, np.abs(extrap - j2), evals
