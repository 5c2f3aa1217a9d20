"""Regularized phase construction and growth-condition certification.

For a generating phase psi with collar remainder phi = psi - psi_b, the
regularized phase in the normal pair (t, tau) is

    *Phi(t, tau) = w_k(t/r) phi(x', t/r, xi', tau r) + (1 - w_k(t/r)) K t tau

with r = <xi'> and a smooth even cutoff w_k(s) = w(s/k) that is 1 for
|s| <= k/2 and 0 for |s| >= k.  It is built as K t tau + w_k (phi - K t
tau), and off the cutoff's support it is exactly K t tau, so phi is read
only on the t columns where w_k is live.  Three conditions are certified
on pinned (t, tau) grids:

  P1:  |d_t^a d_tau^al *Phi| <= C_a,al <t>^(1-a) <tau>^(1-al)
  P2:  c <tau> <= <d_t *Phi> <= C <tau>  and  c <t> <= <d_tau *Phi> <= C <t>
  P3:  |d_t d_tau *Phi| >= eps > 0, with constant sign

together with uniformity of the constants over (x', <xi'>) samples, and a
deterministic search for the smallest working (k, K) pair.  The cutoff w
is :func:`expr.cutoff_expr`, and the (t, tau) grid is the pinned ladder
LADDER, :func:`grids.sg_ladder`, in both variables.

Every constant is an array keyed by its report name (C_{a}{al}, c_t, C_t,
c_tau, C_tau, eps): one entry per x' from
:meth:`StarPhaseFamily.constants_at`, one per (x', rung) in a
:class:`UniformityReport`.  The margins, the failures and the ratios are
computed on those arrays.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expr as ex
from .exceptions import CalibrationError, CollarBoundsError
from .expr import cutoff_expr
from .grids import bracket_ladder, grid_digest, sg_ladder
from .phase import GeneratingPhase

ZERO_FLOOR = 1e-9   # constants below this count as structurally zero
# the pinned ladder every sweep runs on in t and in tau, and its digest
LADDER = sg_ladder()
LADDER_DIGEST = grid_digest(t=LADDER, tau=LADDER)


@dataclass
class Margins:
    c_min: float = 1e-2
    eps_min: float = 1e-2
    c_max: float = 1e4
    ratio_max: float = 3.0


def within_margins(constants: dict[str, np.ndarray],
                   m: Margins) -> np.ndarray:
    """Where every constant of constants (arrays keyed by report name)
    meets its margin: c_t, c_tau >= c_min, eps >= eps_min and every C_*
    <= c_max.  Each bound is stated so that a NaN constant fails it."""
    lows = [constants["c_t"] >= m.c_min, constants["c_tau"] >= m.c_min,
            constants["eps"] >= m.eps_min]
    highs = [v <= m.c_max for key, v in constants.items()
             if key.startswith("C_")]
    return np.all(lows + highs, axis=0)


def _block_bounds(vals: dict, t: np.ndarray) -> dict:
    """name -> (np.maximum or np.minimum, bound) of the P1/P2/P3
    quantities of one block of the derivative table, on the t columns t
    against the whole ladder; each bound is reduced over (t, tau) and keeps
    its entry's leading axis, m or 1 where it does not depend on x'.  The
    P3 sign test reads d11_min and d11_max.

    An entry is reduced over the axes it has, never broadcast to the whole
    (m, T, U) grid.  The weight of C_{a}{al} is <t>^(a-1) <tau>^(al-1),
    and an entry free of tau, a scalar or of shape (m, T, 1), meets only
    the largest tau weight: for x >= 0 and w > 0 rounding is monotone,
    so max fl(x_i w_j) = fl(max x * max w) bit for bit, and a NaN shows
    in both."""
    bt = np.sqrt(1.0 + t * t)[None, :, None]
    btau = np.sqrt(1.0 + LADDER * LADDER)[None, None, :]

    def sup(v):
        return np.maximum, np.max(v, axis=(1, 2))

    def inf(v):
        return np.minimum, np.min(v, axis=(1, 2))

    out = {}
    for (a, al), D in vals.items():
        x = np.abs(D) * bt ** (a - 1)
        w = btau ** (al - 1)
        out[f"C_{a}{al}"] = sup(x * (w if x.shape[2] > 1 else np.max(w)))
    d10, d01, d11 = vals[(1, 0)], vals[(0, 1)], vals[(1, 1)]
    # a scalar d11 as a (1, 1, 1) array, so that it has the axes to reduce
    d11 = np.reshape(d11, np.shape(d11) or (1, 1, 1))
    q_t = np.sqrt(1.0 + d10 * d10) / btau
    q_tau = np.sqrt(1.0 + d01 * d01) / bt
    out.update(c_t=inf(q_t), C_t=sup(q_t), c_tau=inf(q_tau), C_tau=sup(q_tau),
               eps=inf(np.abs(d11)), d11_min=inf(d11), d11_max=sup(d11))
    return out


class StarPhaseFamily:
    """The regularized phase with (x', xi') left symbolic.

    One expression, its derivative table up to order_bound in t and in
    tau, and the table's compiled program serve every frozen sample:
    freezing only binds values at evaluation time, so the symbolic work
    and the compiled DAG are shared across the whole uniformity sweep.
    A rung binds r and xi' as scalars and may bind x1 as an array of x'
    samples, so the sweep runs the table once per rung.  Two small
    programs go with it: the cutoff gate w_k(t/r), which picks the t
    columns the table runs on, and the table of K t tau, which equals the
    table on every other column.
    """

    def __init__(self, phase: GeneratingPhase, k: float, K: float,
                 order_bound: int = 3):
        if k > phase.collar_halfwidth / 2.0 + 1e-12:
            raise CollarBoundsError(
                f"cutoff scale k = {k} exceeds half the collar width "
                f"{phase.collar_halfwidth}")
        self.phase = phase
        self.k = float(k)
        self.K = float(K)
        t, tau, r = ex.var("t"), ex.var("tau"), ex.var("r")
        clash = {"t", "tau", "r"} & ex.free_vars(phase.psi)
        if clash:
            raise ValueError(f"phase uses reserved variable names {clash}")
        phi_resc = ex.substitute(
            phase.phi, {"xn": ex.quot(t, r), "kn": ex.mul(tau, r)})
        gate = cutoff_expr(ex.quot(t, ex.mul(r, ex.const(self.k))))
        ktt = ex.mul(ex.const(self.K), t, tau)
        self.expr = ex.add(ktt, ex.mul(gate, ex.sub(phi_resc, ktt)))
        # (a, al) -> d_t^a d_tau^al, t applied first
        orders = [("t", order_bound), ("tau", order_bound)]
        self.table = ex.derivative_table(self.expr, orders)
        self.program = ex.Program(list(self.table.values()))
        # the gate itself picks the live columns, not |t| < r k: the bump
        # is 0 where its argument is at most 1e-3, so w_k is 0 on a thin
        # band inside the open support too, and phi is not read there
        self.gate_program = ex.Program([gate])
        self.ktt_program = ex.Program(
            list(ex.derivative_table(ktt, orders).values()))

    def env_for(self, xprime: float | np.ndarray, rung: float,
                sign: int = 1) -> dict:
        xi = sign * math.sqrt(max(rung * rung - 1.0, 0.0))
        return {"x1": xprime, "k1": xi, "r": float(rung)}

    def eval_tgrid(self, rung: float, tgrid: np.ndarray) -> np.ndarray:
        """Pinned ladder augmented with points resolving the cutoff's
        transition band |t| in [r k / 2, r k], clipped to the ladder range.

        The cutoff derivatives are sharply peaked there; without the band
        the sup estimates of the higher P1 constants are not stable under
        ladder refinement.  Augmentation only adds points, so estimates
        remain monotone in the grid.
        """
        top = float(np.max(np.abs(tgrid)))
        band = rung * self.k * np.linspace(0.35, 1.05, 29)
        band = band[band <= top]
        if len(band) == 0:
            return tgrid
        # sorted distinct values, as np.unique, which would import numpy.ma
        out = np.sort(np.concatenate([tgrid, band, -band]))
        return out[np.concatenate(([True], out[1:] != out[:-1]))]

    def constants_at(self, xprime, rung: float,
                     sign: int = 1) -> dict[str, np.ndarray]:
        """Evaluate the derivative table on the pinned grid and reduce it
        to the P1/P2/P3 constants of the frozen samples at one rung.

        The constants are arrays of xprime's shape, keyed by report name:
        C_{a}{al} for the P1 table, c_t, C_t, c_tau and C_tau for P2, eps
        for P3 (negated where d_t d_tau *Phi changes sign) and eps_sign
        (0 there).  The (t, tau) grid depends on the rung alone, so every
        x' shares it and the table is one program execution with x1 bound
        as a leading axis: (m, 1, 1) against t (1, T, 1), tau (1, 1, U).
        It runs on the t columns where the gate is nonzero and the table
        of K t tau on the others.
        """
        tgrid = self.eval_tgrid(rung, LADDER)
        live = self.gate_program({"t": tgrid, "r": float(rung)})[0] != 0.0
        xs = np.asarray(xprime, dtype=float)
        env = self.env_for(xs.reshape(xs.size, 1, 1), rung, sign)
        env["tau"] = LADDER[None, None, :]
        bounds = {}
        # one block of t columns at a time, so no full (m, T, U) table is
        # built: max and min over the union are those of the blocks' bounds
        for program, t in ((self.program, tgrid[live]),
                           (self.ktt_program, tgrid[~live])):
            if t.size:
                env["t"] = t[None, :, None]
                for name, (pair, v) in _block_bounds(
                        dict(zip(self.table, program(env))), t).items():
                    bounds[name] = (pair(bounds[name], v) if name in bounds
                                    else v)
        # repeated from each bound's own leading axis, 1 where it does not
        # depend on x', to xprime's shape
        out = {name: np.resize(v, xs.shape) for name, v in bounds.items()}
        lo, hi = out.pop("d11_min"), out.pop("d11_max")
        sign_ok = (lo > 0.0) | (hi < 0.0)
        out["eps"] = np.where(sign_ok, out["eps"], -out["eps"])
        out["eps_sign"] = np.where(sign_ok, np.sign(hi), 0.0)
        return out


# Constants whose spread across (x', <xi'>) is the grid statement of
# "do not depend on (x', xi')": the inf-side bounds, which are the ones
# that could degenerate.  Sup-side constants carry cutoff-derivative
# terms scaling like (1/(r k))^(a-1) at low rungs, so their attained grid
# sups are rung-dependent for every admissible cutoff; they are certified
# uniformly bounded through the margins instead of ratio-stable.
RATIO_KEYS = ("c_t", "c_tau", "eps")


@dataclass
class UniformityReport:
    """ratios and failures of a uniformity sweep; constants holds each
    constant of :meth:`StarPhaseFamily.constants_at` but eps_sign as one
    (x', rung) array."""
    ratios: dict[str, float]
    constants: dict[str, np.ndarray]
    ratio_max: float
    failures: list[str] = field(default_factory=list)

    @property
    def spread(self) -> float:
        # np.max, not max(): a NaN ratio must show whatever its position
        return float(np.max([self.ratios[k] for k in RATIO_KEYS]))

    @property
    def passed(self) -> bool:
        return not self.failures and self.spread <= self.ratio_max


def check_uniformity(phase: GeneratingPhase, k: float, K: float,
                     xprimes=None, rungs=None,
                     margins: Margins | None = None,
                     order_bound: int = 3) -> UniformityReport:
    """Spread of the P1/P2/P3 constants over (x', <xi'>) samples.

    Signs of xi' alternate along the ladder, and each rung evaluates every
    x' in one :meth:`StarPhaseFamily.constants_at` call.  A combo fails
    on a sign change of d_t d_tau *Phi, else on a missed margin; failures
    run x' outer, rung inner.  Per-constant spread is the
    max/min ratio over the samples, computed only where the constant is
    above the structural-zero floor; a constant that vanishes on every
    sample is uniform by convention, and a NaN constant on any sample
    makes its ratio NaN.
    """
    margins = margins or Margins()
    if xprimes is None:
        xprimes = np.linspace(-1.0, 1.0, 9)
    if rungs is None:
        rungs = bracket_ladder().tolist()
    fam = StarPhaseFamily(phase, k, K, order_bound)
    xs = np.asarray(xprimes, dtype=float)
    by_rung = [fam.constants_at(xs, float(rung), 1 if j % 2 == 0 else -1)
               for j, rung in enumerate(rungs)]
    constants = {key: np.stack([c[key] for c in by_rung], axis=1)
                 for key in by_rung[0]}
    flips = constants.pop("eps_sign") == 0.0
    bad = flips | ~within_margins(constants, margins)
    failures = [f"{'sign change' if flips[i, j] else 'margins fail'} at "
                f"x'={xs[i]:.3f}, rung={rungs[j]:g}"
                for i, j in zip(*np.nonzero(bad))]
    ratios = {}
    for key, vals in constants.items():
        if np.isnan(vals).any():
            ratios[key] = float("nan")      # a NaN constant must show
        elif key.startswith("c_") or key == "eps":
            ratios[key] = float(vals.max() / vals.min()) \
                if vals.min() > 0 else float("inf")
        else:
            live = vals[np.abs(vals) > ZERO_FLOOR]
            ratios[key] = float(live.max() / live.min()) if len(live) else 1.0
    return UniformityReport(ratios, constants, margins.ratio_max, failures)


@dataclass
class Calibration:
    k: float
    K: float
    trials: int
    report: UniformityReport
    margins: Margins

    def as_dict(self) -> dict:
        return {"k": self.k, "K": self.K, "trials": self.trials,
                "ratios": self.report.ratios, "grid": LADDER_DIGEST,
                "margins": asdict(self.margins)}


def calibrate(phase: GeneratingPhase, margins: Margins | None = None,
              max_steps: int = 12) -> Calibration:
    """Deterministic search for the first (k, K) passing P1-P3 + uniformity.

    K doubles from 1 and k halves from collar/2, at most max_steps each;
    trial order is by total step count (preferring small K), screened on a
    reduced 3 x 3 sample and confirmed on the full sweep before acceptance.
    """
    margins = margins or Margins()
    half = phase.collar_halfwidth / 2.0
    pairs = sorted(
        ((ik + jk, ik, jk) for ik in range(max_steps)
         for jk in range(max_steps)),
        key=lambda p: (p[0], p[1]))
    screen_x = np.linspace(-1.0, 1.0, 3)
    screen_rungs = [1.0, 16.0, 256.0]
    trials = 0
    for _, iK, jk in pairs:
        K = 2.0**iK
        k = half / 2.0**jk
        trials += 1
        quick = check_uniformity(phase, k, K, screen_x, screen_rungs,
                                 margins, order_bound=1)
        if not quick.passed:
            continue
        full = check_uniformity(phase, k, K, margins=margins)
        if full.passed:
            return Calibration(k, K, trials, full, margins)
    raise CalibrationError(
        f"no (k, K) pair accepted within {trials} trials "
        f"(K <= {2.0**(max_steps - 1):g}, k >= {half / 2.0**(max_steps - 1):g})")


def check_conditions(phase: GeneratingPhase, params: dict | None,
                     margins: Margins) -> tuple[bool, dict]:
    """P1-P3 and uniformity at the pair params = {"k": k, "K": K}, or at
    the pair calibrate finds when params is None.  metrics carries the
    pair, the calibration trials (0 for a given pair), the inf-side ratios
    and their spread, each constant's NaN-strict maximum over the
    (x', <xi'>) combos and the inf-side ones' minima, LADDER_DIGEST and
    the first five failures."""
    if params is None:
        cal = calibrate(phase, margins=margins)
        k, K, rep, trials = cal.k, cal.K, cal.report, cal.trials
    else:
        k, K = params["k"], params["K"]
        rep = check_uniformity(phase, k, K, margins=margins)
        trials = 0
    worst = {key: float(np.max(v, initial=0.0))
             for key, v in rep.constants.items()}
    mins = {key: float(np.min(rep.constants[key])) for key in RATIO_KEYS}
    return rep.passed, {"k": k, "K": K, "trials": trials,
                        "ratios": {key: rep.ratios[key] for key in RATIO_KEYS},
                        "spread": rep.spread,
                        "constants_max": worst,
                        "constants_min": mins,
                        "grid": LADDER_DIGEST,
                        "failures": rep.failures[:5]}
