"""Regularized phase construction and growth-condition certification.

For a generating phase psi with collar remainder phi = psi - psi_b, the
regularized phase in the normal pair (t, tau) is

    *Phi(t, tau) = w_k(t/r) phi(x', t/r, xi', tau r) + (1 - w_k(t/r)) K t tau

with r = <xi'> and a smooth even cutoff w_k(s) = w(s/k) that is 1 for
|s| <= k/2 and 0 for |s| >= k.  Three conditions are certified on pinned
(t, tau) grids:

  P1:  |d_t^a d_tau^al *Phi| <= C_a,al <t>^(1-a) <tau>^(1-al)
  P2:  c <tau> <= <d_t *Phi> <= C <tau>  and  c <t> <= <d_tau *Phi> <= C <t>
  P3:  |d_t d_tau *Phi| >= eps > 0, with constant sign

together with uniformity of the constants over (x', <xi'>) samples, and a
deterministic search for the smallest working (k, K) pair.  The cutoff w
is :func:`expr.cutoff_expr`, and the (t, tau) grid is the pinned ladder
:func:`grids.sg_ladder` in both variables.
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
# the grid digest of the pinned (t, tau) ladder that every sweep runs on
LADDER_DIGEST = grid_digest(t=sg_ladder(), tau=sg_ladder())


@dataclass
class Margins:
    c_min: float = 1e-2
    eps_min: float = 1e-2
    c_max: float = 1e4
    ratio_max: float = 3.0


@dataclass
class PhaseConstants:
    """Grid constants for one frozen (x', xi'): the P1 table, the P2
    two-sided bounds, and the P3 floor."""

    table: dict[tuple[int, int], float]
    c_t: float
    C_t: float
    c_tau: float
    C_tau: float
    eps: float
    eps_sign: float

    def flat(self) -> dict[str, float]:
        out = {f"C_{a}{al}": v for (a, al), v in self.table.items()}
        out.update(c_t=self.c_t, C_t=self.C_t, c_tau=self.c_tau,
                   C_tau=self.C_tau, eps=self.eps)
        return out

    def passes(self, m: Margins) -> bool:
        # every bound is stated so that a NaN constant fails it
        lows = np.array([self.c_t, self.c_tau, self.eps])
        highs = np.array([self.C_t, self.C_tau, *self.table.values()])
        return bool(np.all(lows >= [m.c_min, m.c_min, m.eps_min])
                    and np.all(highs <= m.c_max))


class StarPhaseFamily:
    """The regularized phase with (x', xi') left symbolic.

    One expression (and one derivative table) serves every frozen sample:
    freezing only binds values at evaluation time, so the symbolic work
    and the compiled DAG are shared across the whole uniformity sweep.
    A rung binds r and xi' as scalars and may bind x1 as an array of x'
    samples, so the sweep runs the table once per rung.
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
        self.order_bound = order_bound
        t, tau, r = ex.var("t"), ex.var("tau"), ex.var("r")
        clash = {"t", "tau", "r"} & ex.free_vars(phase.psi)
        if clash:
            raise ValueError(f"phase uses reserved variable names {clash}")
        phi_resc = ex.substitute(
            phase.phi, {"xn": ex.quot(t, r), "kn": ex.mul(tau, r)})
        gate = cutoff_expr(ex.quot(t, ex.mul(r, ex.const(self.k))))
        ktt = ex.mul(ex.const(self.K), t, tau)
        self.expr = ex.add(ex.guard(gate, phi_resc),
                           ex.mul(ex.sub(ex.const(1.0), gate), ktt))
        self._derivs: dict[tuple[int, int], ex.Expr] = {(0, 0): self.expr}
        self._compiled = None

    def deriv(self, a: int, al: int) -> ex.Expr:
        key = (a, al)
        if key not in self._derivs:
            if al > 0:
                base = self.deriv(a, al - 1)
                self._derivs[key] = ex.differentiate(base, "tau")
            else:
                base = self.deriv(a - 1, 0)
                self._derivs[key] = ex.differentiate(base, "t")
        return self._derivs[key]

    def _deriv_table(self):
        keys = [(a, al)
                for a in range(self.order_bound + 1)
                for al in range(self.order_bound + 1)]
        exprs = [self.deriv(a, al) for a, al in keys]
        if self._compiled is None:
            self._compiled = ex.Program(exprs)
        return keys, self._compiled

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

    def constants_at(self, xprime, rung: float, sign: int = 1,
                     tgrid: np.ndarray | None = None,
                     taugrid: np.ndarray | None = None
                     ) -> PhaseConstants | list[PhaseConstants]:
        """Evaluate the full derivative table on the pinned grid and reduce
        to the P1/P2/P3 constants for frozen samples at one rung.

        xprime is one x' (a float: one PhaseConstants) or a 1-D array of
        them (a list of PhaseConstants, in order).  The (t, tau) grid
        depends on the rung alone, so every x' shares it and the table is
        one program execution with x1 bound as a leading axis: (m, 1, 1)
        against t (1, T, 1) and tau (1, 1, U).
        """
        if tgrid is None:
            tgrid = sg_ladder()
        if taugrid is None:
            taugrid = sg_ladder()
        tgrid = self.eval_tgrid(rung, np.asarray(tgrid, dtype=float))
        xs = np.asarray(xprime, dtype=float)
        m, nt, nu = xs.size, len(tgrid), len(taugrid)
        keys, prog = self._deriv_table()
        env = self.env_for(xs.reshape(m, 1, 1), rung, sign)
        env["t"] = tgrid[None, :, None]
        env["tau"] = taugrid[None, None, :]
        vals = dict(zip(keys, prog(env)))
        bt = np.sqrt(1.0 + tgrid * tgrid)[None, :, None]
        btau = np.sqrt(1.0 + taugrid * taugrid)[None, None, :]

        def per_x(v, reduce):
            # reduced at v's own shape, whose leading axis is 1 where v does
            # not depend on x', then repeated per x': max and min are exact,
            # so this equals reducing v broadcast to (m, T, U)
            v = np.broadcast_to(v, np.broadcast_shapes(np.shape(v),
                                                       (1, nt, nu)))
            return np.broadcast_to(reduce(v, axis=(1, 2)), (m,))

        rows = range(m)
        tables = [{} for _ in rows]
        for (a, al), D in vals.items():
            w = np.abs(D) * bt ** (a - 1) * btau ** (al - 1)
            for i, v in zip(rows, per_x(w, np.max).tolist()):
                tables[i][(a, al)] = v

        d10, d01, d11 = vals[(1, 0)], vals[(0, 1)], vals[(1, 1)]
        q_t = np.sqrt(1.0 + d10 * d10) / btau
        q_tau = np.sqrt(1.0 + d01 * d01) / bt
        c_t, C_t = per_x(q_t, np.min), per_x(q_t, np.max)
        c_tau, C_tau = per_x(q_tau, np.min), per_x(q_tau, np.max)
        lo, hi = per_x(d11, np.min), per_x(d11, np.max)
        eps = per_x(np.abs(d11), np.min)
        out = []
        for i in rows:
            sign_ok = lo[i] > 0.0 or hi[i] < 0.0
            out.append(PhaseConstants(
                tables[i], float(c_t[i]), float(C_t[i]), float(c_tau[i]),
                float(C_tau[i]), float(eps[i] if sign_ok else -eps[i]),
                float(np.sign(hi[i])) if sign_ok else 0.0))
        return out if xs.ndim else out[0]


# Constants whose spread across (x', <xi'>) is the grid statement of
# "do not depend on (x', xi')": the inf-side bounds, which are the ones
# that could degenerate.  Sup-side constants carry cutoff-derivative
# terms scaling like (1/(r k))^(a-1) at low rungs, so their attained grid
# sups are rung-dependent for every admissible cutoff; they are certified
# uniformly bounded through the margins instead of ratio-stable.
RATIO_KEYS = ("c_t", "c_tau", "eps")


@dataclass
class UniformityReport:
    ratios: dict[str, float]
    per_combo: list[dict]
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
    x' in one :meth:`StarPhaseFamily.constants_at` call; combos run x'
    outer, rung inner.  Per-constant spread is the
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
    ladder = sg_ladder()
    signs = [1 if j % 2 == 0 else -1 for j in range(len(rungs))]
    xs = np.asarray(xprimes, dtype=float)
    by_rung = [fam.constants_at(xs, float(rung), sign, ladder, ladder)
               for rung, sign in zip(rungs, signs)]
    per_combo = []
    failures = []
    for i, xp in enumerate(xprimes):
        for rung, batch in zip(rungs, by_rung):
            cs = batch[i]
            per_combo.append(cs.flat())
            if cs.eps_sign == 0.0:
                failures.append(
                    f"sign change at x'={xp:.3f}, rung={rung:g}")
            elif not cs.passes(margins):
                failures.append(
                    f"margins fail at x'={xp:.3f}, rung={rung:g}")
    ratios = {}
    for key in per_combo[0]:
        vals = np.array([pc[key] for pc in per_combo])
        if np.isnan(vals).any():
            ratios[key] = float("nan")      # a NaN constant must show
        elif key.startswith("c_") or key == "eps":
            ratios[key] = float(vals.max() / vals.min()) \
                if vals.min() > 0 else float("inf")
        else:
            live = vals[np.abs(vals) > ZERO_FLOOR]
            ratios[key] = float(live.max() / live.min()) if len(live) else 1.0
    return UniformityReport(ratios, per_combo, margins.ratio_max, failures)


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
    worst = {}
    for combo in rep.per_combo:
        for key, v in combo.items():
            worst[key] = float(np.maximum(worst.get(key, 0.0), v))
    mins = {key: float(np.min([c[key] for c in rep.per_combo]))
            for key in RATIO_KEYS}
    return rep.passed, {"k": k, "K": K, "trials": trials,
                        "ratios": {key: rep.ratios[key] for key in RATIO_KEYS},
                        "spread": rep.spread,
                        "constants_max": worst,
                        "constants_min": mins,
                        "grid": LADDER_DIGEST,
                        "failures": rep.failures[:5]}
