"""Scenario-driven execution of the whole check stack.

A scenario (JSON) declares a phase and/or a map, an amplitude, grids,
margins, a check selector and a seed; the runner executes the selected
check families in dependency order

    symplecto -> phase -> generating -> sg -> operator -> opsymb

with downstream families skipped (not passed) when their prerequisites
fail.  Reports are deterministic: on one machine the same scenario and
seed produce byte-identical CSV bodies.

The report digest is the SHA-256 of a canonical form of the result body
(``RunReport.canonical_body``), made so that round-off does not move it:
the same scenario and seed give the same digest under any BLAS kernel
or thread count, which makes it stable enough to pin golden runs.

* Statuses, messages, strings, ints, booleans, ``None`` and grid hashes
  are hashed exactly, and so are the tolerance constants (metrics named
  ``tol``, ``tol_*`` or ``floor``).
* A non-finite float is hashed as ``nan``, ``inf`` or ``-inf``, which no
  finite value hashes as.
* A computed float below its check's floor in magnitude is hashed as 0.
  The floor is ``FLOOR_RATIO`` (1e-3) times the check's tolerance,
  clamped to [``FLOOR_MIN``, ``FLOOR_CAP``] = [1e-13, 1e-7]: the lower
  bound, 50 times the largest change between BLAS kernels seen near 0
  (2e-15), keeps a tight
  tolerance (the 1e-12 of ``symplecto.boundary_preserving``) from letting
  round-off through; the upper bound keeps a coarse one from hiding a
  change of 1e-6.  The tolerance is the check's ``tol`` metric (the
  smallest ``tol_*`` metric where it has several); ``FIT_TOL`` (0.1) for
  the slopes of ``opsymb.order_fit``; and ``DEFAULT_TOL`` (1e-10, the
  library's default residual tolerance) for checks that report none
  (``operator.l2_bound``, ``phase.nondegeneracy``,
  ``phase.admissibility``, ``symplecto.boundary_map``,
  ``operator.amplitude_transmission``,
  ``operator.quadrature_consistency``).  The floor of ``sg.conditions``
  is ``sgphase.ZERO_FLOOR`` (1e-9) itself, the level below which the
  library treats a constant as structurally zero.
* Every other float is hashed at ``DIGEST_SIG_DIGITS`` (9) significant
  digits.
* A ``worst_point`` beside a ``residual`` that hashes as 0 locates
  round-off, and is left out.

What this rounds away: order-fit slopes whose target is 0 (seen between
1e-32 and 3e-16), residuals at round-off level (seen up to 4e-15),
structurally zero sg constants (seen up to 1.4e-12), and the last digits
of every other value (seen to move by up to 2.5e-13 relative between
OpenBLAS kernels).  A value that lies within round-off of a 9-digit
rounding boundary can still flip the digest: at 2.5e-13 relative the
odds are at most 1 in 4000 per value.  The report JSON, the CSV bundle
and ``CheckOutcome.as_dict`` keep full precision; only the input to the
hash is canonical.

Re-pin a golden digest (``--golden-update``) only when a result has
changed on purpose (a new check, sample count or metric) or when this
canonical form changes.  A digest that moves without such a change is a
finding: compare the canonical bodies of the two runs to see which leaf
moved, and re-pin only once the new value is shown to be right.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .exceptions import (PhasecertError, ScenarioParseError,
                         ScenarioValidationError)
from .grammar import parse_expr
from .normalop import NormalOperatorSpec, QuadratureSpec, apply_normal_op, \
    l2_smoke_check
from .opsymb import ConjugatedFamily, fit_seminorm_ladder, transpose_check, \
    default_t_grid, DEFAULT_RUNGS, FIT_TOL
from .phase import (GeneratingPhase, check_admissibility, check_generating,
                    check_nondegeneracy, normal_coeffs)
from .schwartz import SchwartzFn, hermite_fn
from .sgphase import ZERO_FLOOR, Margins, calibrate, check_uniformity
from .symbols import SymbolFn, check_transmission
from .symplectic import (SymplectoMap, as_samples, check_boundary_preserving,
                         check_jacobian_structure, check_symplectic,
                         collar_samples, induced_boundary_map, sup)

FAMILIES = ("symplecto", "phase", "generating", "sg", "operator", "opsymb")

GRID_PRESETS = {
    "default": 1.0,
    "coarse": 0.5,
    "fine": 2.0,
}

MARGIN_PRESETS = {
    "default": Margins(),
    "strict": Margins(c_min=5e-2, eps_min=5e-2, c_max=1e3, ratio_max=2.5),
}

# canonical digest (see the module docstring)
DIGEST_SIG_DIGITS = 9
FLOOR_RATIO = 1e-3
FLOOR_MIN = 1e-13
FLOOR_CAP = 1e-7
DEFAULT_TOL = 1e-10


@dataclass
class Scenario:
    name: str
    n: int = 2
    collar_halfwidth: float = 1.0
    phase_str: str | None = None
    map_strs: dict[str, str] | None = None
    amplitude_str: str | None = None
    amplitude_order: float = 0.0
    amplitude_homogeneous: float | None = None
    sg_params: dict | None = None
    checks: tuple[str, ...] = FAMILIES
    seed: int = 7
    intended_failures: tuple[str, ...] = ()
    margins: Margins | None = None
    grid_scale: float | None = None

    phase: GeneratingPhase | None = field(default=None, repr=False)
    chi: SymplectoMap | None = field(default=None, repr=False)
    amplitude: SymbolFn | None = field(default=None, repr=False)


def _number(v, name: str, integer: bool = False, positive: bool = False):
    """v, the value of scenario field name, as a float (an int when
    integer) once it is checked to be a JSON number: finite, integral when
    integer, > 0 when positive.  Anything else, a numeric string included,
    is a ScenarioValidationError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioValidationError(f"{name} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ScenarioValidationError(f"{name} must be finite, got {v!r}")
    if integer and v != int(v):
        raise ScenarioValidationError(f"{name} must be an integer, got {v!r}")
    if positive and v <= 0:
        raise ScenarioValidationError(f"{name} must be positive, got {v!r}")
    return int(v) if integer else float(v)


def load_scenario(source) -> Scenario:
    """Parse and validate a scenario from a dict, JSON text, or file path."""
    if isinstance(source, dict):
        raw = source
    else:
        text = Path(source).read_text() if Path(str(source)).exists() \
            else str(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ScenarioParseError(f"scenario is not valid JSON: {err}")
    known = {"name", "n", "collar_halfwidth", "phase", "map", "amplitude",
             "sg", "checks", "seed", "intended_failures", "margins",
             "grids"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioValidationError(f"unknown scenario keys {unknown}")
    if "name" not in raw:
        raise ScenarioValidationError("scenario needs a name")
    for key in ("map", "amplitude", "sg", "margins", "grids"):
        if raw.get(key) is not None and not isinstance(raw[key], dict):
            raise ScenarioValidationError(f"{key} must be an object")
    n = _number(raw.get("n", 2), "n", integer=True)
    if n != 2:
        raise ScenarioValidationError(
            "catalog checks run at n = 2; higher dimensions are not wired "
            "into the scenario runner")
    checks = tuple(raw.get("checks", FAMILIES))
    bad = set(checks) - set(FAMILIES)
    if bad:
        raise ScenarioValidationError(f"unknown check families {bad}")
    sc = Scenario(
        name=raw["name"], n=n,
        collar_halfwidth=_number(raw.get("collar_halfwidth", 1.0),
                                 "collar_halfwidth", positive=True),
        phase_str=raw.get("phase"),
        map_strs=raw.get("map"),
        amplitude_str=(raw.get("amplitude") or {}).get("expr"),
        amplitude_order=_number(
            (raw.get("amplitude") or {}).get("order", 0.0), "amplitude.order"),
        amplitude_homogeneous=(raw.get("amplitude") or {}).get(
            "homogeneous_degree"),
        sg_params=raw.get("sg"),
        checks=checks,
        seed=_number(raw.get("seed", 7), "seed", integer=True),
        intended_failures=tuple(raw.get("intended_failures", ())),
    )
    if raw.get("margins") is not None:
        mdef = Margins()
        m = raw["margins"]
        bad = set(m) - {"c_min", "eps_min", "c_max", "ratio_max"}
        if bad:
            raise ScenarioValidationError(f"unknown margin keys {bad}")
        sc.margins = Margins(**{
            k: _number(m.get(k, getattr(mdef, k)), f"margins.{k}")
            for k in ("c_min", "eps_min", "c_max", "ratio_max")})
    if raw.get("grids") is not None:
        g = raw["grids"]
        bad = set(g) - {"scale"}
        if bad:
            raise ScenarioValidationError(f"unknown grid keys {bad}")
        sc.grid_scale = _number(g.get("scale"), "grids.scale",
                                 positive=True)
    if sc.phase_str is None and sc.map_strs is None:
        raise ScenarioValidationError("scenario declares no phase and no map")
    if sc.map_strs is not None:
        need = {"x1", "xn", "k1", "kn"}
        if set(sc.map_strs) != need:
            raise ScenarioValidationError(
                f"map components must be exactly {sorted(need)}")
        comps = {k: parse_expr(v) for k, v in sc.map_strs.items()}
        sc.chi = SymplectoMap(comps, n=n,
                              collar_halfwidth=sc.collar_halfwidth,
                              name=sc.name)
    if sc.amplitude_str is not None:
        support = None
        box = (raw.get("amplitude") or {}).get("support_xn")
        if box is not None:
            if not isinstance(box, list) or len(box) != 2:
                raise ScenarioValidationError(
                    "amplitude.support_xn must be a list [lo, hi]")
            lo, hi = (_number(b, "amplitude.support_xn") for b in box)
            support = ((-1e9, 1e9), (lo, hi))
        sc.amplitude = SymbolFn(
            parse_expr(sc.amplitude_str), order=sc.amplitude_order,
            homogeneous_degree=sc.amplitude_homogeneous, support=support,
            name="amplitude")
    return sc


@dataclass
class CheckOutcome:
    check: str
    status: str                     # pass | fail | skip | error
    metrics: dict = field(default_factory=dict)
    message: str = ""

    def as_dict(self) -> dict:
        return {"check": self.check, "status": self.status,
                "metrics": jsonable(self.metrics), "message": self.message}


def jsonable(obj):
    """obj with numpy numbers as floats and every non-finite float
    (Python or numpy) as the string "nan", "inf" or "-inf", so that it
    dumps as strict JSON."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return float(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def _is_tolerance_key(key: str) -> bool:
    return key in ("tol", "floor") or key.startswith("tol_")


def digest_floor(check: str, metrics: dict) -> float:
    """Magnitude below which a computed float of ``check`` hashes as 0."""
    if check == "sg.conditions":
        return ZERO_FLOOR
    if check == "opsymb.order_fit":
        tol = FIT_TOL
    else:
        tol = min((v for k, v in metrics.items()
                   if (k == "tol" or k.startswith("tol_"))
                   and isinstance(v, float)), default=DEFAULT_TOL)
    return min(max(FLOOR_RATIO * tol, FLOOR_MIN), FLOOR_CAP)


def _canonical(value, floor: float):
    if isinstance(value, dict):
        out = {k: v if _is_tolerance_key(k) else _canonical(v, floor)
               for k, v in value.items()}
        if out.get("residual") == 0.0:
            out.pop("worst_point", None)
        return out
    if isinstance(value, list):
        return [_canonical(v, floor) for v in value]
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        if abs(value) < floor:
            return 0.0
        return float(f"{value:.{DIGEST_SIG_DIGITS - 1}e}")
    return value


@dataclass
class RunReport:
    scenario: str
    seed: int
    outcomes: list[CheckOutcome]
    environment: dict = field(default_factory=dict)

    @property
    def failed(self) -> list[str]:
        return [o.check for o in self.outcomes if o.status == "fail"]

    @property
    def errored(self) -> list[str]:
        return [o.check for o in self.outcomes if o.status == "error"]

    @property
    def passed(self) -> bool:
        return not self.failed and not self.errored

    def body_dict(self) -> dict:
        """Canonical result body: everything except the environment stamp."""
        return {"scenario": self.scenario, "seed": self.seed,
                "checks": [o.as_dict()
                           for o in sorted(self.outcomes,
                                           key=lambda o: o.check)]}

    def canonical_body(self) -> dict:
        """The digest's input: ``body_dict()`` with round-off removed, as
        the module docstring describes."""
        body = self.body_dict()
        for c in body["checks"]:
            c["metrics"] = _canonical(c["metrics"],
                                      digest_floor(c["check"], c["metrics"]))
        return body

    def digest(self) -> str:
        blob = json.dumps(self.canonical_body(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def as_dict(self) -> dict:
        out = self.body_dict()
        out["environment"] = self.environment
        out["digest"] = self.digest()
        return out


def _environment_stamp() -> dict:
    return {"package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "conventions": ("Fu(xi) = int e^{-i t xi} u(t) dt; the inverse "
                            "transform and frequency integrals carry "
                            "1/(2 pi)")}


def _catch(fn, check: str) -> CheckOutcome:
    try:
        return fn()
    except PhasecertError as err:
        return CheckOutcome(check, "fail",
                            message=f"{type(err).__name__}: {err}")
    except Exception as err:   # infrastructure problem, not a verdict
        return CheckOutcome(check, "error",
                            message=f"{type(err).__name__}: {err}")


class ScenarioRunner:
    """Executes one scenario's checks with dependency gating."""

    def __init__(self, scenario: Scenario, grid_scale: float = 1.0,
                 margins: Margins | None = None):
        self.sc = scenario
        self.grid_scale = grid_scale
        self.margins = margins or Margins()
        self.outcomes: list[CheckOutcome] = []
        self.state: dict[str, bool] = {}

    def _count(self, base: int) -> int:
        return max(3, int(round(base * self.grid_scale)))

    def add(self, outcome: CheckOutcome):
        self.outcomes.append(outcome)
        self.state[outcome.check] = outcome.status == "pass"

    def skip(self, check: str, why: str):
        self.add(CheckOutcome(check, "skip", message=why))

    def run(self, selector=None) -> RunReport:
        families = [f for f in self.sc.checks
                    if selector is None or f in selector]
        if "symplecto" in families and self.sc.chi is not None:
            self._run_symplecto()
        if "phase" in families and self.sc.phase_str is not None:
            self._run_phase()
        if "generating" in families:
            self._run_generating()
        if "sg" in families:
            self._run_sg()
        if "operator" in families:
            self._run_operator()
        if "opsymb" in families:
            self._run_opsymb()
        return RunReport(self.sc.name, self.sc.seed, self.outcomes,
                         _environment_stamp())

    # ------------------------------------------------------------ families

    def _run_symplecto(self):
        chi = self.sc.chi
        seed = self.sc.seed

        def homog():
            pts = collar_samples(chi, count=self._count(20), seed=seed + 1)
            res = chi.homogeneity_residual(pts)
            ok = res <= 1e-10
            return CheckOutcome("symplecto.homogeneity",
                                "pass" if ok else "fail",
                                {"residual": res, "tol": 1e-10})
        self.add(_catch(homog, "symplecto.homogeneity"))

        def sympl():
            rep = check_symplectic(chi, collar_samples(
                chi, count=self._count(200), seed=seed + 2))
            return CheckOutcome("symplecto.symplectic",
                                "pass" if rep.passed else "fail",
                                {"residual": rep.residual, "tol": rep.tol,
                                 "worst_point": rep.worst_point})
        self.add(_catch(sympl, "symplecto.symplectic"))

        def bp():
            rep = check_boundary_preserving(chi, collar_samples(
                chi, count=self._count(200), seed=seed + 3, boundary=True))
            return CheckOutcome("symplecto.boundary_preserving",
                                "pass" if rep.passed else "fail",
                                {"residual": rep.residual, "tol": rep.tol})
        self.add(_catch(bp, "symplecto.boundary_preserving"))

        gate = self.state.get("symplecto.boundary_preserving") \
            and self.state.get("symplecto.symplectic")
        if not gate:
            self.skip("symplecto.jacobian_structure",
                      "prerequisite symplecto checks failed")
            self.skip("symplecto.boundary_map",
                      "prerequisite symplecto checks failed")
            return

        def struct():
            rep = check_jacobian_structure(chi, collar_samples(
                chi, count=self._count(100), seed=seed + 4, boundary=True))
            return CheckOutcome("symplecto.jacobian_structure",
                                "pass" if rep.passed else "fail",
                                rep.details | {"tol_zero": 1e-10,
                                               "tol_det": 1e-8})
        self.add(_catch(struct, "symplecto.jacobian_structure"))

        def bmap():
            _, rep = induced_boundary_map(chi, collar_samples(
                chi, count=self._count(100), seed=seed + 5, boundary=True))
            return CheckOutcome("symplecto.boundary_map",
                                "pass" if rep.passed else "fail",
                                rep.details)
        self.add(_catch(bmap, "symplecto.boundary_map"))

    def _run_phase(self):
        def build():
            self.sc.phase = GeneratingPhase(
                parse_expr(self.sc.phase_str), n=self.sc.n,
                collar_halfwidth=self.sc.collar_halfwidth, name=self.sc.name)
            d = self.sc.phase.boundary_diagnostics
            return CheckOutcome("phase.boundary_phase",
                                "pass" if d["passed"] else "fail", d)
        self.add(_catch(build, "phase.boundary_phase"))
        if self.sc.phase is None:
            for name in ("phase.homogeneity", "phase.nondegeneracy",
                         "phase.normal_coeffs", "phase.admissibility"):
                self.skip(name, "boundary phase extraction failed")
            return
        ph = self.sc.phase

        def homog():
            rng = np.random.default_rng(self.sc.seed + 11)
            pts = []
            for _ in range(self._count(20)):
                pts.append({"x1": float(rng.uniform(-1, 1)),
                            "xn": float(rng.uniform(-0.4, 0.4)),
                            "k1": float(rng.uniform(0.3, 3)
                                        * rng.choice([-1, 1])),
                            "kn": float(rng.uniform(0.3, 3)
                                        * rng.choice([-1, 1]))})
            res = ex.homogeneity_residual(ph.psi, {"k1", "kn"}, 1.0, pts)
            # Euler identity at the same points
            lhs = ex.add(ex.mul(ex.var("k1"), ex.differentiate(ph.psi, "k1")),
                         ex.mul(ex.var("kn"), ex.differentiate(ph.psi, "kn")))
            lhs_v, psi_v = ex.eval_array_many([lhs, ph.psi], as_samples(pts))
            euler, _ = sup((lhs_v - psi_v) / np.maximum(1.0, np.abs(psi_v)),
                           len(pts))
            ok = res <= 1e-10 and euler <= 1e-10
            return CheckOutcome("phase.homogeneity",
                                "pass" if ok else "fail",
                                {"residual": res, "euler_residual": euler,
                                 "tol": 1e-10})
        self.add(_catch(homog, "phase.homogeneity"))

        def nondeg():
            rep = check_nondegeneracy(ph)
            return CheckOutcome("phase.nondegeneracy",
                                "pass" if rep.passed else "fail",
                                rep.details | {"worst_point": rep.worst_point})
        self.add(_catch(nondeg, "phase.nondegeneracy"))

        def ncoef():
            nc = normal_coeffs(ph)
            return CheckOutcome("phase.normal_coeffs",
                                "pass" if nc.passed else "fail",
                                {"kappa": nc.kappa,
                                 "symmetry_residual": nc.symmetry_residual,
                                 "euler_residual": nc.euler_residual,
                                 "degenerate": nc.degenerate, "tol": nc.tol})
        self.add(_catch(ncoef, "phase.normal_coeffs"))

        def adm():
            rep = check_admissibility(ph)
            table = {name: r.max_residual for name, r in rep.reports.items()}
            return CheckOutcome("phase.admissibility",
                                "pass" if rep.passed else "fail",
                                {"max_residual": rep.max_residual,
                                 "per_derivative": table})
        self.add(_catch(adm, "phase.admissibility"))

    def _run_generating(self):
        if self.sc.phase is None or self.sc.chi is None:
            self.skip("phase.generating", "needs both a phase and a map")
            return
        need = ["symplecto.symplectic", "symplecto.boundary_preserving",
                "phase.boundary_phase"]
        if not all(self.state.get(k, False) for k in need):
            self.skip("phase.generating", "prerequisites failed")
            return

        def gen():
            rep = check_generating(self.sc.phase, self.sc.chi,
                                   collar_samples(self.sc.chi,
                                                  count=self._count(200),
                                                  seed=self.sc.seed + 6,
                                                  eta_top=6.0))
            return CheckOutcome("phase.generating",
                                "pass" if rep.passed else "fail",
                                {"residual": rep.residual, "tol": rep.tol})
        self.add(_catch(gen, "phase.generating"))

    def _phase_gate(self) -> bool:
        need = ["phase.boundary_phase", "phase.homogeneity",
                "phase.nondegeneracy", "phase.normal_coeffs",
                "phase.admissibility"]
        return all(self.state.get(k, False) for k in need)

    def _run_sg(self):
        if self.sc.phase is None:
            self.skip("sg.conditions", "no phase declared")
            return
        if not self._phase_gate():
            self.skip("sg.conditions", "phase invariants failed")
            return

        def sg():
            from .grids import grid_digest, sg_ladder
            ladder = sg_ladder()
            ghash = grid_digest(t=ladder, tau=ladder)
            if self.sc.sg_params:
                k = float(self.sc.sg_params["k"])
                K = float(self.sc.sg_params["K"])
                rep = check_uniformity(self.sc.phase, k, K,
                                       margins=self.margins)
                trials = 0
            else:
                cal = calibrate(self.sc.phase, margins=self.margins)
                k, K, rep, trials = cal.k, cal.K, cal.report, cal.trials
            # np.maximum/np.min, not max()/min(): a NaN constant must show
            worst = {}
            for combo in rep.per_combo:
                for key, v in combo.items():
                    worst[key] = float(np.maximum(worst.get(key, 0.0), v))
            # inf-side constants: certified minima across combos
            mins = {key: float(np.min([c[key] for c in rep.per_combo]))
                    for key in ("c_t", "c_tau", "eps")}
            return CheckOutcome("sg.conditions",
                                "pass" if rep.passed else "fail",
                                {"k": k, "K": K, "trials": trials,
                                 "ratios": {kk: rep.ratios[kk]
                                            for kk in ("c_t", "c_tau", "eps")},
                                 "spread": rep.spread,
                                 "constants_max": worst,
                                 "constants_min": mins,
                                 "grid": ghash,
                                 "failures": rep.failures[:5]})
        self.add(_catch(sg, "sg.conditions"))

    def _operator_spec(self) -> NormalOperatorSpec:
        amp = self.sc.amplitude or SymbolFn(ex.const(1.0), order=0.0,
                                            homogeneous_degree=0.0)
        return NormalOperatorSpec(self.sc.phase, amp, xprime=0.3,
                                  xi_prime=1.0, name=self.sc.name)

    def _run_operator(self):
        if self.sc.phase is None:
            self.skip("operator.apply", "no phase declared")
            return
        if not self._phase_gate():
            self.skip("operator.apply", "phase invariants failed")
            return
        spec = self._operator_spec()
        if self.sc.amplitude is not None and \
                self.sc.amplitude.homogeneous_degree is not None:
            def amp_trans():
                rep = check_transmission(self.sc.amplitude, max_orders=1)
                return CheckOutcome("operator.amplitude_transmission",
                                    "pass" if rep.passed else "fail",
                                    {"max_residual": rep.max_residual})
            self.add(_catch(amp_trans, "operator.amplitude_transmission"))

        def linearity():
            u0, u2 = hermite_fn(0), hermite_fn(2)
            combo_expr = ex.add(ex.mul(ex.const(0.7), u0.expr),
                                ex.mul(ex.const(-1.3), u2.expr))
            w = SchwartzFn("combo", combo_expr,
                           analytic_ft=lambda xi: 0.7 * u0.ft_values(xi)
                           - 1.3 * u2.ft_values(xi))
            xn = np.linspace(-2.0, 2.0, 9)
            v, _ = apply_normal_op(spec, w, xn)
            v0, _ = apply_normal_op(spec, u0, xn)
            v2, _ = apply_normal_op(spec, u2, xn)
            res = float(np.max(np.abs(v - 0.7 * v0 + 1.3 * v2)))
            return CheckOutcome("operator.linearity",
                                "pass" if res <= 1e-9 else "fail",
                                {"residual": res, "tol": 1e-9})
        self.add(_catch(linearity, "operator.linearity"))

        def consistency():
            u = hermite_fn(1)
            xn = np.linspace(-2.5, 2.5, 21)
            loose = NormalOperatorSpec(
                spec.phase, spec.amplitude, spec.xprime, spec.xi_prime,
                QuadratureSpec(panel_tol=1e-6))
            tight = NormalOperatorSpec(
                spec.phase, spec.amplitude, spec.xprime, spec.xi_prime,
                QuadratureSpec(panel_tol=5e-7))
            v1, e1 = apply_normal_op(loose, u, xn)
            v2, _ = apply_normal_op(tight, u, xn)
            ok = np.abs(v1 - v2) <= np.maximum(e1, 1e-14)
            frac = float(np.mean(ok))
            return CheckOutcome("operator.quadrature_consistency",
                                "pass" if frac >= 0.95 else "fail",
                                {"fraction_within_estimate": frac})
        self.add(_catch(consistency, "operator.quadrature_consistency"))

        def l2():
            rep = l2_smoke_check(spec, hermite_fn(0))
            return CheckOutcome("operator.l2_bound",
                                "pass" if rep["passed"] else "fail", rep)
        self.add(_catch(l2, "operator.l2_bound"))

    def _run_opsymb(self):
        if self.sc.phase is None:
            self.skip("opsymb.order_fit", "no phase declared")
            return
        if not self._phase_gate():
            self.skip("opsymb.order_fit", "phase invariants failed")
            return
        spec = self._operator_spec()

        def orders():
            # support-limited amplitudes suppress low-rung seminorms
            # (outputs vanish outside |t| <= rung * support half-width), so
            # their growth exponent is fitted on the saturated tail, where
            # the rescaled support covers the whole seminorm grid
            support = spec.amplitude.support
            if support is not None:
                h = max(abs(support[1][0]), abs(support[1][1]))
                pos = np.array([0.05, 0.15, 0.3, 0.5, 0.75, 1.0, 1.5,
                                2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
                t_grid = np.concatenate([-pos[::-1], [0.0], pos])
                t_max = float(np.max(t_grid))
                rungs = tuple(r for r in DEFAULT_RUNGS if r * h >= t_max)
                window = "saturated tail (support-limited amplitude)"
            else:
                t_grid = default_t_grid()
                rungs = DEFAULT_RUNGS
                window = "full ladder"
            fam = ConjugatedFamily(spec, 1, 1, 1)
            fits = []
            for u in (hermite_fn(0), hermite_fn(2)):
                outs = fam.outputs(u, rungs, t_grid)
                for (a, b, s), per_rung in outs.items():
                    for l in (0, 1):
                        sems = [float(np.max(np.abs(t_grid) ** l
                                             * np.abs(o)))
                                for o in per_rung]
                        fits.append(fit_seminorm_ladder(
                            rungs, sems, a, b, l, s, u.name,
                            spec.amplitude.order - a, min_live=4))
            bad = [f for f in fits if not f.passed]
            table = [{"alpha": f.alpha, "beta": f.beta, "l": f.l, "s": f.s,
                      "u": f.u_name,
                      "slope": None if f.slope is None else f.slope,
                      "target": f.target} for f in fits]
            return CheckOutcome("opsymb.order_fit",
                                "pass" if not bad else "fail",
                                {"fits": table, "n_failing": len(bad),
                                 "window": window})
        self.add(_catch(orders, "opsymb.order_fit"))

        def transpose():
            rep = transpose_check(spec, hermite_fn(0), hermite_fn(1))
            return CheckOutcome("opsymb.transpose",
                                "pass" if rep["passed"] else "fail",
                                {"residual": rep["residual"], "tol": 1e-6})
        self.add(_catch(transpose, "opsymb.transpose"))


def run_scenario(source, selector=None, grid_preset: str = "default",
                 margin_preset: str = "default",
                 seed: int | None = None) -> RunReport:
    """Scenario-level margins/grids are the base; non-default CLI presets
    override them."""
    sc = load_scenario(source)
    if seed is not None:
        sc.seed = seed
    scale = GRID_PRESETS[grid_preset]
    if grid_preset == "default" and sc.grid_scale is not None:
        scale = sc.grid_scale
    margins = MARGIN_PRESETS[margin_preset]
    if margin_preset == "default" and sc.margins is not None:
        margins = sc.margins
    runner = ScenarioRunner(sc, scale, margins)
    return runner.run(selector)


# ---------------------------------------------------------------------------
# rendering and persistence
# ---------------------------------------------------------------------------

def render_report(report: RunReport) -> str:
    lines = [f"scenario: {report.scenario} (seed {report.seed})"]
    if not report.passed:
        first = ", ".join(report.failed + report.errored)
        lines.append(f"failing: {first}")
    for o in sorted(report.outcomes, key=lambda o: o.check):
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip",
                "error": "ERROR"}[o.status]
        detail = o.message
        if not detail and o.metrics:
            keys = [k for k in ("residual", "spread", "kappa", "k", "K")
                    if k in o.metrics]
            detail = ", ".join(f"{k}={o.metrics[k]:.3g}" for k in keys
                               if isinstance(o.metrics[k], (int, float)))
        lines.append(f"  [{mark}] {o.check}" + (f"  {detail}" if detail
                                                else ""))
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"result: {verdict} ({len(report.failed)} failing, "
                 f"{len(report.errored)} errors)")
    lines.append(f"digest: {report.digest()}")
    return "\n".join(lines)


def _csv_bytes(rows: list[dict], fieldnames: list[str]) -> bytes:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue().encode()


def csv_bundle(report: RunReport) -> dict[str, bytes]:
    """Machine-diffable CSV tables, one file per check, fixed ordering."""
    out: dict[str, bytes] = {}
    rows = []
    for o in sorted(report.outcomes, key=lambda o: o.check):
        rows.append({"check": o.check, "status": o.status,
                     "message": o.message})
    out["checks.csv"] = _csv_bytes(rows, ["check", "status", "message"])
    for o in sorted(report.outcomes, key=lambda o: o.check):
        if o.check == "sg.conditions" and o.status == "pass":
            worst = o.metrics.get("constants_max", {})
            table = []
            for a in range(4):
                for al in range(4):
                    key = f"C_{a}{al}"
                    if key in worst:
                        table.append({"a": a, "alpha": al,
                                      "constant": repr(worst[key])})
            out["sg_p1.csv"] = _csv_bytes(table, ["a", "alpha", "constant"])
            p23 = [{"name": k, "value": repr(v)}
                   for k, v in sorted(o.metrics["constants_min"].items())]
            p23 += [{"name": f"ratio_{k}", "value": repr(v)}
                    for k, v in sorted(o.metrics["ratios"].items())]
            p23 += [{"name": "k", "value": repr(o.metrics["k"])},
                    {"name": "K", "value": repr(o.metrics["K"])}]
            out["sg_p23.csv"] = _csv_bytes(p23, ["name", "value"])
        if o.check == "opsymb.order_fit" and "fits" in o.metrics:
            rows = [{k: ("" if r[k] is None else repr(r[k]))
                     if k in ("slope", "target") else r[k]
                     for k in ("alpha", "beta", "l", "s", "u", "slope",
                               "target")}
                    for r in o.metrics["fits"]]
            out["opsymb_fits.csv"] = _csv_bytes(
                rows, ["alpha", "beta", "l", "s", "u", "slope", "target"])
    return out


def write_report(report: RunReport, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{report.scenario}_report.json"
    path.write_text(json.dumps(report.as_dict(), sort_keys=True, indent=1,
                               allow_nan=False))
    for name, data in csv_bundle(report).items():
        (out / f"{report.scenario}__{name}").write_bytes(data)
    return path


GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.sha256"


def check_golden(report: RunReport, update: bool = False) -> dict:
    """Compare the report digest against the pinned golden hash."""
    path = golden_path(report.scenario)
    digest = report.digest()
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest + "\n")
        return {"status": "updated", "digest": digest}
    if not path.exists():
        return {"status": "missing", "digest": digest}
    want = path.read_text().strip()
    return {"status": "match" if want == digest else "mismatch",
            "digest": digest, "golden": want}
