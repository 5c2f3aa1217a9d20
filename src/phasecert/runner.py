"""Scenario-driven execution of the whole check stack.

A scenario (JSON) declares a phase and/or a map, an amplitude, grids,
margins, a check selector and a seed; the runner executes the selected
check families in dependency order

    symplecto -> phase -> generating -> sg -> operator -> opsymb

The loader parses every expression once, so a bad one is a load error
(CLI exit 2).  The runner dispatches: each check is one call into the
library, whose (passed, metrics) ``ScenarioRunner.check`` records, and
one rule gates them all: a check runs only once every check that
``PREREQUISITES`` lists for it has passed, and is otherwise recorded as
a skip with the message "unmet prerequisites: <checks>".  The only
result the runner keeps is the phase that ``phase.boundary_phase``
builds.  Reports are deterministic: on one machine the same scenario and
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
from .exceptions import (BoundaryFlatnessError, PhasecertError,
                         ScenarioParseError, ScenarioValidationError)
from .grammar import parse_expr
from .normalop import (NormalOperatorSpec, check_linearity,
                       check_quadrature_consistency, l2_smoke_check,
                       validate_support)
from .opsymb import FIT_TOL, check_order_fit, transpose_check
from .phase import (GeneratingPhase, boundary_flat, check_admissibility,
                    check_generating, check_homogeneity, check_nondegeneracy,
                    homogeneity_samples, normal_coeffs)
from .schwartz import hermite_fn
from .sgphase import ZERO_FLOOR, Margins, check_conditions
from .symbols import SymbolFn, check_transmission
from .symplectic import (COLLAR_VARS, SymplectoMap,
                         check_boundary_preserving,
                         check_homogeneity as check_map_homogeneity,
                         check_jacobian_structure, check_symplectic,
                         collar_samples, induced_boundary_map)

FAMILIES = ("symplecto", "phase", "generating", "sg", "operator", "opsymb")

GRID_PRESETS = {
    "default": 1.0,
    "coarse": 0.5,
    "fine": 2.0,
}

# grids.scale multiplies the sample counts of the map, phase and generating
# checks, and their cost with them: at this bound, 8 times the "fine"
# preset, a map check draws 3,200 samples
GRID_SCALE_MAX = 16.0

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
    """A loaded scenario: psi (the declared phase), chi (the map) and
    amplitude are the parsed expressions.  phase, the GeneratingPhase
    of psi with its boundary part, is built by the runner's
    phase.boundary_phase check, whose verdict says whether it is sound."""
    name: str
    collar_halfwidth: float = 1.0
    sg_params: dict | None = None
    checks: tuple[str, ...] = FAMILIES
    seed: int = 7
    intended_failures: tuple[str, ...] = ()
    margins: Margins | None = None
    grid_scale: float | None = None

    psi: ex.Expr | None = field(default=None, repr=False)
    phase: GeneratingPhase | None = field(default=None, repr=False)
    chi: SymplectoMap | None = field(default=None, repr=False)
    amplitude: SymbolFn | None = field(default=None, repr=False)

    def generating_phase(self) -> GeneratingPhase:
        """The declared phase with its boundary part, for the CLI's
        calibrate and apply, which have no verdict to return: raises
        BoundaryFlatnessError when psi at x_n = 0 depends on xi_n."""
        phase = GeneratingPhase(self.psi, self.collar_halfwidth, self.name)
        diag = phase.boundary_diagnostics
        resid = diag["xi_n_residual"]
        if not resid <= diag["tol"]:
            raise BoundaryFlatnessError(
                f"boundary restriction depends on xi_n (residual {resid:.2e})")
        return phase

    def operator_amplitude(self) -> SymbolFn:
        """The declared amplitude, or the constant 1 of order 0."""
        return self.amplitude or SymbolFn(ex.const(1.0), order=0.0,
                                          homogeneous_degree=0.0)


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


def _strings(v, name: str) -> tuple[str, ...]:
    """v, the value of scenario field name, as a tuple once it is checked
    to be a list of strings."""
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise ScenarioValidationError(
            f"{name} must be a list of strings, got {v!r}")
    return tuple(v)


def _expression(text, name: str) -> ex.Expr:
    """text, the value of scenario field name, parsed once it is checked to
    be a string whose free variables are all collar variables."""
    if not isinstance(text, str):
        raise ScenarioValidationError(
            f"{name} must be an expression string, got {text!r}")
    try:
        e = parse_expr(text)
    except ScenarioParseError as err:
        raise ScenarioParseError(f"{name}: {err}") from None
    unknown = ex.free_vars(e) - set(COLLAR_VARS)
    if unknown:
        raise ScenarioValidationError(
            f"{name} uses unknown variables {sorted(unknown)}; the collar "
            f"variables are {', '.join(COLLAR_VARS)}")
    return e


def is_file(name: str) -> bool:
    """Whether name is an existing file; a name the OS cannot hold as a
    path (a component longer than NAME_MAX, say) is not one."""
    try:
        return Path(name).is_file()
    except OSError:
        return False


def load_scenario(source) -> Scenario:
    """Parse and validate a scenario from a dict, JSON text, or file path.

    Every expression (phase, map components, amplitude) is parsed here,
    once, so a bad one is a load error, not a failed or errored check.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{") and is_file(text):
            text = Path(text).read_text()
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
    if _number(raw.get("n", 2), "n", integer=True) != 2:
        raise ScenarioValidationError(
            "catalog checks run at n = 2; higher dimensions are not wired "
            "into the scenario runner")
    checks = _strings(raw.get("checks", list(FAMILIES)), "checks")
    bad = set(checks) - set(FAMILIES)
    if bad:
        raise ScenarioValidationError(f"unknown check families {bad}")
    collar_halfwidth = _number(raw.get("collar_halfwidth", 1.0),
                               "collar_halfwidth", positive=True)
    sg = raw.get("sg")
    if sg is not None:
        if set(sg) != {"k", "K"}:
            raise ScenarioValidationError(
                f"sg must have exactly the keys k and K, got {sorted(sg)}")
        sg = {key: _number(sg[key], f"sg.{key}", positive=True)
              for key in ("k", "K")}
        # the cutoff w_k(t/r) must vanish inside the collar
        if sg["k"] > collar_halfwidth / 2.0 + 1e-12:
            raise ScenarioValidationError(
                f"sg.k = {sg['k']:g} exceeds half the collar half-width "
                f"{collar_halfwidth:g}")
    sc = Scenario(
        name=raw["name"], collar_halfwidth=collar_halfwidth,
        sg_params=sg,
        checks=checks,
        seed=_number(raw.get("seed", 7), "seed", integer=True),
        intended_failures=_strings(raw.get("intended_failures", []),
                                   "intended_failures"),
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
        if sc.grid_scale > GRID_SCALE_MAX:
            raise ScenarioValidationError(
                f"grids.scale must be at most {GRID_SCALE_MAX:g}, got "
                f"{g['scale']!r}")
    phase_str, map_strs = raw.get("phase"), raw.get("map")
    if phase_str is None and map_strs is None:
        raise ScenarioValidationError("scenario declares no phase and no map")
    if phase_str is not None:
        sc.psi = _expression(phase_str, "phase")
    if map_strs is not None:
        if set(map_strs) != set(COLLAR_VARS):
            raise ScenarioValidationError(
                f"map components must be exactly {sorted(COLLAR_VARS)}")
        comps = {k: _expression(v, f"map.{k}") for k, v in map_strs.items()}
        sc.chi = SymplectoMap(comps, collar_halfwidth=sc.collar_halfwidth,
                              name=sc.name)
    amp = raw.get("amplitude")
    if amp is not None:
        bad = set(amp) - {"expr", "order", "homogeneous_degree",
                          "support_xn"}
        if bad:
            raise ScenarioValidationError(f"unknown amplitude keys {bad}")
        if amp.get("expr") is None:
            raise ScenarioValidationError("amplitude needs an expr")
        amp_order = _number(amp.get("order", 0.0), "amplitude.order")
        degree = amp.get("homogeneous_degree")
        if degree is not None:
            degree = _number(degree, "amplitude.homogeneous_degree")
        expr = _expression(amp["expr"], "amplitude.expr")
        support = None
        box = amp.get("support_xn")
        if box is not None:
            if not isinstance(box, list) or len(box) != 2:
                raise ScenarioValidationError(
                    "amplitude.support_xn must be a list [lo, hi]")
            lo, hi = (_number(b, "amplitude.support_xn") for b in box)
            support = ((-1e9, 1e9), (lo, hi))
            try:
                validate_support(support, collar_halfwidth, expr)
            except ValueError as err:
                raise ScenarioValidationError(
                    f"amplitude.support_xn: {err}") from None
        try:
            sc.amplitude = SymbolFn(expr, order=amp_order,
                                    homogeneous_degree=degree,
                                    support=support, name="amplitude")
        except ValueError as err:
            # the declared degree fails on sampled rays: a false statement
            # in the file, not a check verdict
            raise ScenarioValidationError(
                f"amplitude.homogeneous_degree: {err}") from None
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


# The checks each check needs to have passed, for every check the runner
# records: ScenarioRunner.check skips a check whose prerequisites did not
# all pass, or did not run.
_MAP = ("symplecto.symplectic", "symplecto.boundary_preserving")
_PHASE = ("phase.boundary_phase", "phase.homogeneity", "phase.nondegeneracy",
          "phase.normal_coeffs", "phase.admissibility")
PREREQUISITES = {
    "symplecto.homogeneity": (),
    "symplecto.symplectic": (),
    "symplecto.boundary_preserving": (),
    "symplecto.jacobian_structure": _MAP,
    "symplecto.boundary_map": _MAP,
    "phase.boundary_phase": (),
    "phase.homogeneity": ("phase.boundary_phase",),
    "phase.nondegeneracy": ("phase.boundary_phase",),
    "phase.normal_coeffs": ("phase.boundary_phase",),
    # the parity test declares each first derivative homogeneous
    "phase.admissibility": ("phase.homogeneity",),
    "phase.generating": _MAP + ("phase.boundary_phase",),
    "sg.conditions": _PHASE,
    "operator.amplitude_transmission": _PHASE,
    "operator.linearity": _PHASE,
    "operator.quadrature_consistency": _PHASE,
    "operator.l2_bound": _PHASE,
    "opsymb.order_fit": _PHASE,
    "opsymb.transpose": _PHASE,
}


class ScenarioRunner:
    """Executes one scenario's checks, each behind its prerequisites."""

    def __init__(self, scenario: Scenario, grid_scale: float = 1.0,
                 margins: Margins | None = None):
        self.sc = scenario
        self.grid_scale = grid_scale
        self.margins = margins or Margins()
        self.outcomes: list[CheckOutcome] = []
        self.passed: set[str] = set()
        self.spec: NormalOperatorSpec | None = None

    def _count(self, base: int) -> int:
        return max(3, int(round(base * self.grid_scale)))

    def _samples(self, base: int, offset: int, **kw) -> np.ndarray:
        """collar_samples of the map: base points scaled by the grid,
        drawn at the scenario seed plus offset."""
        return collar_samples(self.sc.chi, count=self._count(base),
                              seed=self.sc.seed + offset, **kw)

    def check(self, name: str, fn):
        """Record check name from fn(), which returns (passed, metrics).

        A check whose PREREQUISITES have not all passed is skipped without
        calling fn, and its message names the unmet ones.  A library error
        means the check could not be evaluated (see :mod:`exceptions`) and
        fails it with the error's message; any other exception is an
        infrastructure problem, not a verdict, and reports an error.
        """
        unmet = [p for p in PREREQUISITES[name] if p not in self.passed]
        if unmet:
            outcome = CheckOutcome(name, "skip", message="unmet "
                                   "prerequisites: " + ", ".join(unmet))
        else:
            try:
                passed, metrics = fn()
                outcome = CheckOutcome(name, "pass" if passed else "fail",
                                       metrics)
            except PhasecertError as err:
                outcome = CheckOutcome(name, "fail",
                                       message=f"{type(err).__name__}: {err}")
            except Exception as err:
                outcome = CheckOutcome(name, "error",
                                       message=f"{type(err).__name__}: {err}")
        self.outcomes.append(outcome)
        if outcome.status == "pass":
            self.passed.add(name)

    def run(self, selector=None) -> RunReport:
        families = [f for f in self.sc.checks
                    if selector is None or f in selector]
        if "symplecto" in families and self.sc.chi is not None:
            self._run_symplecto()
        if "phase" in families and self.sc.psi is not None:
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
        self.check("symplecto.homogeneity",
                   lambda: check_map_homogeneity(chi, self._samples(20, 1)))
        self.check("symplecto.symplectic",
                   lambda: check_symplectic(chi, self._samples(200, 2)))
        self.check("symplecto.boundary_preserving",
                   lambda: check_boundary_preserving(
                       chi, self._samples(200, 3, boundary=True)))
        self.check("symplecto.jacobian_structure",
                   lambda: check_jacobian_structure(
                       chi, self._samples(100, 4, boundary=True),
                       self._samples(200, 7)))
        self.check("symplecto.boundary_map",
                   lambda: induced_boundary_map(
                       chi, self._samples(100, 5, boundary=True)))

    def _run_phase(self):
        def build():
            self.sc.phase = GeneratingPhase(
                self.sc.psi, self.sc.collar_halfwidth, self.sc.name)
            d = self.sc.phase.boundary_diagnostics
            return boundary_flat(d), d
        self.check("phase.boundary_phase", build)
        self.check("phase.homogeneity", lambda: check_homogeneity(
            self.sc.phase, homogeneity_samples(self._count(20),
                                               self.sc.seed + 11)))
        self.check("phase.nondegeneracy",
                   lambda: check_nondegeneracy(self.sc.phase))
        self.check("phase.normal_coeffs",
                   lambda: normal_coeffs(self.sc.phase))
        self.check("phase.admissibility",
                   lambda: check_admissibility(self.sc.phase))

    def _run_generating(self):
        self.check("phase.generating", lambda: check_generating(
            self.sc.phase, self.sc.chi,
            self._samples(200, 6, eta_top=6.0)))

    def _run_sg(self):
        self.check("sg.conditions", lambda: check_conditions(
            self.sc.phase, self.sc.sg_params, self.margins))

    def _operator_spec(self) -> NormalOperatorSpec:
        """The operator of the built phase, frozen at x' = 0.3 and
        xi' = 1; built by the first check that needs it."""
        if self.spec is None:
            self.spec = NormalOperatorSpec(
                self.sc.phase, self.sc.operator_amplitude(), xprime=0.3,
                xi_prime=1.0, name=self.sc.name)
        return self.spec

    def _run_operator(self):
        # only a declared homogeneous degree makes the parity test apply
        amp = self.sc.amplitude
        if amp is not None and amp.homogeneous_degree is not None:
            self.check("operator.amplitude_transmission",
                       lambda: check_transmission(amp, max_orders=1))
        self.check("operator.linearity",
                   lambda: check_linearity(self._operator_spec(),
                                           hermite_fn(0), hermite_fn(2)))
        self.check("operator.quadrature_consistency",
                   lambda: check_quadrature_consistency(
                       self._operator_spec(), hermite_fn(1)))
        self.check("operator.l2_bound",
                   lambda: l2_smoke_check(self._operator_spec(),
                                          hermite_fn(0)))

    def _run_opsymb(self):
        self.check("opsymb.order_fit",
                   lambda: check_order_fit(self._operator_spec(),
                                           [hermite_fn(0), hermite_fn(2)]))
        self.check("opsymb.transpose",
                   lambda: transpose_check(self._operator_spec(),
                                           hermite_fn(0), hermite_fn(1)))


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
    runner = ScenarioRunner(sc, scale, scenario_margins(sc, margin_preset))
    return runner.run(selector)


def scenario_margins(sc: Scenario, margin_preset: str) -> Margins:
    """The scenario's own margins under the default preset, else the
    preset's."""
    if margin_preset == "default" and sc.margins is not None:
        return sc.margins
    return MARGIN_PRESETS[margin_preset]


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
    ordered = sorted(report.outcomes, key=lambda o: o.check)
    out = {"checks.csv": _csv_bytes(
        [{"check": o.check, "status": o.status, "message": o.message}
         for o in ordered], ["check", "status", "message"])}
    for o in ordered:
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
