import math

import numpy as np
import pytest

from phasecert import catalog
from phasecert.exceptions import (QuadratureBudgetError,
                                  ScenarioValidationError)
from phasecert.grammar import parse_expr
from phasecert.normalop import NormalOperatorSpec
from phasecert.phase import GeneratingPhase
from phasecert.quadrature import integrate_adaptive
from phasecert.runner import GRID_SCALE_MAX, load_scenario, run_scenario
from phasecert.symbols import SymbolFn


def test_scenario_margin_and_grid_overrides():
    sc = load_scenario({
        "name": "custom", "phase": "x1*k1 + xn*kn",
        "margins": {"eps_min": 0.5, "ratio_max": 2.0},
        "grids": {"scale": 0.5},
        "checks": ["phase"],
    })
    assert sc.margins.eps_min == 0.5
    assert sc.margins.ratio_max == 2.0
    assert sc.margins.c_min == 1e-2          # untouched default
    assert sc.grid_scale == 0.5


def test_grid_scale_is_bounded_at_load():
    sc = {"name": "custom", "phase": "x1*k1 + xn*kn", "checks": ["phase"]}
    top = load_scenario(dict(sc, grids={"scale": GRID_SCALE_MAX}))
    assert top.grid_scale == GRID_SCALE_MAX
    above = math.nextafter(GRID_SCALE_MAX, math.inf)
    with pytest.raises(ScenarioValidationError, match="grids.scale"):
        load_scenario(dict(sc, grids={"scale": above}))


def test_scenario_rejects_unknown_margin_keys():
    with pytest.raises(ScenarioValidationError):
        load_scenario({"name": "x", "phase": "xn*kn",
                       "margins": {"bogus": 1.0}})
    with pytest.raises(ScenarioValidationError):
        load_scenario({"name": "x", "phase": "xn*kn",
                       "grids": {"bogus": 1.0}})


def test_scenario_margins_flow_into_sg_check():
    # an impossible eps floor makes the sg conditions fail
    base = catalog.emit("identity")
    base["margins"] = {"eps_min": 2.0}
    base["checks"] = ["phase", "sg"]
    rep = run_scenario(base)
    assert "sg.conditions" in rep.failed


def test_operator_spec_rejects_support_outside_collar():
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn"), collar_halfwidth=0.5)
    amp = SymbolFn(parse_expr("1"), order=0.0,
                   support=((-1e9, 1e9), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        NormalOperatorSpec(ph, amp, 0.3, 1.0)


def test_quadrature_budget_error():
    rng = np.random.default_rng(0)
    noise = rng.normal(size=4096)

    def f(x):
        # deterministic pseudo-noise: no panel refinement can converge
        idx = (np.abs(x) * 1e6).astype(int) % 4096
        return noise[idx]

    with pytest.raises(QuadratureBudgetError):
        integrate_adaptive(f, -1.0, 1.0, tol=1e-12, n0=4, max_doubles=3)


def test_environment_stamp_records_conventions():
    rep = run_scenario(catalog.emit("identity"), selector={"symplecto"})
    assert "conventions" in rep.environment
    assert "1/(2 pi)" in rep.environment["conventions"]
    # the stamp stays out of the deterministic body
    assert "environment" not in rep.body_dict()
