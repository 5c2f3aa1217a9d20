"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.  Budgets are wall-clock upper bounds on this machine
class (vectorized evaluation keeps actual times far below them).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from phasecert import catalog
from phasecert import expr as ex
from phasecert.grammar import parse_expr
from phasecert.grids import sg_ladder
from phasecert.normalop import (NormalOperatorSpec, QuadratureSpec,
                                apply_normal_op)
from phasecert.opsymb import (ConjugatedFamily, estimate_symbol_order,
                              sweep_symbol_orders, transpose_check)
from phasecert.phase import (GeneratingPhase, check_admissibility,
                             normal_coeffs)
from phasecert.runner import csv_bundle, run_scenario
from phasecert.schwartz import exp_decay, hermite_fn, measured_decay_exponent
from phasecert.sgphase import StarPhaseFamily, calibrate
from phasecert.symbols import SymbolFn, check_bs_membership
from phasecert.symplectic import (SymplectoMap, check_jacobian_structure,
                                  collar_samples)

from oracles import fd_crosscheck


def scenario_phase(name: str) -> GeneratingPhase:
    sc = catalog.emit(name)
    return GeneratingPhase(parse_expr(sc["phase"]),
                           collar_halfwidth=sc["collar_halfwidth"],
                           name=name)


def scenario_map(name: str) -> SymplectoMap:
    sc = catalog.emit(name)
    comps = {k: parse_expr(v) for k, v in sc["map"].items()}
    return SymplectoMap(comps,
                        collar_halfwidth=sc["collar_halfwidth"], name=name)


POSITIVE_PHASES = ("identity", "dilation", "quadratic-collar",
                   "boundary-shear")
HS = [hermite_fn(j) for j in range(5)]
AMP_ONE = SymbolFn(parse_expr("1"), order=0.0, homogeneous_degree=0.0)


def operator_catalog() -> dict[str, NormalOperatorSpec]:
    """Positive operator specs used in the order-fit sweep: clean
    power-law families (support-limited amplitudes are certified on their
    saturated tail elsewhere)."""
    return {
        "identity-op": NormalOperatorSpec(
            scenario_phase("identity"), AMP_ONE, 0.3, 1.0,
            name="identity-op"),
        "dilation-op": NormalOperatorSpec(
            scenario_phase("dilation"), AMP_ONE, 0.3, 1.0,
            name="dilation-op"),
        "shear-op": NormalOperatorSpec(
            scenario_phase("boundary-shear"), AMP_ONE, 0.3, 1.0,
            name="shear-op"),
        "scale-op": NormalOperatorSpec(
            scenario_phase("identity"),
            SymbolFn(parse_expr("bracket(k1)"), order=1.0), 0.3, 1.0,
            name="scale-op"),
    }


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, \
        f"criterion {number} exceeded its {budget_s:.0f}s budget " \
        f"({elapsed:.1f}s)"
    print(f"[criterion {number:2d}] PASS  {label}  ({elapsed:.1f}s)")


def test_criterion_1_identity_exactness():
    with criterion(1, "identity regularized phase is exactly t*tau", 5.0):
        phase = scenario_phase("identity")
        fam = StarPhaseFamily(phase, k=0.5, K=1.0)
        t = sg_ladder()
        tau = sg_ladder()
        T, U = t[:, None], tau[None, :]
        for xp in (-1.0, 0.0, 0.7):
            for rung in (1.0, 4.0, 256.0):
                env = fam.env_for(xp, rung)
                env["t"], env["tau"] = T, U
                V = ex.eval_array(fam.expr, env)
                target = T * U
                assert V.shape == (41, 41)
                assert np.max(np.abs(V - target)
                              / (1.0 + np.abs(target))) <= 1e-12
                cs = fam.constants_at(xp, rung)
                assert max(cs[f"C_{a}{al}"] for a in range(4)
                           for al in range(4)) <= 1.0 + 1e-12
                for key in ("c_t", "C_t", "c_tau", "C_tau", "eps"):
                    assert abs(cs[key] - 1.0) <= 1e-12


def test_criterion_2_calibration_and_uniformity():
    with criterion(2, "dilation/quadratic/shear calibrate and stay uniform",
                   180.0):
        for name in ("dilation", "quadratic-collar", "boundary-shear"):
            t0 = time.monotonic()
            phase = scenario_phase(name)
            cal = calibrate(phase)
            assert cal.K <= 16.0, name
            assert cal.k >= phase.collar_halfwidth / 32.0, name
            rep = cal.report
            assert not rep.failures, (name, rep.failures)
            assert rep.spread <= 3.0, name
            c = rep.constants
            assert all(v.shape == (9, 9) for v in c.values())  # 81 combos
            # every P1 entry up to order 3 finite and bounded, at every
            # combo; a NaN fails each of these comparisons
            for a in range(4):
                for al in range(4):
                    assert np.all(c[f"C_{a}{al}"] <= 1e4)
            assert np.all(c["eps"] >= 1e-2)
            assert np.all(np.minimum(c["c_t"], c["c_tau"]) >= 1e-2)
            assert time.monotonic() - t0 < 60.0, name


def test_criterion_3_transmission():
    with criterion(3, "normal coefficient symmetry and parity residuals",
                   10.0):
        for name in POSITIVE_PHASES:
            ph = scenario_phase(name)
            _, nc = normal_coeffs(ph)
            assert nc["symmetry_residual"] <= 1e-10, name
            assert nc["kappa"] > 0.0, name
            passed, adm = check_admissibility(ph, max_orders=2)
            assert passed, name
            assert adm["max_residual"] <= 1e-12, name
        bad = scenario_phase("bad-transmission")
        _, nc = normal_coeffs(bad)
        assert nc["symmetry_residual"] >= 0.1
        assert not check_admissibility(bad)[0]


def test_criterion_4_boundary_jacobian_structure():
    with criterion(4, "boundary Jacobian blocks, determinants, negatives",
                   10.0):
        maps = [scenario_map(n) for n in ("identity", "dilation",
                                          "quadratic-collar")]
        tanh = "(exp(2*x1) - 1) / (exp(2*x1) + 1)"
        maps.append(SymplectoMap({
            "x1": parse_expr(f"x1 + 0.3*{tanh}"),
            "xn": parse_expr("xn"),
            "k1": parse_expr(f"k1 / (1 + 0.3*(1 - ({tanh})^2))"),
            "kn": parse_expr("kn"),
        }, name="shear-lift"))
        for chi in maps:
            _, rep = check_jacobian_structure(
                chi, collar_samples(chi, boundary=True), collar_samples(chi))
            assert rep["zero_blocks"] <= 1e-10, chi.name
            assert rep["boundary_det_residual"] <= 1e-8, chi.name
            assert rep["normal_product_residual"] <= 1e-8, chi.name
        shift = run_scenario(catalog.emit("bad-boundary-shift"))
        assert shift.failed == ["symplecto.boundary_preserving"]
        broken = run_scenario(catalog.emit("bad-symplectic"))
        assert broken.failed == ["symplecto.symplectic"]


def test_criterion_5_operator_identity():
    with criterion(5, "normal operator reproduces test functions", 30.0):
        spec = operator_catalog()["identity-op"]
        xn = np.linspace(-3.0, 3.0, 25)
        for u in HS:
            vals, _ = apply_normal_op(spec, u, xn)
            assert np.max(np.abs(vals - u(xn))) <= 1e-6, u.name
        spec = operator_catalog()["dilation-op"]
        c = math.exp(math.sin(0.3) / 2.0)
        for u in HS:
            vals, _ = apply_normal_op(spec, u, xn)
            assert np.max(np.abs(vals - u(c * xn))) <= 1e-6, u.name


def test_criterion_6_symbol_order_fits():
    with criterion(6, "conjugated seminorm growth exponents", 120.0):
        for name, spec in operator_catalog().items():
            fits = sweep_symbol_orders(spec, HS)
            assert len(fits) == 5 * 27 * 3
            for f in fits:
                assert f.passed, (name, f.alpha, f.beta, f.l, f.s,
                                  f.u_name, f.slope, f.target)
        scale = operator_catalog()["scale-op"]
        for u in HS:
            f = estimate_symbol_order(scale, 0, 0, 0, 0, [u])[0]
            assert abs(f.slope - 1.0) <= 0.02, u.name


def test_criterion_7_derived_amplitude_classes():
    with criterion(7, "derivative amplitudes stay in the collar classes",
                   60.0):
        # one x'-derivative of the dilation integrand: class (m, m+1)
        dil = ConjugatedFamily(NormalOperatorSpec(
            scenario_phase("dilation"), AMP_ONE, 0.3, 1.0))
        rep = check_bs_membership(dil.amp_pair(0, 1), m=0.0, l=1.0, tol=0.15)
        assert rep.passed
        assert rep.slopes[(0, 0)] <= 0.0 + 0.15
        assert rep.xin_orders[(0, 0)] <= 1.0 + 0.15
        # one xi'-derivative needs a phase with genuine normal coupling
        mix = GeneratingPhase(
            parse_expr("x1*k1 + xn*kn*exp(sin(x1)/2) + 0.1*xn^2*k1"),
            name="mix")
        fam = ConjugatedFamily(NormalOperatorSpec(mix, AMP_ONE, 0.3, 1.0))
        rep = check_bs_membership(fam.amp_pair(1, 0), m=-1.0, l=0.0,
                                  tol=0.15)
        assert rep.passed
        assert rep.slopes[(0, 0)] <= -1.0 + 0.15
        assert rep.xin_orders[(0, 0)] is None \
            or rep.xin_orders[(0, 0)] <= 0.15
        # the dilation xi'-branch degenerates to zero, which is in the class
        repz = check_bs_membership(dil.amp_pair(1, 0), m=-1.0, l=0.0,
                                   tol=0.15)
        assert repz.identically_zero and repz.passed


def test_criterion_8_transpose_pairing():
    with criterion(8, "formal transpose pairing residuals", 60.0):
        specs = operator_catalog()
        smoothing = NormalOperatorSpec(
            scenario_phase("identity"),
            SymbolFn(parse_expr("bracket(kn)^(-2)"), order=-2.0), 0.3, 1.0,
            name="smoothing-op")
        _, rep = transpose_check(specs["identity-op"], HS[0], HS[1])
        assert rep["residual"] <= 1e-9
        _, rep = transpose_check(specs["dilation-op"], HS[0], HS[2])
        assert rep["residual"] <= 1e-6
        _, rep = transpose_check(smoothing, HS[1], HS[2])
        assert rep["residual"] <= 1e-6


CATALOG_EXPR_STRINGS = [
    "x1*k1 + xn*kn",
    "x1*k1 + xn*kn*exp(sin(x1)/2)",
    "x1*k1 + xn*kn*(1 + xn*0.2*cos(x1))",
    "x1*k1 + xn*kn + 0.1*xn*norm(k1, kn)",
    "bracket(k1, kn)",
    "kn^2 / norm(k1, kn)",
    "bump(1 - (2*xn)^2) / (bump(1 - (2*xn)^2) + bump((2*xn)^2 - 0.25))",
]


def test_criterion_9_numerical_hygiene():
    with criterion(9, "derivative oracle, quadrature estimates, determinism",
                   240.0):
        rng = np.random.default_rng(20250808)
        for text in CATALOG_EXPR_STRINGS:
            e = parse_expr(text)
            names = sorted(ex.free_vars(e))
            for _ in range(100):
                p = {n: float(rng.uniform(0.5, 2.0)
                              * rng.choice([-1.0, 1.0])) for n in names}
                for v in names:
                    assert fd_crosscheck(e, p, v, 1e-4) <= 1e-6
                    d = ex.differentiate(e, v)
                    assert fd_crosscheck(d, p, v, 1e-4) <= 1e-6
        # halving the tolerance moves results by less than the estimate
        phase = scenario_phase("dilation")
        loose = NormalOperatorSpec(phase, AMP_ONE, 0.3, 1.0,
                                   QuadratureSpec(panel_tol=1e-6))
        tight = NormalOperatorSpec(phase, AMP_ONE, 0.3, 1.0,
                                   QuadratureSpec(panel_tol=5e-7))
        xn = np.linspace(-3, 3, 41)
        v1, e1 = apply_normal_op(loose, hermite_fn(3), xn)
        v2, _ = apply_normal_op(tight, hermite_fn(3), xn)
        ok = np.abs(v1 - v2) <= np.maximum(e1, 1e-14)
        assert float(np.mean(ok)) >= 0.95
        # byte-identical reruns
        r1 = run_scenario(catalog.emit("identity"))
        r2 = run_scenario(catalog.emit("identity"))
        assert r1.digest() == r2.digest()
        b1, b2 = csv_bundle(r1), csv_bundle(r2)
        assert all(b1[k] == b2[k] for k in b1)


def test_criterion_10_half_line_decay():
    with criterion(10, "half-line transform decays to first order", 60.0):
        slope, const = measured_decay_exponent(exp_decay(), 10.0, 1000.0)
        assert abs(slope - (-1.0)) <= 0.05
        assert abs(const - 1.0) <= 0.05
