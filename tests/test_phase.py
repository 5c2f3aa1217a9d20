import math

import numpy as np
import pytest

from phasecert import expr as ex
from phasecert.catalog import SCENARIOS
from phasecert.grammar import parse_expr
from phasecert.phase import (GENERATING_TOL, GeneratingPhase, boundary_flat,
                             boundary_phase, check_admissibility,
                             check_generating, check_homogeneity,
                             check_nondegeneracy, normal_coeffs)
from phasecert.symplectic import SymplectoMap, collar_samples

from oracles import derivative_multi, sample_array


def build_phase(name: str) -> GeneratingPhase:
    sc = SCENARIOS[name]
    return GeneratingPhase(parse_expr(sc["phase"]),
                           collar_halfwidth=sc["collar_halfwidth"], name=name)


def build_map(name: str) -> SymplectoMap:
    sc = SCENARIOS[name]
    comps = {k: parse_expr(v) for k, v in sc["map"].items()}
    return SymplectoMap(comps,
                        collar_halfwidth=sc["collar_halfwidth"], name=name)


IDENTITY = build_phase("identity")
DILATION = build_phase("dilation")
QUADRATIC = build_phase("quadratic-collar")
SHEAR = build_phase("boundary-shear")
BAD = build_phase("bad-transmission")


def test_boundary_phase_identity():
    pb, diag = boundary_phase(parse_expr("x1*k1 + xn*kn"))
    assert boundary_flat(diag)
    assert ex.evaluate(pb, {"x1": 0.7, "k1": -2.0}) == pytest.approx(-1.4)


def test_boundary_phase_dilation_drops_normal_term():
    for x1, k1 in [(-0.5, 2.0), (0.3, -1.0)]:
        got = ex.evaluate(DILATION.psi_boundary, {"x1": x1, "k1": k1})
        assert got == pytest.approx(x1 * k1, rel=1e-14)


def test_boundary_phase_bad_term_vanishes_at_xn_zero():
    # the 0.1 xn |xi| term dies at xn = 0, so the boundary phase is clean
    assert boundary_flat(BAD.boundary_diagnostics)


def test_phi_vanishes_at_boundary_with_xi_n_derivatives():
    for ph in (IDENTITY, DILATION, QUADRATIC, SHEAR):
        for a in range(4):
            d = derivative_multi(ph.phi, {"kn": a})
            x1 = np.linspace(-1, 1, 7)[:, None]
            k1 = np.array([-2.0, 1.0, 3.0])[None, :]
            for kv in (-2.5, -1.0, 0.5, 4.0):
                vals = ex.eval_array(
                    d, {"x1": x1, "xn": 0.0, "k1": k1, "kn": kv})
                assert float(np.max(np.abs(vals))) <= 1e-10, (ph.name, a)


def test_euler_identity_degree_one():
    for ph in (IDENTITY, DILATION, QUADRATIC, SHEAR, BAD):
        lhs = ex.add(ex.mul(ex.var("k1"), ex.differentiate(ph.psi, "k1")),
                     ex.mul(ex.var("kn"), ex.differentiate(ph.psi, "kn")))
        rng = np.random.default_rng(2)
        for _ in range(40):
            p = {"x1": float(rng.uniform(-1, 1)),
                 "xn": float(rng.uniform(-0.4, 0.4)),
                 "k1": float(rng.uniform(0.3, 3) * rng.choice([-1, 1])),
                 "kn": float(rng.uniform(0.3, 3) * rng.choice([-1, 1]))}
            a = ex.evaluate(lhs, p)
            b = ex.evaluate(ph.psi, p)
            assert abs(a - b) / max(1.0, abs(b)) <= 1e-10


def generating_residual(phase, chi):
    """The residual of check_generating on 200 samples at seed 13 with
    |eta| up to 6; the check must pass."""
    samples = collar_samples(chi, count=200, seed=13, eta_top=6.0)
    passed, metrics = check_generating(phase, chi, samples)
    assert passed
    return metrics["residual"]


def test_check_generating_identity():
    assert generating_residual(IDENTITY, build_map("identity")) == 0.0


def test_check_generating_dilation_and_quadratic():
    assert generating_residual(DILATION, build_map("dilation")) <= 1e-9
    assert generating_residual(QUADRATIC,
                               build_map("quadratic-collar")) <= 1e-9


def test_check_generating_mismatch_fails():
    # dilation's phase does not generate the identity map: the verdict
    # fails, and the residual at the reported worst point alone is the sup
    chi = build_map("identity")
    samples = collar_samples(chi, count=200, seed=13, eta_top=6.0)
    passed, metrics = check_generating(DILATION, chi, samples)
    assert not passed
    assert GENERATING_TOL < metrics["residual"] < math.inf
    point = metrics["worst_point"]
    assert point in [dict(zip(samples.dtype.names, s)) for s in samples]
    _, at_worst = check_generating(DILATION, chi, sample_array([point]))
    assert at_worst["residual"] == metrics["residual"]


def test_nondegeneracy_identity():
    passed, metrics = check_nondegeneracy(IDENTITY)
    assert passed
    assert metrics["min_abs"] == 1.0


def test_nondegeneracy_dilation_closed_form_min():
    # include x1 = -pi/2 so the sampled min hits exp(-1/2) exactly
    grid = []
    x1v = list(np.linspace(-2, 2, 21)) + [-math.pi / 2, math.pi / 2]
    for x1 in x1v:
        for xn in (-0.5, 0.0, 0.5):
            grid.append({"x1": float(x1), "xn": xn, "k1": 1.0, "kn": 1.0})
    _, metrics = check_nondegeneracy(DILATION, grid=sample_array(grid))
    oracle = min(math.exp(math.sin(x) / 2) for x in x1v)
    assert metrics["min_abs"] == pytest.approx(oracle, rel=1e-12)
    assert metrics["min_abs"] == pytest.approx(math.exp(-0.5), rel=1e-6)


def test_nondegeneracy_quadratic_interval_bound():
    # |d2psi| = |1 + 2 xn c(x1)| >= 1 - 2*0.5*0.2 on the collar |xn| <= 0.5
    passed, metrics = check_nondegeneracy(QUADRATIC)
    assert passed
    assert metrics["min_abs"] >= 0.8 - 1e-9


def q_plus(phase, x1: float) -> float:
    """|q+(x1)|, which is 4 kappa when x1 is the only x' sample."""
    return 4.0 * normal_coeffs(phase, np.array([x1]))[1]["kappa"]


def test_normal_coeffs_identity():
    passed, nc = normal_coeffs(IDENTITY)
    assert passed
    assert q_plus(IDENTITY, 0.4) == 1.0
    # q_minus = -q_plus = -1 exactly at every x' sample
    assert nc["symmetry_residual"] == 0.0
    assert nc["kappa"] == 0.25


def test_normal_coeffs_dilation_closed_form():
    samples = np.concatenate([np.linspace(-2, 2, 41), [-math.pi / 2]])
    passed, nc = normal_coeffs(DILATION, xprime_samples=samples)
    assert passed
    for x1 in (-1.0, 0.25, 2.0):
        want = math.exp(math.sin(x1) / 2)
        assert q_plus(DILATION, x1) == pytest.approx(want, rel=1e-14)
    # q_minus = -want at the same x': the symmetry residual there is
    # sup |q_plus + q_minus|
    _, at = normal_coeffs(DILATION,
                          xprime_samples=np.array([-1.0, 0.25, 2.0]))
    assert at["symmetry_residual"] == 0.0
    assert nc["kappa"] == pytest.approx(math.exp(-0.5) / 4.0, rel=1e-6)
    assert nc["euler_residual"] <= 1e-12


def test_normal_coeffs_bad_transmission_breaks_symmetry():
    passed, nc = normal_coeffs(BAD)
    assert not passed
    # q+ = 1.1, q- = -0.9: the symmetry residual is exactly 0.2
    assert nc["symmetry_residual"] == pytest.approx(0.2, abs=1e-12)
    assert nc["symmetry_residual"] >= 0.1


def test_normal_coeffs_kappa_monotone_under_refinement():
    _, coarse = normal_coeffs(DILATION,
                              xprime_samples=np.linspace(-1, 1, 11))
    _, fine = normal_coeffs(DILATION, xprime_samples=np.linspace(-1, 1, 41))
    assert fine["kappa"] <= coarse["kappa"] + 1e-15


def test_admissibility_identity_and_dilation():
    assert check_admissibility(IDENTITY)[1]["max_residual"] == 0.0
    passed, metrics = check_admissibility(DILATION)
    assert passed
    assert metrics["max_residual"] <= 1e-12
    assert check_admissibility(SHEAR)[0]
    assert check_admissibility(QUADRATIC)[0]


def test_admissibility_bad_phase_fails_on_normal_derivative():
    passed, metrics = check_admissibility(BAD)
    assert not passed
    # the transmission tolerance is 1e-10; dxn misses it by far
    assert metrics["per_derivative"]["dxn"] >= 0.1


def test_normal_coeffs_euler_residual_keeps_nan():
    # finite on the + ray (residual 1000 x1^2), inf - inf on the - ray
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn*exp(1000*x1^2*(1-kn))"),
                         name="nan-euler")
    with np.errstate(all="ignore"):
        _, nc = normal_coeffs(ph)
    assert np.isnan(nc["euler_residual"])


def test_check_homogeneity_passes_catalog_phases_and_reports_both_ways():
    pts = collar_samples(build_map("dilation"), count=12, seed=5)
    for ph in (IDENTITY, DILATION, QUADRATIC, SHEAR):
        passed, metrics = check_homogeneity(ph, pts)
        assert passed, ph.name
        assert set(metrics) == {"residual", "euler_residual", "tol"}
        assert max(metrics["residual"], metrics["euler_residual"]) <= 1e-12


def test_check_homogeneity_fails_both_ways_off_degree_one():
    # bracket(kn) = sqrt(1 + kn^2) is not homogeneous; the boundary part
    # x1*k1 is still flat, so the phase builds
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn*bracket(kn)"), name="b")
    pts = sample_array([{"x1": 0.2, "xn": 0.3, "k1": 1.0, "kn": 2.0},
                        {"x1": -0.4, "xn": 0.1, "k1": -2.0, "kn": 0.5}])
    passed, metrics = check_homogeneity(ph, pts)
    assert metrics["residual"] > 1e-3
    assert metrics["euler_residual"] > 1e-3
    assert not passed


def test_check_homogeneity_is_nan_strict():
    # exp(1000*xn^2*k1^2 ...) overflows to inf at every rescaled point
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn*exp(1000*xn^2*k1^2)"),
                         name="blowup")
    pts = sample_array([{"x1": 0.2, "xn": 0.9, "k1": 3.0, "kn": 2.0}])
    with np.errstate(all="ignore"):
        passed, metrics = check_homogeneity(ph, pts)
    assert not math.isfinite(np.maximum(metrics["residual"],
                                        metrics["euler_residual"]))
    assert not passed
