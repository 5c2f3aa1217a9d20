import math

import numpy as np
import pytest

from phasecert import catalog
from phasecert import expr as ex
from phasecert.catalog import SCENARIOS
from phasecert.exceptions import BoundaryPreservationError
from phasecert.grammar import parse_expr
from phasecert.grids import quasi_uniform
from phasecert.runner import run_scenario
from phasecert.symplectic import (COLLAR_VARS, SymplectoMap,
                                  check_boundary_preserving, check_homogeneity,
                                  check_jacobian_structure, check_symplectic,
                                  collar_samples, induced_boundary_map,
                                  jacobian)

from oracles import central_diff


def build_map(name: str) -> SymplectoMap:
    sc = SCENARIOS[name]
    comps = {k: parse_expr(v) for k, v in sc["map"].items()}
    return SymplectoMap(comps,
                        collar_halfwidth=sc["collar_halfwidth"], name=name)


IDENTITY = build_map("identity")
DILATION = build_map("dilation")
QUADRATIC = build_map("quadratic-collar")
SHIFTED = build_map("bad-boundary-shift")
BROKEN = build_map("bad-symplectic")


def boundary_value(chi, p):
    """b(y') of the induced boundary map of chi at the point p: the
    tangential target x1 at y_n = 0."""
    b = ex.substitute(chi.components["x1"], {"xn": 0.0})
    return float(ex.eval_array(b, p))


def cotangent_value(chi, p):
    """The 1 x 1 cotangent matrix M(y') of the boundary map of chi at p,
    with xi'_boundary = M(y') eta': dk1/dk1 at y_n = 0."""
    m = ex.substitute(ex.differentiate(chi.components["k1"], "k1"),
                      {"xn": 0.0})
    return np.array([[float(ex.eval_array(m, p))]])


def edge(chi):
    """200 boundary samples of chi at seed 7."""
    return collar_samples(chi, boundary=True)


def shear_lift() -> SymplectoMap:
    # cotangent lift of b(y1) = y1 + 0.3 tanh(y1): x1 = b, xi1 = eta1/b'
    tanh = "(exp(2*x1) - 1) / (exp(2*x1) + 1)"
    bp = f"(1 + 0.3*(1 - ({tanh})^2))"
    return SymplectoMap({
        "x1": parse_expr(f"x1 + 0.3*{tanh}"),
        "xn": parse_expr("xn"),
        "k1": parse_expr(f"k1 / {bp}"),
        "kn": parse_expr("kn"),
    }, name="shear-lift")


def test_identity_jacobian_is_identity():
    p = {"x1": 0.4, "xn": -0.2, "k1": 1.5, "kn": -2.0}
    assert np.allclose(jacobian(IDENTITY, p), np.eye(4), atol=0)


def test_dilation_jacobian_boundary_entries():
    # at y_n = 0 the two normal factors multiply to 1 in closed form
    for x1 in (-1.0, 0.3, 0.9):
        p = {"x1": x1, "xn": 0.0, "k1": 1.0, "kn": 2.0}
        J = jacobian(DILATION, p)
        g = math.sin(x1) / 2.0
        assert J[2, 2] == pytest.approx(math.exp(-g), rel=1e-14)
        assert J[3, 3] == pytest.approx(math.exp(g), rel=1e-14)
        assert J[2, 2] * J[3, 3] == pytest.approx(1.0, rel=1e-14)


def test_jacobian_entries_match_fd():
    p = {"x1": 0.3, "xn": 0.2, "k1": 1.2, "kn": -0.8}
    cols = ["x1", "k1", "xn", "kn"]
    for chi in (DILATION, QUADRATIC):
        J = jacobian(chi, p)
        for i, row in enumerate(["x1", "k1", "xn", "kn"]):
            comp = chi.components[row]
            for j, c in enumerate(cols):
                def f(v, c=c, comp=comp):
                    q = dict(p)
                    q[c] = v
                    return ex.evaluate(comp, q)
                fd = central_diff(f, p[c], 1e-4)
                assert abs(J[i, j] - fd) / max(1.0, abs(J[i, j])) <= 1e-6


def symplectic_residual(chi):
    return check_symplectic(chi, collar_samples(chi))[1]["residual"]


def test_symplectic_identity_and_catalog():
    assert symplectic_residual(IDENTITY) == 0.0
    assert symplectic_residual(DILATION) <= 1e-10
    assert symplectic_residual(QUADRATIC) <= 1e-10
    assert symplectic_residual(shear_lift()) <= 1e-10


def test_symplectic_broken_map_fails():
    passed, metrics = check_symplectic(BROKEN, collar_samples(BROKEN))
    assert not passed
    assert metrics["residual"] >= 0.1


def boundary_residual(chi):
    return check_boundary_preserving(chi, edge(chi))[1]["residual"]


def test_boundary_preserving():
    assert boundary_residual(IDENTITY) == 0.0
    assert boundary_residual(DILATION) == 0.0
    assert boundary_residual(QUADRATIC) <= 1e-14
    passed, metrics = check_boundary_preserving(SHIFTED, edge(SHIFTED))
    assert not passed
    assert metrics["residual"] == pytest.approx(0.1, abs=1e-15)


def test_homogeneity_of_catalog_maps():
    for chi in (IDENTITY, DILATION, QUADRATIC, BROKEN, SHIFTED):
        pts = collar_samples(chi, count=20, seed=3)
        passed, metrics = check_homogeneity(chi, pts)
        assert passed and metrics["residual"] <= 1e-10


def test_symplectic_implies_unimodular():
    for chi in (IDENTITY, DILATION, QUADRATIC):
        for p in collar_samples(chi, count=50, seed=5):
            J = jacobian(chi, p)
            assert abs(np.linalg.det(J) - 1.0) <= 1e-8


def test_induced_boundary_map_identity():
    assert induced_boundary_map(IDENTITY, edge(IDENTITY))[0]
    p = {"x1": 0.7, "k1": 2.0, "kn": 1.0}
    assert boundary_value(IDENTITY, p) == 0.7
    assert cotangent_value(IDENTITY, p)[0, 0] == 1.0


def test_induced_boundary_map_dilation_is_trivial():
    assert induced_boundary_map(DILATION, edge(DILATION))[0]
    for x1 in (-0.8, 0.1, 0.9):
        p = {"x1": x1, "k1": 1.3, "kn": -2.0}
        assert boundary_value(DILATION, p) == pytest.approx(x1, abs=1e-14)
        assert cotangent_value(DILATION, p)[0, 0] == pytest.approx(
            1.0, abs=1e-14)


def test_induced_boundary_map_shear():
    chi = shear_lift()
    passed, metrics = induced_boundary_map(chi, edge(chi))
    assert passed and metrics["det_residual"] <= 1e-10
    for y1 in (-1.0, 0.2, 1.4):
        p = {"x1": y1, "k1": 1.0, "kn": 3.0}
        b = y1 + 0.3 * math.tanh(y1)
        bprime = 1.0 + 0.3 / math.cosh(y1) ** 2
        assert boundary_value(chi, p) == pytest.approx(b, rel=1e-12)
        assert cotangent_value(chi, p)[0, 0] == pytest.approx(1.0 / bprime,
                                                            rel=1e-12)


def test_boundary_map_of_shift_raises():
    with pytest.raises(BoundaryPreservationError):
        induced_boundary_map(SHIFTED, edge(SHIFTED))


def test_jacobian_structure_catalog():
    for chi in (IDENTITY, DILATION, QUADRATIC, shear_lift()):
        passed, metrics = check_jacobian_structure(
            chi, edge(chi), collar_samples(chi))
        assert passed, (chi.name, metrics)
        assert metrics["zero_blocks"] <= 1e-10
        assert metrics["boundary_det_residual"] <= 1e-8
        assert metrics["normal_product_residual"] <= 1e-8
        assert metrics["min_normal_derivative"] > 0.1


def test_jacobian_structure_interior_follows_the_scenario_seed():
    def min_dxn(seed):
        rep = run_scenario(catalog.emit("dilation"), {"symplecto"}, seed=seed)
        [out] = [o for o in rep.outcomes
                 if o.check == "symplecto.jacobian_structure"]
        return out.metrics["min_normal_derivative"]
    assert min_dxn(3) != min_dxn(7)


def test_jacobian_structure_quadratic_tight():
    _, metrics = check_jacobian_structure(QUADRATIC, edge(QUADRATIC),
                                          collar_samples(QUADRATIC))
    assert metrics["zero_blocks"] <= 1e-12
    assert metrics["normal_product_residual"] <= 1e-10


def test_boundary_map_inverse_composition():
    # dilation with g -> -g is the exact inverse; boundary maps compose to id
    sc = SCENARIOS["dilation"]["map"]
    inv = SymplectoMap({
        "x1": parse_expr("x1"),
        "xn": parse_expr("xn*exp(sin(x1)/2)"),
        "k1": parse_expr("k1 - xn*kn*(cos(x1)/2)"),
        "kn": parse_expr("kn*exp(-sin(x1)/2)"),
    }, name="dilation-inverse")
    assert symplectic_residual(inv) <= 1e-10
    assert induced_boundary_map(DILATION, edge(DILATION))[0]
    assert induced_boundary_map(inv, edge(inv))[0]
    for y1 in (-0.9, 0.0, 0.7):
        p = {"x1": y1, "k1": 1.0, "kn": 1.0}
        mid = boundary_value(DILATION, p)
        back = boundary_value(inv, {"x1": mid, "k1": 1.0, "kn": 1.0})
        assert abs(back - y1) <= 1e-8
        M = cotangent_value(DILATION, p) @ cotangent_value(inv, p)
        assert abs(M[0, 0] - 1.0) <= 1e-8


def test_dilation_composed_with_inverse_is_identity():
    inv = SymplectoMap({
        "x1": parse_expr("x1"),
        "xn": parse_expr("xn*exp(sin(x1)/2)"),
        "k1": parse_expr("k1 - xn*kn*(cos(x1)/2)"),
        "kn": parse_expr("kn*exp(-sin(x1)/2)"),
    }, name="dilation-inverse")
    pts = collar_samples(DILATION, count=25, seed=9)
    img = dict(zip(COLLAR_VARS, ex.Program(
        [DILATION.components[v] for v in COLLAR_VARS])(pts)))
    back = ex.Program([inv.components[v] for v in COLLAR_VARS])(img)
    for v, b in zip(COLLAR_VARS, back):
        assert np.all(np.abs(b - pts[v])
                      <= 1e-10 * np.maximum(1.0, np.abs(pts[v])))


# -------------------------------------------------------------- samples

@pytest.mark.parametrize("seed", [0, 7, -3, 10**6])
def test_collar_samples_ranges(seed):
    for chi, top in ((DILATION, 8.0), (QUADRATIC, 6.0), (IDENTITY, 0.5)):
        h = chi.collar_halfwidth
        for boundary in (False, True):
            pts = collar_samples(chi, count=300, seed=seed,
                                 boundary=boundary, eta_top=top)
            assert len(pts) == 300
            assert np.all(np.abs(pts["x1"]) <= 1.0)
            if boundary:
                assert np.all(pts["xn"] == 0.0)
            else:
                assert np.all(np.abs(pts["xn"]) <= h)
                assert np.any(pts["xn"] != 0.0)
            eta = np.hypot(pts["k1"], pts["kn"])
            assert np.all((eta >= 0.5 - 1e-12) & (eta <= top + 1e-12))


def test_collar_samples_are_deterministic_per_seed():
    for boundary in (False, True):
        runs = {}
        for seed in range(-2, 12):
            a = collar_samples(DILATION, count=50, seed=seed,
                               boundary=boundary)
            b = collar_samples(DILATION, count=50, seed=seed,
                               boundary=boundary)
            assert a.tobytes() == b.tobytes()
            runs[seed] = {tuple(row) for row in a.tolist()}
        # distinct seeds share no point
        seen = set()
        for pts in runs.values():
            assert len(pts) == 50 and not pts & seen
            seen |= pts


@pytest.mark.parametrize("dim", [3, 4, 6])
def test_quasi_uniform_fills_every_tenth(dim):
    for count in (20, 100, 200, 400, 1000):
        for seed in (0, 1, 7, 11, 42, 1000):
            u = quasi_uniform(count, dim, seed)
            assert u.shape == (count, dim)
            assert np.all((u >= 0.0) & (u < 1.0))
            for j in range(dim):
                tenths = np.bincount((u[:, j] * 10).astype(int),
                                     minlength=10)
                assert np.all(np.abs(tenths - count / 10) <= 2), \
                    (count, seed, j, tenths)
