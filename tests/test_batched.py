"""Batched sample evaluation: pinned digests, the Jacobian and the
homogeneity residual against their pointwise oracles, NaN-strict
reductions and strict report JSON."""

import json
import math

import numpy as np
import pytest

from phasecert import catalog
from phasecert import expr as ex
from phasecert.exceptions import SingularLocusError
from phasecert.grammar import parse_expr
from phasecert.phase import homogeneity_samples
from phasecert.runner import (GRID_PRESETS, CheckOutcome, RunReport,
                              ScenarioRunner, load_scenario, run_scenario,
                              write_report)
from phasecert.symbols import RAY_SAMPLES
from phasecert.symplectic import (SymplectoMap, check_boundary_preserving,
                                  SOURCE_ORDER, collar_samples, jacobian,
                                  point_at, sup)

from oracles import looped_homogeneity_residual, sample_array

FAMILIES = {"symplecto", "phase", "generating"}

# RunReport.digest() of the symplecto, phase and generating families at
# seed 7.  Scenarios without a pin that depends on the sample points carry
# the digests of the one-point-at-a-time checks the batched ones replaced.
PINNED = {
    "identity": {"default": "e6375a1c72d7ceae890bb9f02226dcc1"
                            "bb54d045cabf00dfc98abb48573c6c75"},
    "dilation": {"default": "648514d6095d4b1fa38965f6a3a8408d"
                            "4262864f0b8e96d22794bf2a9edf4a31",
                 "fine": "39d47d5c109c88e26b656781703d1b75"
                         "7badf1493d26573105f9faa99ed69df5"},
    "quadratic-collar": {"default": "e3989d05bee9b837746728875e67c920"
                                    "4623c27b89acfc867002b54f5f708947"},
    "boundary-shear": {"default": "d7560bd79e6e1ac1cc550e677ea88b4c"
                                  "ea6dc1ea8aca6870f7772f8da4f6ccc9"},
    "bad-boundary-shift": {"default": "a712445fbef15c3f88e63a48ed4230fc"
                                      "9ba48da13fd127f38b1788541dee8136"},
    "bad-transmission": {"default": "80d8f9d3e618126ea75515b087278529"
                                    "327e7245f9e03a459ab159b7e51429fc"},
    "bad-symplectic": {"default": "2dbf35c4234d5bd93b3df6f3e228687e"
                                  "86f70355bc1f438ba713f0f4bbb32c4c",
                       "fine": "4a7b88d4eee96220a8e83e1ae74cd6c9"
                               "6c9888ffa3e9b9c6d74ed4bb4bf19802"},
}
for _name, _pins in PINNED.items():
    _pins.setdefault("fine", _pins["default"])


@pytest.mark.parametrize("grid", ["default", "fine"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_pointwise_families_digest_pinned(name, grid):
    rep = run_scenario(catalog.emit(name), FAMILIES, grid_preset=grid, seed=7)
    assert rep.digest() == PINNED[name][grid]


def build_map(name: str) -> SymplectoMap:
    sc = catalog.SCENARIOS[name]
    return SymplectoMap({k: parse_expr(v) for k, v in sc["map"].items()},
                        collar_halfwidth=sc["collar_halfwidth"],
                        name=name)


def pointwise_jacobian(chi: SymplectoMap, samples) -> np.ndarray:
    cols = SOURCE_ORDER
    return np.array([[[ex.evaluate(ex.differentiate(chi.components[r], c),
                                   point_at(samples, i))
                       for c in cols] for r in SOURCE_ORDER]
                     for i in range(len(samples))])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


MAPPED = [n for n, sc in catalog.SCENARIOS.items() if sc.get("map")]


@pytest.mark.parametrize("name", MAPPED)
def test_jacobian_equals_pointwise_oracle_bit_for_bit(name):
    chi = build_map(name)
    for samples in (collar_samples(chi, count=60, seed=3),
                    collar_samples(chi, count=60, seed=4, boundary=True)):
        J = jacobian(chi, samples)
        assert same_bits(J, pointwise_jacobian(chi, samples))
        assert same_bits(jacobian(chi, samples[5]), J[5])
        assert same_bits(jacobian(chi, point_at(samples, 5)), J[5])


def test_jacobian_of_constant_entries_covers_every_sample():
    chi = build_map("identity")
    J = jacobian(chi, collar_samples(chi, count=7))
    assert J.shape == (7, 4, 4)
    assert same_bits(J, np.broadcast_to(np.eye(4), (7, 4, 4)).copy())


def test_jacobian_program_belongs_to_its_map():
    # maps built and dropped one after the other may share an id();
    # each must still use its own compiled program
    for name in ("identity", "bad-symplectic", "identity", "bad-symplectic",
                 "dilation"):
        chi = build_map(name)
        samples = collar_samples(chi, count=20, seed=5)
        assert same_bits(jacobian(chi, samples),
                         pointwise_jacobian(chi, samples))
        del chi


def test_sup_propagates_nonfinite_and_reports_first_maximum():
    assert sup(np.array([0.0, -3.0, 2.0, 3.0]), 4) == (3.0, 1)
    assert sup(np.zeros(3), 3) == (0.0, None)
    assert sup(2.5, 3) == (2.5, 0)
    val, i = sup(np.array([1.0, np.nan, 5.0, np.nan]), 4)
    assert math.isnan(val) and i == 1
    assert sup(np.array([1.0, -np.inf]), 2) == (math.inf, 1)


BLOWUP = {"x1": "x1", "xn": "xn*exp(1000*k1^2)", "k1": "k1", "kn": "kn"}


def test_nonfinite_boundary_samples_fail_boundary_preserving():
    chi = SymplectoMap({k: parse_expr(v) for k, v in BLOWUP.items()})
    passed, metrics = check_boundary_preserving(
        chi, collar_samples(chi, boundary=True))
    assert math.isnan(metrics["residual"])
    assert not passed


def test_nonfinite_values_fail_homogeneity_oracle():
    e = parse_expr(BLOWUP["xn"])
    pts = sample_array([{"x1": 0.1, "xn": 0.0, "k1": 0.5, "kn": 1.0},
                        {"x1": 0.1, "xn": 0.0, "k1": 1.0, "kn": 1.0}])
    assert math.isnan(ex.homogeneity_residual(e, {"k1", "kn"}, 0.0, pts))


XI = {"k1", "kn"}


def homogeneity_rows(name: str) -> list:
    """(label, expression, degree, samples) of every homogeneity residual
    the runner takes of a catalog scenario at seeds 3 and 7 and the
    default and fine grids, plus the first derivatives of its phase and
    its declared amplitude on the SymbolFn rays."""
    rows = []
    for seed in (3, 7):
        for grid in ("default", "fine"):
            sc = load_scenario(catalog.emit(name))
            sc.seed = seed
            run = ScenarioRunner(sc, GRID_PRESETS[grid])
            at = f"{name} seed {seed} {grid}"
            if sc.chi is not None:
                pts = run._samples(20, 1)
                rows += [(f"{at} map {v}", comp, float(v in XI), pts)
                         for v, comp in sc.chi.components.items()]
            if sc.psi is not None:
                rows.append((f"{at} psi", sc.psi, 1.0,
                             homogeneity_samples(run._count(20), seed + 11)))
    rays = RAY_SAMPLES
    if sc.psi is not None:
        rows += [(f"{name} d psi / d {v}", ex.differentiate(sc.psi, v),
                  float(v not in XI), rays) for v in ("x1", "xn", "k1", "kn")]
    if sc.amplitude is not None \
            and sc.amplitude.homogeneous_degree is not None:
        rows.append((f"{name} amplitude", sc.amplitude.expr,
                     sc.amplitude.homogeneous_degree, rays))
    if name == "dilation":
        # cubes, which no catalog scenario has: a power evaluated at a
        # point of floats must round as it does on a sample array
        cube = parse_expr("x1^3*k1 + xn^3*kn")
        rows += [(f"{name} cube seed {seed}", cube, 1.0,
                  collar_samples(sc.chi, count=40, seed=seed))
                 for seed in range(20)]
    return rows


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name", catalog.names())
def test_homogeneity_residual_equals_looped_oracle_bit_for_bit(name):
    rows = homogeneity_rows(name)
    assert rows
    for label, e, degree, pts in rows:
        got = ex.homogeneity_residual(e, XI, degree, pts)
        want = looped_homogeneity_residual(e, XI, degree, pts)
        assert same_float(got, want), (label, got, want)


@pytest.mark.parametrize("text, kn, nonfinite", [
    (BLOWUP["xn"], 1.0, math.isnan),           # 0 * inf at the base
    ("exp(kn*kn)", 10.0, math.isinf),          # exp(10^4) at lambda = 10
])
def test_nonfinite_rows_equal_looped_oracle(text, kn, nonfinite):
    # the first sample is finite at every scaling, so the non-finite
    # error of the second is not the first one reduced
    e = parse_expr(text)
    pts = sample_array([{"x1": 0.1, "xn": 0.0, "k1": 0.001, "kn": 0.001},
                        {"x1": 0.1, "xn": 0.0, "k1": 1.0, "kn": kn}])
    got = ex.homogeneity_residual(e, XI, 0.0, pts)
    assert nonfinite(got)
    assert same_float(got, looped_homogeneity_residual(e, XI, 0.0, pts))


@pytest.mark.parametrize("text, kns", [
    ("x1 / kn", (1.0, 0.0)),           # singular at the base
    ("log(15 - kn)", (0.5, 1.0)),      # singular only at lambda = 100
])
def test_singular_sample_raises_like_looped_oracle(text, kns):
    e = parse_expr(text)
    pts = sample_array([{"x1": 0.1, "xn": 0.0, "k1": 0.5, "kn": kn}
                        for kn in kns])
    errors = []
    for fn in (ex.homogeneity_residual, looped_homogeneity_residual):
        with pytest.raises(SingularLocusError) as err:
            fn(e, XI, 1.0, pts)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def _spy_evaluate(monkeypatch) -> list:
    """The (expressions, sample shape) of every ex.evaluate call."""
    calls = []
    evaluate = ex.evaluate

    def spy(e, points):
        calls.append((e, points.shape))
        return evaluate(e, points)

    monkeypatch.setattr(ex, "evaluate", spy)
    return calls


@pytest.mark.parametrize("count", [3, 300])
def test_homogeneity_residual_evaluates_once_per_scaling(monkeypatch,
                                                         count):
    # every scaling, the base included, in one call
    calls = _spy_evaluate(monkeypatch)
    chi = build_map("dilation")
    ex.homogeneity_residual(chi.components["k1"], XI, 1.0,
                            collar_samples(chi, count=count))
    assert [shape for _, shape in calls] == [
        (1 + len(ex.HOMOGENEITY_LAMBDAS), count)]


def test_homogeneity_residual_evaluates_a_list_once(monkeypatch):
    chi = build_map("dilation")
    pts = collar_samples(chi, count=30)
    comps = list(chi.components.values())
    degrees = [float(v in XI) for v in chi.components]
    want = np.max([looped_homogeneity_residual(e, XI, d, pts)
                   for e, d in zip(comps, degrees)])
    calls = _spy_evaluate(monkeypatch)
    assert ex.homogeneity_residual(comps, XI, degrees, pts) == want
    assert len(calls) == 1 and calls[0][0] == comps


def test_missing_variable_names_it():
    chi = build_map("identity")
    with pytest.raises(KeyError, match="'zz'"):
        ex.eval_array(parse_expr("x1 + zz"), collar_samples(chi, count=3))


def _strict_load(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_nonfinite_numpy_floats_dump_as_strict_json():
    metrics = {"a": np.float64("nan"), "b": float("nan"),
               "c": np.float64("inf"), "d": np.float32("-inf"),
               "e": np.int64(3), "f": np.float64(0.25)}
    got = CheckOutcome("x", "fail", metrics).as_dict()["metrics"]
    assert got == {"a": "nan", "b": "nan", "c": "inf", "d": "-inf",
                   "e": 3.0, "f": 0.25}
    py = RunReport("s", 7, [CheckOutcome("x", "fail", {"r": float("nan")})])
    npy = RunReport("s", 7, [CheckOutcome("x", "fail",
                                          {"r": np.float64("nan")})])
    assert py.digest() == npy.digest()


def test_nonfinite_report_is_written_as_strict_json(tmp_path):
    sc = catalog.emit("identity")
    sc["map"] = dict(BLOWUP)
    sc["checks"] = ["symplecto"]
    rep = run_scenario(sc)
    assert "symplecto.boundary_preserving" in rep.failed
    body = _strict_load(write_report(rep, tmp_path).read_text())
    out = {c["check"]: c for c in body["checks"]}
    assert out["symplecto.boundary_preserving"]["metrics"]["residual"] \
        == "nan"
