import math

import numpy as np
import pytest

from phasecert import catalog, normalop, runner
from phasecert import expr as ex
from phasecert.catalog import SCENARIOS
from phasecert.grammar import parse_expr
from phasecert.normalop import (NormalOperatorSpec, QuadratureSpec,
                                apply_normal_op, apply_truncated_op,
                                l2_smoke_check)
from phasecert.phase import GeneratingPhase
from phasecert.runner import run_scenario
from phasecert.schwartz import exp_decay, hermite_fn
from phasecert.symbols import SymbolFn

from oracles import trapezoid


def phase_of(name):
    sc = SCENARIOS[name]
    return GeneratingPhase(parse_expr(sc["phase"]),
                           collar_halfwidth=sc["collar_halfwidth"], name=name)


IDENTITY_PHASE = phase_of("identity")
DILATION_PHASE = phase_of("dilation")
AMP_ONE = SymbolFn(parse_expr("1"), order=0.0)
AMP_SMOOTHING = SymbolFn(parse_expr("bracket(kn)^(-2)"), order=-2.0)


def identity_spec(amp=AMP_ONE) -> NormalOperatorSpec:
    return NormalOperatorSpec(IDENTITY_PHASE, amp, xprime=0.3, xi_prime=1.0,
                              name="identity-op")


def dilation_spec(amp=AMP_ONE) -> NormalOperatorSpec:
    return NormalOperatorSpec(DILATION_PHASE, amp, xprime=0.3, xi_prime=1.0,
                              name="dilation-op")


def test_identity_reproduces_hermites():
    spec = identity_spec()
    xn = np.linspace(-3, 3, 25)
    for j in range(5):
        u = hermite_fn(j)
        vals, err = apply_normal_op(spec, u, xn)
        assert np.max(np.abs(vals - u(xn))) <= 1e-6, j
        assert np.max(np.abs(vals.imag)) <= 1e-6


def test_dilation_is_change_of_variables():
    spec = dilation_spec()
    c = math.exp(math.sin(0.3) / 2.0)
    xn = np.linspace(-3, 3, 25)
    for j in (0, 2, 4):
        u = hermite_fn(j)
        vals, _ = apply_normal_op(spec, u, xn)
        assert np.max(np.abs(vals - u(c * xn))) <= 1e-6, j


def test_dilation_cross_checked_at_higher_budget():
    spec = dilation_spec()
    tight = NormalOperatorSpec(DILATION_PHASE, AMP_ONE, 0.3, 1.0,
                               QuadratureSpec(panel_tol=1e-12))
    u = hermite_fn(1)
    xn = np.linspace(-2, 2, 9)
    v1, _ = apply_normal_op(spec, u, xn)
    v2, _ = apply_normal_op(tight, u, xn)
    assert np.max(np.abs(v1 - v2)) <= 1e-8


def test_smoothing_amplitude_matches_convolution_kernel():
    # a = <xi_n>^-2 with the flat phase is convolution by exp(-|x|)/2
    spec = identity_spec(AMP_SMOOTHING)
    u = hermite_fn(0)
    xn = np.linspace(-2.0, 2.0, 9)
    vals, _ = apply_normal_op(spec, u, xn)
    for i, x in enumerate(xn):
        want = trapezoid(lambda y: 0.5 * np.exp(-np.abs(x - y)) * u(y),
                         -30.0, 30.0, 200_001)
        assert abs(vals[i] - want) <= 1e-6


def test_smoothing_amplitude_matches_bruteforce_frequency_integral():
    spec = identity_spec(AMP_SMOOTHING)
    u = hermite_fn(2)
    xn = np.array([-1.0, 0.0, 0.7])
    vals, _ = apply_normal_op(spec, u, xn)
    for i, x in enumerate(xn):
        want = trapezoid(
            lambda k: np.exp(1j * x * k) / (1 + k * k)
            * u.ft_values(k) / (2 * np.pi), -60.0, 60.0, 100_001)
        assert abs(vals[i] - want) <= 1e-6


def test_linearity():
    spec = dilation_spec()
    u0, u2 = hermite_fn(0), hermite_fn(2)
    both = ex.add(ex.mul(ex.const(0.7), u0.expr),
                  ex.mul(ex.const(-1.3), u2.expr))
    from phasecert.schwartz import SchwartzFn
    w = SchwartzFn("combo", both,
                   analytic_ft=lambda xi: 0.7 * u0.ft_values(xi)
                   - 1.3 * u2.ft_values(xi))
    xn = np.linspace(-2, 2, 11)
    v, _ = apply_normal_op(spec, w, xn)
    v0, _ = apply_normal_op(spec, u0, xn)
    v2, _ = apply_normal_op(spec, u2, xn)
    assert np.max(np.abs(v - 0.7 * v0 + 1.3 * v2)) <= 1e-9


def linearity_outcome(amplitude="1"):
    sc = catalog.emit("dilation")
    sc["amplitude"] = {"expr": amplitude, "order": 0.0}
    rep = run_scenario(sc, {"phase", "operator"})
    return next(o for o in rep.outcomes if o.check == "operator.linearity")


def test_linearity_check_is_relative_to_the_outputs():
    # an operator linear by construction, whose outputs are of order 1e7
    out = linearity_outcome("10000000")
    assert out.status == "pass", out.metrics
    assert set(out.metrics) == {"residual", "tol"}


def test_linearity_check_fails_a_nonlinear_operator(monkeypatch):
    def bent(spec, u, xn_grid):
        v, err = apply_normal_op(spec, u, xn_grid)
        return v + 1e-6 * v * np.abs(v), err

    monkeypatch.setattr(runner, "apply_normal_op", bent)
    out = linearity_outcome()
    assert out.status == "fail", out.metrics


def test_quadrature_consistency_error_estimates():
    spec = dilation_spec()
    u = hermite_fn(3)
    xn = np.linspace(-3, 3, 41)
    loose = NormalOperatorSpec(DILATION_PHASE, AMP_ONE, 0.3, 1.0,
                               QuadratureSpec(panel_tol=1e-6))
    tight = NormalOperatorSpec(DILATION_PHASE, AMP_ONE, 0.3, 1.0,
                               QuadratureSpec(panel_tol=5e-7))
    v1, e1 = apply_normal_op(loose, u, xn)
    v2, _ = apply_normal_op(tight, u, xn)
    moved = np.abs(v1 - v2)
    ok = moved <= np.maximum(e1, 1e-14)
    assert np.mean(ok) >= 0.95


def test_convergence_when_tolerance_tightened():
    spec_loose = NormalOperatorSpec(DILATION_PHASE, AMP_ONE, 0.3, 1.0,
                                    QuadratureSpec(panel_tol=1e-4,
                                                   order=4, max_doubles=20))
    spec_tight = NormalOperatorSpec(DILATION_PHASE, AMP_ONE, 0.3, 1.0,
                                    QuadratureSpec(panel_tol=1e-4 / 16,
                                                   order=4, max_doubles=20))
    u = hermite_fn(0)
    c = math.exp(math.sin(0.3) / 2.0)
    xn = np.linspace(-2, 2, 9)
    v1, _ = apply_normal_op(spec_loose, u, xn)
    v2, _ = apply_normal_op(spec_tight, u, xn)
    e1 = np.max(np.abs(v1 - u(c * xn)))
    e2 = np.max(np.abs(v2 - u(c * xn)))
    assert e2 <= max(e1 / 4.0, 5e-13)


def test_truncated_identity_reproduces_on_half_line():
    spec = identity_spec()
    u = exp_decay()
    xn = np.linspace(0.25, 3.0, 12)
    vals, _ = apply_truncated_op(spec, u, xn)
    assert np.max(np.abs(vals - np.exp(-xn))) <= 1e-5


def test_truncated_smoothing_matches_bruteforce():
    spec = identity_spec(AMP_SMOOTHING)
    u = exp_decay()
    xn = np.array([0.5, 1.0, 2.0])
    vals, _ = apply_truncated_op(spec, u, xn)
    for i, x in enumerate(xn):
        want = trapezoid(
            lambda k: np.exp(1j * x * k) / (1 + k * k)
            / (1 + 1j * k) / (2 * np.pi), -4000.0, 4000.0, 400_001)
        assert abs(vals[i] - want) <= 1e-6


def test_truncated_dilation_with_smoothing_against_composed_oracle():
    spec = dilation_spec(AMP_SMOOTHING)
    u = exp_decay()
    c = math.exp(math.sin(0.3) / 2.0)
    xn = np.array([0.5, 1.0, 1.5])
    vals, _ = apply_truncated_op(spec, u, xn)
    # phase x_n xi_n c with amplitude <xi_n>^-2: substitute k -> k

    for i, x in enumerate(xn):
        want = trapezoid(
            lambda k: np.exp(1j * x * c * k) / (1 + k * k)
            / (1 + 1j * k) / (2 * np.pi), -4000.0, 4000.0, 400_001)
        assert abs(vals[i] - want) <= 1e-5


def test_truncated_op_takes_the_cutoff_path_for_a_smoothing_amplitude(
        monkeypatch):
    # order -2 adds decay to the half-line transform; the integral is still
    # the one cutoff Richardson call, never adaptive panels
    calls = {"cutoff": 0, "adaptive": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(normalop, "cutoff_richardson",
                        counted("cutoff", normalop.cutoff_richardson))
    monkeypatch.setattr(normalop, "integrate_adaptive",
                        counted("adaptive", normalop.integrate_adaptive))
    apply_truncated_op(identity_spec(AMP_SMOOTHING), exp_decay(),
                       np.array([0.5, 1.0]))
    assert calls == {"cutoff": 1, "adaptive": 0}


def test_truncated_rejects_nonpositive_points():
    spec = identity_spec()
    with pytest.raises(ValueError):
        apply_truncated_op(spec, exp_decay(), np.array([0.0, 1.0]))


def test_l2_smoke_identity_and_dilation():
    for spec in (identity_spec(), dilation_spec()):
        for j in range(5):
            passed, rep = l2_smoke_check(spec, hermite_fn(j))
            assert passed, (spec.name, j, rep)
