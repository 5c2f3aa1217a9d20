import math

import numpy as np
import pytest

from phasecert import catalog
from phasecert import expr as ex
from phasecert.catalog import SCENARIOS
from phasecert.grammar import parse_expr
from phasecert.normalop import NormalOperatorSpec, apply_normal_op
from phasecert import opsymb
from phasecert.opsymb import (ConjugatedFamily, default_t_grid,
                              estimate_symbol_order, fit_seminorm_ladder,
                              panel_fourier_sum, sweep_symbol_orders,
                              transpose_check)
from phasecert.phase import GeneratingPhase
from phasecert.quadrature import panel_nodes
from phasecert.runner import load_scenario, run_scenario
from phasecert.schwartz import hermite_fn
from phasecert.symbols import SymbolFn, check_bs_membership

from oracles import per_function_outputs, trapezoid


def phase_of(name):
    sc = SCENARIOS[name]
    return GeneratingPhase(parse_expr(sc["phase"]),
                           collar_halfwidth=sc["collar_halfwidth"], name=name)


AMP_ONE = SymbolFn(parse_expr("1"), order=0.0)
IDENTITY_SPEC = NormalOperatorSpec(phase_of("identity"), AMP_ONE, 0.3, 1.0,
                                   name="identity-op")
DILATION_SPEC = NormalOperatorSpec(phase_of("dilation"), AMP_ONE, 0.3, 1.0,
                                   name="dilation-op")
MIX_PHASE = GeneratingPhase(
    parse_expr("x1*k1 + xn*kn*exp(sin(x1)/2) + 0.1*xn^2*k1"), name="mix")
MIX_SPEC = NormalOperatorSpec(MIX_PHASE, AMP_ONE, 0.3, 1.0, name="mix-op")
HS = [hermite_fn(j) for j in range(5)]


def recorded_ladders(monkeypatch) -> list:
    """(rungs, seminorms) of every later fit_seminorm_ladder call, in
    call order."""
    calls = []
    real = opsymb.fit_seminorm_ladder

    def spy(rungs, seminorms, *args, **kwargs):
        calls.append((tuple(rungs), tuple(seminorms)))
        return real(rungs, seminorms, *args, **kwargs)

    monkeypatch.setattr(opsymb, "fit_seminorm_ladder", spy)
    return calls


# ------------------------------------------------------ conjugated family

def test_conjugated_identity_is_exact_at_every_rung():
    fam = ConjugatedFamily(IDENTITY_SPEC, 0, 0, 0)
    t = default_t_grid()
    for u, outs in zip(HS[:3], fam.outputs(HS[:3])):
        for o in outs[(0, 0, 0)]:
            assert np.max(np.abs(o - u(t))) <= 1e-9


def test_conjugated_dilation_rung_independent():
    fam = ConjugatedFamily(DILATION_SPEC, 0, 0, 0)
    t = default_t_grid()
    c = math.exp(math.sin(0.3) / 2.0)
    outs = fam.outputs([HS[1]])[0][(0, 0, 0)]
    for o in outs:
        assert np.max(np.abs(o - HS[1](c * t))) <= 1e-9


def test_conjugated_scalar_amplitude_scales_exactly():
    # a = <xi'> is xi_n-free: the conjugated output is <xi'> * u
    amp = SymbolFn(parse_expr("bracket(k1)"), order=1.0)
    spec = NormalOperatorSpec(phase_of("identity"), amp, 0.3, 1.0)
    fam = ConjugatedFamily(spec, 0, 0, 0)
    t = default_t_grid()
    outs = fam.outputs([HS[0]], rungs=(1.0, 4.0, 64.0))[0][(0, 0, 0)]
    for rung, o in zip((1.0, 4.0, 64.0), outs):
        assert np.max(np.abs(o - rung * HS[0](t))) <= 1e-9 * rung


def test_first_derivative_output_matches_fd_in_t():
    fam = ConjugatedFamily(DILATION_SPEC, 0, 0, 1)
    h = 1e-4
    t = np.array([0.4, 1.1])
    out_s1 = fam.outputs([HS[2]], rungs=(4.0,), t_grid=t)[0][(0, 0, 1)][0]
    up = fam.outputs([HS[2]], rungs=(4.0,), t_grid=t + h)[0][(0, 0, 0)][0]
    dn = fam.outputs([HS[2]], rungs=(4.0,), t_grid=t - h)[0][(0, 0, 0)][0]
    fd = (up - dn) / (2 * h)
    assert np.max(np.abs(out_s1 - fd)) <= 1e-6


T_ONLY_SPEC = NormalOperatorSpec(
    phase_of("identity"), SymbolFn(parse_expr("exp(-xn^2)"), order=0.0),
    0.3, 1.0, name="t-only-op")


@pytest.mark.parametrize("spec", [IDENTITY_SPEC, T_ONLY_SPEC, MIX_SPEC],
                         ids=["constant", "t-only", "mix"])
def test_outputs_match_the_dense_sum(spec):
    # amplitude parts that are scalars, depend on t or on s alone, or on
    # both, against the sum of e^{i phi} (re + i im) u_hat w over the nodes
    fam = ConjugatedFamily(spec, 1, 1, 1)
    u, t, rungs = HS[1], default_t_grid(), (1.0, 8.0)
    a, b, n = fam._panels([u], float(np.max(np.abs(t))))
    nodes, weights = panel_nodes(a, b, n, order=10)
    uhat = u.ft_values(nodes) / (2.0 * math.pi)
    outs = fam.outputs([u], rungs, t)[0]
    tv, rv, sv = ex.var("t"), ex.var("r"), ex.var("s")
    resc = {"xn": ex.quot(tv, rv), "kn": ex.mul(sv, rv)}
    for i, rung in enumerate(rungs):
        env = {"x1": spec.xprime, "k1": math.sqrt(rung * rung - 1.0),
               "r": rung, "t": t[:, None], "s": nodes[None, :]}
        osc = np.exp(1j * ex.eval_array(fam.phi_resc, env))
        for key in fam.keys:
            re, im = (ex.eval_array(ex.substitute(p, resc), env)
                      for p in fam.amp_pairs[key])
            want = (osc * (re + 1j * im) * uhat) @ weights \
                * rung ** (-key[2])
            err = np.max(np.abs(outs[key][i] - want))
            assert err <= 1e-12 * np.max(np.abs(want)), (key, rung)


@pytest.mark.parametrize("name", ["identity", "dilation", "quadratic-collar",
                                  "boundary-shear"])
def test_joint_outputs_match_one_sweep_per_test_function(name):
    # the order fit's test functions on the widest s grid either needs,
    # against each swept alone on its own grid
    spec = scenario_spec(name)
    fam = ConjugatedFamily(spec, 1, 1, 1)
    t_grid, rungs, _ = opsymb.ladder_window(spec)
    us = [HS[0], HS[2]]
    t_max = float(np.max(t_grid))
    assert fam._panels(us[:1], t_max) != fam._panels(us, t_max)
    for u, outs in zip(us, fam.outputs(us, rungs, t_grid)):
        want = per_function_outputs(fam, u, rungs, t_grid)
        for key in fam.keys:
            got, ref = np.array(outs[key]), np.array(want[key])
            assert got.shape == (len(rungs), len(t_grid))
            assert np.max(np.abs(got - ref)) \
                <= 1e-12 * np.max(np.abs(ref)), (u.name, key)


def test_one_sweep_runs_the_program_once_per_rung(monkeypatch):
    # one program execution, one panel sum and one dense kernel per rung,
    # whatever the number of test functions
    fam = ConjugatedFamily(MIX_SPEC, 1, 1, 1)
    calls = []
    run = ex.Program.__call__
    monkeypatch.setattr(
        ex.Program, "__call__",
        lambda self, env: (self is fam._prog and calls.append("prog"))
        or run(self, env))
    for name in ("panel_sum", "_kernel"):
        method = getattr(opsymb.Oscillatory, name)
        monkeypatch.setattr(
            opsymb.Oscillatory, name,
            lambda self, *a, _m=method, _n=name: calls.append(_n)
            or _m(self, *a))
    rungs = (1.0, 4.0, 16.0)
    for us in ([HS[0]], [HS[0], HS[2]], HS):
        del calls[:]
        fam.outputs(us, rungs)
        assert sorted(calls) == ["_kernel"] * 3 + ["panel_sum"] * 3 \
            + ["prog"] * 3, len(us)
    del calls[:]
    estimate_symbol_order(MIX_SPEC, 1, 1, 1, 1, HS, family=fam)
    assert calls.count("prog") == len(opsymb.DEFAULT_RUNGS)


# --------------------------------------------------------------- order fits

def test_identity_order_fit_slope_zero():
    for (l, s) in [(0, 0), (1, 1), (2, 2)]:
        fits = estimate_symbol_order(IDENTITY_SPEC, 0, 0, l, s, [HS[0]])
        f = fits[0]
        assert f.slope == pytest.approx(0.0, abs=1e-10)
        assert f.passed


def test_scale_amplitude_exact_power_law():
    amp = SymbolFn(parse_expr("bracket(k1)"), order=1.0)
    spec = NormalOperatorSpec(phase_of("identity"), amp, 0.3, 1.0)
    for u in (HS[0], HS[3]):
        f = estimate_symbol_order(spec, 0, 0, 0, 0, [u])[0]
        assert f.slope == pytest.approx(1.0, abs=0.02)


def test_dilation_x_derivative_slope_within_tolerance():
    f = estimate_symbol_order(DILATION_SPEC, 0, 1, 0, 0, [HS[0]])[0]
    assert f.target == 0.0
    assert f.passed
    assert f.slope is None or f.slope <= 0.1


def test_dilation_xi_derivative_family_is_zero():
    # for the dilation phase the xi'-derivative of the integrand vanishes
    f = estimate_symbol_order(DILATION_SPEC, 1, 0, 0, 0, [HS[0]])[0]
    assert f.identically_zero and f.passed


def test_mix_phase_xi_derivative_decays():
    f = estimate_symbol_order(MIX_SPEC, 1, 0, 0, 0, [HS[0]])[0]
    assert f.slope is not None
    assert f.slope <= -1.0 + 0.1
    assert f.passed


def test_full_sweep_dilation_passes():
    fits = sweep_symbol_orders(DILATION_SPEC, HS)
    assert len(fits) == 5 * 27 * 3
    assert all(f.passed for f in fits)


def test_ladder_window_full_ladder_without_support():
    t_grid, rungs, label = opsymb.ladder_window(DILATION_SPEC)
    assert np.array_equal(t_grid, default_t_grid())
    assert rungs == opsymb.DEFAULT_RUNGS
    assert label == "full ladder"


def scenario_spec(name):
    """The operator spec the runner builds for a catalog scenario."""
    sc = load_scenario(SCENARIOS[name])
    return NormalOperatorSpec(sc.generating_phase(), sc.operator_amplitude(),
                              0.3, 1.0, name=sc.name)


def test_sweep_takes_the_saturated_window_of_a_support_limited_amplitude(
        monkeypatch):
    spec = scenario_spec("quadratic-collar")
    t_grid, rungs, label = opsymb.ladder_window(spec)
    assert rungs == (16.0, 32.0, 64.0, 128.0, 256.0)
    assert label == "saturated tail (support-limited amplitude)"
    assert float(np.max(t_grid)) == 6.0 and len(t_grid) == 27
    assert opsymb.SWEEP_MIN_LIVE == 4
    ladders = recorded_ladders(monkeypatch)
    fits = sweep_symbol_orders(spec, [HS[0], HS[2]], 1, 1, 1, 1)
    assert len(fits) == len(ladders) == 2 * 8 * 2
    assert all(r == rungs for r, _ in ladders)
    rep = run_scenario(catalog.emit("quadratic-collar"), {"phase", "opsymb"})
    order_fit = next(o for o in rep.outcomes
                     if o.check == "opsymb.order_fit")
    assert order_fit.metrics["window"] == \
        "saturated tail (support-limited amplitude)"
    assert order_fit.metrics["fits"] == [
        {"alpha": f.alpha, "beta": f.beta, "l": f.l, "s": f.s,
         "u": f.u_name, "slope": f.slope, "target": f.target} for f in fits]


def test_order_fit_fits_five_live_rungs_on_the_full_ladder():
    # outputs are evaluated at k1 ~ rung, so exp(-k1^2/30) leaves rungs
    # 1 to 16 live: 5 rungs, enough for a sweep fit (SWEEP_MIN_LIVE = 4)
    sc = catalog.emit("identity")
    sc["amplitude"] = {"expr": "exp(-k1^2/30)", "order": 0.0}
    rep = run_scenario(sc, {"phase", "opsymb"})
    order_fit = next(o for o in rep.outcomes
                     if o.check == "opsymb.order_fit")
    assert order_fit.status == "pass"
    assert order_fit.metrics["window"] == "full ladder"
    assert order_fit.metrics["n_failing"] == 0
    slopes = {(f["alpha"], f["beta"], f["l"], f["s"], f["u"]): f["slope"]
              for f in order_fit.metrics["fits"]}
    assert slopes[(0, 0, 0, 0, "h0")] == pytest.approx(-2.74112057768903,
                                                       rel=1e-9)
    assert slopes[(1, 0, 1, 0, "h2")] == pytest.approx(-9.91874637579119,
                                                       rel=1e-9)
    assert slopes[(0, 1, 0, 0, "h0")] is None     # x-derivatives vanish


def test_estimate_symbol_order_matches_the_sweep(monkeypatch):
    ladders = recorded_ladders(monkeypatch)
    fits = sweep_symbol_orders(MIX_SPEC, [HS[0]], 1, 1, 2, 1)
    sweep = ladders[:]
    for f, ladder in list(zip(fits, sweep))[::5]:
        del ladders[:]
        one = estimate_symbol_order(MIX_SPEC, f.alpha, f.beta, f.l, f.s,
                                    [HS[0]],
                                    family=ConjugatedFamily(MIX_SPEC, 1, 1, 1))
        assert one[0].slope == f.slope
        assert ladders == [ladder]


def test_fit_raises_on_too_few_live_rungs():
    from phasecert.exceptions import RegressionError
    with pytest.raises(RegressionError):
        fit_seminorm_ladder([1, 2, 4, 8], [1, 1, 1, 1], 0, 0, 0, 0, "u", 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_seminorms_fail_the_fit(bad):
    from phasecert.exceptions import RegressionError
    rungs = [2.0**j for j in range(9)]
    every = fit_seminorm_ladder(rungs, [bad] * 9, 0, 0, 0, 0, "u", 0.0)
    assert not every.identically_zero and not every.passed
    assert math.isnan(every.slope)
    one = fit_seminorm_ladder(rungs, [1.0] * 4 + [bad] + [1.0] * 4,
                              0, 0, 0, 0, "u", 0.0)
    assert math.isnan(one.slope) and not one.passed
    # a non-finite rung among zeros still counts towards min_live
    with pytest.raises(RegressionError):
        fit_seminorm_ladder(rungs, [0.0] * 8 + [bad], 0, 0, 0, 0, "u", 0.0)


def test_order_fit_fails_on_a_nonfinite_amplitude():
    # exp(xn*kn^2) overflows on the conjugated ladder: half the seminorm
    # ladders are NaN, and no fit may read them as identically zero
    amp = SymbolFn(parse_expr("exp(xn*kn*kn)"), order=0.0)
    spec = NormalOperatorSpec(phase_of("dilation"), amp, 0.3, 1.0)
    fits = sweep_symbol_orders(spec, [HS[0], HS[2]], 1, 1, 1, 1)
    assert any(not f.passed for f in fits)
    assert all(f.passed == (f.slope is None) for f in fits)


def test_seminorm_ladder_monotone_in_l_s_gridwise():
    fam = ConjugatedFamily(DILATION_SPEC)
    t = default_t_grid()
    outs = fam.outputs([HS[2]], rungs=(4.0,))[0]
    single = {}
    for s in range(3):
        o = np.abs(outs[(0, 0, s)][0])
        for l in range(3):
            single[(l, s)] = float(np.max(np.abs(t) ** l * o))
    nested = {(l, s): max(single[(lp, sp)] for lp in range(l + 1)
                          for sp in range(s + 1))
              for l in range(3) for s in range(3)}
    for l in range(3):
        for s in range(3):
            if l:
                assert nested[(l, s)] >= nested[(l - 1, s)] - 1e-12
            if s:
                assert nested[(l, s)] >= nested[(l, s - 1)] - 1e-12


# ---------------------------------------------------------- class link


def test_bs_membership_fails_on_a_nonfinite_symbol():
    # exp(xn*kn^2) overflows once rescaled: inf sups, NaN slopes
    rep = check_bs_membership(parse_expr("exp(xn*kn*kn)"), m=0.0, l=0.0)
    assert not rep.identically_zero
    assert math.isnan(rep.slopes[(0, 0)])
    assert not rep.passed


def test_derived_amplitude_x_branch_class_membership():
    fam = ConjugatedFamily(DILATION_SPEC)
    pair = fam.amp_pair(0, 1)
    rep = check_bs_membership(pair, m=0.0, l=1.0, tol=0.15)
    assert rep.passed
    assert abs(rep.slopes[(0, 0)]) <= 0.15
    assert rep.xin_orders[(0, 0)] <= 1.15


def test_derived_amplitude_xi_branch_class_membership():
    fam = ConjugatedFamily(MIX_SPEC)
    pair = fam.amp_pair(1, 0)
    rep = check_bs_membership(pair, m=-1.0, l=0.0, tol=0.15)
    assert rep.passed
    assert rep.slopes[(0, 0)] <= -1.0 + 0.15


# ------------------------------------------------------------- transpose

def test_transpose_identity_spec():
    passed, rep = transpose_check(IDENTITY_SPEC, HS[0], HS[1])
    assert passed and rep["residual"] <= 1e-9


def test_transpose_dilation_spec():
    passed, rep = transpose_check(DILATION_SPEC, HS[0], HS[2])
    assert passed and rep["residual"] <= 1e-6
    # closed-form adjoint oracle: <Au, v> with A u = u(c .), against the
    # forward pairing on the x panel grid of transpose_check
    c = math.exp(math.sin(0.3) / 2.0)
    want = trapezoid(lambda x: HS[0](c * x) * HS[2](x), -30, 30)
    xn, xw = panel_nodes(-14.0, 14.0, 200, 10)
    au, _ = apply_normal_op(DILATION_SPEC, HS[0], xn)
    assert abs((au * HS[2](xn)) @ xw - want) <= 1e-8


def test_transpose_smoothing_spec():
    amp = SymbolFn(parse_expr("bracket(kn)^(-2)"), order=-2.0)
    spec = NormalOperatorSpec(phase_of("identity"), amp, 0.3, 1.0)
    passed, rep = transpose_check(spec, HS[1], HS[2])
    assert passed and rep["residual"] <= 1e-6


@pytest.mark.parametrize("spec,v", [(IDENTITY_SPEC, HS[1]),
                                    (DILATION_SPEC, HS[2])],
                         ids=["identity", "dilation"])
def test_factored_transpose_matches_dense_sum(monkeypatch, spec, v):
    """A^t v from the factored kernel against the dense
    sum_q c_q exp(-1j y xi_q), on the arguments transpose_check passes."""
    gaps = []

    def spy(c, xi, mid, half, g):
        got = panel_fourier_sum(c, xi, mid, half, g)
        y = (mid[:, None] + half * g[None, :]).ravel()
        dense = np.exp(-1j * y[:, None] * xi[None, :]) @ c
        gaps.append(np.max(np.abs(got - dense)) / np.max(np.abs(dense)))
        return got

    monkeypatch.setattr(opsymb, "panel_fourier_sum", spy)
    _, rep = transpose_check(spec, HS[0], v)
    assert len(gaps) == 1 and gaps[0] <= 1e-12, gaps
    assert rep["residual"] <= 1e-9
