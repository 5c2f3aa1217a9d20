import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasecert
from phasecert import expr as ex
from phasecert import sgphase
from phasecert.catalog import SCENARIOS
from phasecert.exceptions import CollarBoundsError, SingularLocusError
from phasecert.expr import cutoff_expr
from phasecert.grammar import parse_expr
from phasecert.grids import sg_ladder
from phasecert.phase import GeneratingPhase
from phasecert.sgphase import (LADDER, Margins, StarPhaseFamily, calibrate,
                               check_uniformity, within_margins)

from oracles import (broadcast_constants, central_diff, looped_uniformity,
                     unique_tgrid)


def build_phase(name):
    sc = SCENARIOS[name]
    return GeneratingPhase(parse_expr(sc["phase"]),
                           collar_halfwidth=sc["collar_halfwidth"], name=name)


IDENTITY = build_phase("identity")
DILATION = build_phase("dilation")
QUADRATIC = build_phase("quadratic-collar")
SHEAR = build_phase("boundary-shear")


def cutoff(k, s):
    """The scaled cutoff w_k(s) = w(s / k) at s."""
    e = cutoff_expr(ex.quot(ex.var("s"), ex.const(k)))
    return ex.eval_array(e, {"s": np.asarray(s, dtype=float)})


def frozen(phase, xprime, xi_prime, k, K):
    """The regularized phase family of phase, and the scalars that freeze
    (x', xi') in it, with r = <xi'>."""
    return StarPhaseFamily(phase, k, K), {
        "x1": xprime, "k1": xi_prime,
        "r": math.sqrt(1.0 + xi_prime * xi_prime)}


def at(e, env, t, tau):
    """A family expression at frozen (x', xi') and the points (t, tau)."""
    return ex.eval_array(e, dict(env, t=np.asarray(t, dtype=float),
                                 tau=np.asarray(tau, dtype=float)))


def wrap_table(monkeypatch, wrap):
    """Make every StarPhaseFamily built from now on return
    wrap(env, outputs) from its table program; the gate's and the K t tau
    table's programs are left as they are."""
    real_init = StarPhaseFamily.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        program = self.program
        self.program = lambda env: wrap(env, program(env))

    monkeypatch.setattr(StarPhaseFamily, "__init__", init)


# ----------------------------------------------------------------- cutoff

def test_cutoff_plateau_support_and_symmetry():
    s = np.linspace(-2, 2, 1601)
    v = cutoff(1.0, s)
    assert np.all(v[np.abs(s) <= 0.5] == 1.0)
    assert np.all(v[np.abs(s) >= 1.0] == 0.0)
    assert np.allclose(v, v[::-1], atol=0)          # even
    pos = v[s >= 0]
    assert np.all(np.diff(pos) <= 1e-12)            # non-increasing on R+


def test_cutoff_monotone_at_thousand_points():
    s = np.linspace(0.0, 1.0, 1000)
    v = cutoff(1.0, s)
    assert np.all(np.diff(v) <= 1e-12)


def test_cutoff_derivatives_vanish_at_transition_endpoints():
    e = cutoff_expr(ex.var("s"))
    for order in range(1, 7):
        d = ex.derivative_multi(e, {"s": order})
        for s0 in (0.5, 0.5 - 1e-6, 1.0, 1.0 - 1e-3):
            assert abs(ex.evaluate(d, {"s": s0})) <= 1e-8, (order, s0)


def test_cutoff_slope_sign_fact():
    # literal grid fact: omega'(s) * s <= 0 for s >= 0
    e = cutoff_expr(ex.var("s"))
    d = ex.differentiate(e, "s")
    s = np.linspace(0.0, 1.5, 400)
    assert np.all(ex.eval_array(d, {"s": s}) * s <= 1e-15)


def test_cutoff_scaled():
    assert cutoff(0.25, 0.1) == 1.0
    assert cutoff(0.25, 0.3) == 0.0
    assert 0.0 < cutoff(0.25, 0.18) < 1.0


# ------------------------------------------------------------ *Phi build

def test_star_phi_identity_is_t_tau_exactly():
    fam, env = frozen(IDENTITY, 0.3, 2.0, 0.5, 1.0)
    t = sg_ladder()
    tau = sg_ladder()
    V = at(fam.expr, env, t[:, None], tau[None, :])
    target = t[:, None] * tau[None, :]
    assert np.max(np.abs(V - target) / (1.0 + np.abs(target))) <= 1e-12


def test_star_phi_zero_dilation_factor_is_identity():
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn*exp(0*sin(x1))"))
    fam, env = frozen(ph, 0.1, 1.0, 0.5, 1.0)
    t = sg_ladder()
    tau = sg_ladder()
    V = at(fam.expr, env, t[:, None], tau[None, :])
    target = t[:, None] * tau[None, :]
    assert np.max(np.abs(V - target) / (1.0 + np.abs(target))) <= 1e-12


def test_star_phi_vanishes_at_t_zero():
    for ph in (IDENTITY, DILATION, QUADRATIC):
        k = ph.collar_halfwidth / 2
        fam, env = frozen(ph, 0.4, 1.5, k, 2.0)
        tau = np.linspace(-50, 50, 31)
        assert np.max(np.abs(at(fam.expr, env, 0.0, tau))) == 0.0


def test_star_phi_transition_value_dilation():
    # independent scalar evaluation of the two-term blend at one点 point
    x1, k = 0.3, 0.25
    K = 2.0
    xi = 4.0
    r = math.sqrt(1.0 + xi * xi)
    fam, env = frozen(DILATION, x1, xi, k, K)
    t0, tau0 = 1.7, 1.0
    s = t0 / (r * k)
    p = s * s
    F = lambda u: math.exp(-1.0 / u) if u > 0 else 0.0
    w = F(1 - p) / (F(1 - p) + F(p - 0.25))
    g = math.sin(x1) / 2.0
    phi_val = (t0 / r) * (tau0 * r) * math.exp(g)
    want = w * phi_val + (1 - w) * K * t0 * tau0
    got = float(at(fam.expr, env, t0, tau0))
    assert got == pytest.approx(want, rel=1e-13)


def test_star_phi_rejects_large_k():
    with pytest.raises(CollarBoundsError):
        StarPhaseFamily(QUADRATIC, 0.4, 1.0)


def test_star_phi_derivatives_match_fd():
    fam, env = frozen(DILATION, -0.4, 3.0, 0.5, 2.0)
    for (a, al) in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        d = at(fam.table[a, al], env, 0.9, 1.3)
        if a > 0:
            f = lambda t: float(at(fam.table[a - 1, al], env, t, 1.3))
            fd = central_diff(f, 0.9, 1e-5)
        else:
            f = lambda u: float(at(fam.table[0, al - 1], env, 0.9, u))
            fd = central_diff(f, 1.3, 1e-5)
        assert abs(float(d) - fd) <= 1e-6 * max(1.0, abs(fd))


# ------------------------------------------------------------- P1 P2 P3

def test_identity_constants():
    fam, env = frozen(IDENTITY, 0.0, 1.0, 0.5, 1.0)
    cs = fam.constants_at(0.0, env["r"])
    assert all(cs[f"C_{a}{al}"] <= 1.0 + 1e-12
               for a in range(4) for al in range(4))
    assert cs["C_11"] == pytest.approx(1.0, abs=1e-12)
    assert cs["c_t"] == pytest.approx(1.0, abs=1e-12)
    assert cs["C_t"] == pytest.approx(1.0, abs=1e-12)
    assert cs["c_tau"] == pytest.approx(1.0, abs=1e-12)
    assert cs["C_tau"] == pytest.approx(1.0, abs=1e-12)
    assert cs["eps"] == pytest.approx(1.0, abs=1e-12)


def test_dilation_constants_stable_under_grid_refinement(monkeypatch):
    fam = StarPhaseFamily(DILATION, 0.5, 2.0)
    cs = fam.constants_at(0.3, 4.0, 1)
    monkeypatch.setattr(sgphase, "LADDER", sg_ladder(n_half=40))
    cs2 = fam.constants_at(0.3, 4.0, 1)
    for key in (f"C_{a}{al}" for a in range(4) for al in range(4)):
        v, v2 = cs[key], cs2[key]
        if max(v, v2) > 1e-9:
            assert v2 <= 2.0 * v + 1e-9 and v <= 2.0 * v2 + 1e-9, key
    assert abs(cs2["eps"] - cs["eps"]) <= 0.1 * cs["eps"]


def test_dilation_p2_lower_bound_closed_form():
    # in the plateau the tau-coefficient is exp(g); with K >= sup exp(g)
    # the transition term is nonnegative, so c is exp(min g) up to bracket
    fam = StarPhaseFamily(DILATION, 0.5, 2.0)
    cs = fam.constants_at(-1.0, 4.0, 1)
    assert cs["c_t"] >= 0.5
    assert cs["eps"] >= math.exp(math.sin(-1.0) / 2.0) - 1e-9


def test_k_sensitivity_small_K_fails():
    # halving K below the dilation factor's sup makes the transition term
    # overpower the plateau: P3 loses its sign or its floor
    rep = check_uniformity(DILATION, 0.5, 0.5,
                           xprimes=np.linspace(-1, 1, 3),
                           rungs=[1.0, 4.0, 16.0])
    assert rep.failures


def test_tiny_K_with_large_variation_fails():
    steep = GeneratingPhase(parse_expr("x1*k1 + xn*kn*exp(sin(3*x1))"))
    rep = check_uniformity(steep, 0.5, 0.01,
                           xprimes=np.linspace(-1, 1, 3),
                           rungs=[1.0, 4.0])
    assert rep.failures


def test_p3_region_where_mixing_is_pure_K():
    # for |t|/r >= k the cutoff vanishes identically: d2*Phi = K exactly
    for K in (2.0, 4.0):
        fam, env = frozen(DILATION, 0.3, 1.0, 0.25, K)
        r = env["r"]
        t = np.array([v for v in sg_ladder() if abs(v) >= 0.25 * r + 0.01])
        tau = sg_ladder()
        d11 = at(fam.table[1, 1], env, t[:, None], tau[None, :])
        assert np.allclose(d11, K, atol=1e-12)


def test_monotone_robustness_increasing_K():
    fam2, env = frozen(DILATION, 0.3, 1.0, 0.25, 2.0)
    fam4, _ = frozen(DILATION, 0.3, 1.0, 0.25, 4.0)
    r = env["r"]
    t = np.array([v for v in sg_ladder() if abs(v) >= 0.25 * r])
    tau = sg_ladder()
    e2 = np.min(np.abs(at(fam2.table[1, 1], env, t[:, None], tau[None, :])))
    e4 = np.min(np.abs(at(fam4.table[1, 1], env, t[:, None], tau[None, :])))
    assert e4 >= e2 - 1e-12


# ------------------------------------------- phi on the cutoff's support

@pytest.mark.parametrize("psi", ["x1*k1 + xn*kn*exp(xn*xn)",
                                 "x1*k1 + xn*kn/(1 - xn*xn/4)"])
def test_phi_off_the_cutoff_support_is_never_read(psi):
    # at rung 1 phi overflows, or is singular at xn = 2, on ladder points
    # where the cutoff is 0: the constants stay finite
    fam = StarPhaseFamily(GeneratingPhase(parse_expr(psi)), 0.5, 1.0)
    cs = fam.constants_at(np.linspace(-1.0, 1.0, 3), 1.0)
    assert all(np.isfinite(v).all() for v in cs.values())


def test_phi_singular_on_the_cutoff_support_raises():
    # log(xn + 0.2) is singular at xn = -0.25, where the cutoff is 1
    psi = "x1*k1 + xn*kn*(1 + log(xn + 0.2))"
    fam = StarPhaseFamily(GeneratingPhase(parse_expr(psi)), 0.5, 1.0)
    with pytest.raises(SingularLocusError):
        fam.constants_at(np.linspace(-1.0, 1.0, 3), 1.0)


def test_table_program_gets_exactly_the_live_columns(monkeypatch):
    seen = []

    def spy(env, out):
        seen.append((env["r"], env["t"]))
        return out

    wrap_table(monkeypatch, spy)
    k, rungs = 0.25, [1.0, 4.0, 64.0]
    check_uniformity(DILATION, k, 2.0, xprimes=[-0.5, 0.5], rungs=rungs)
    fam = StarPhaseFamily(DILATION, k, 2.0)
    gate = cutoff_expr(ex.quot(ex.var("t"), ex.mul(ex.var("r"), k)))
    assert [r for r, _ in seen] == rungs
    for rung, t in seen:
        tgrid = fam.eval_tgrid(rung, LADDER)
        live = ex.eval_array(gate, {"t": tgrid, "r": rung}) != 0.0
        assert not live.all(), rung        # the ladder outruns the support
        assert np.array_equal(t, tgrid[live][None, :, None]), rung


# ---------------------------------------------------------- uniformity

def test_uniformity_identity_ratio_one():
    rep = check_uniformity(IDENTITY, 0.5, 1.0)
    assert rep.passed
    assert rep.spread == pytest.approx(1.0, abs=1e-9)


def test_uniformity_dilation_within_e():
    rep = check_uniformity(DILATION, 0.5, 2.0)
    assert rep.passed
    assert rep.spread <= 2.0 or rep.spread <= math.e
    assert all(v.shape == (9, 9) for v in rep.constants.values())   # 81


def test_uniformity_shear_within_bound():
    rep = check_uniformity(SHEAR, 0.5, 1.0)
    assert rep.passed
    assert rep.spread <= 3.0


# ----------------------------------------------------------- calibrate

def test_calibrate_identity_first_trial():
    cal = calibrate(IDENTITY)
    assert (cal.k, cal.K) == (0.5, 1.0)
    assert cal.trials == 1


def test_calibrate_dilation_small_K():
    cal = calibrate(DILATION)
    assert cal.K <= 8.0
    assert cal.k >= 1.0 / 32.0
    assert cal.report.passed


def test_calibrate_quadratic():
    cal = calibrate(QUADRATIC)
    assert cal.K <= 16.0
    assert cal.k <= 0.25 + 1e-12
    assert cal.k >= 0.5 / 32.0


def test_calibrate_exhaustion():
    from phasecert.exceptions import CalibrationError
    # an inadmissible phase whose mixed derivative changes sign inside any
    # collar cutoff: psi = x.k with the normal term reversed mid-collar
    bad = GeneratingPhase(parse_expr("x1*k1 + xn*kn*(1 - 40*xn^2)"),
                          collar_halfwidth=1.0)
    with pytest.raises(CalibrationError):
        calibrate(bad, max_steps=3)


def _constants(**over):
    base = dict(C_00=1.0, C_11=2.0, c_t=0.5, C_t=2.0, c_tau=0.5, C_tau=2.0,
                eps=0.3, eps_sign=1.0)
    base.update(over)
    return {key: np.array([v, 1.0 if key.startswith("C_") else 0.5])
            for key, v in base.items()}


@pytest.mark.parametrize("over", [
    dict(c_t=math.nan), dict(c_tau=math.nan), dict(eps=math.nan),
    dict(C_t=math.nan), dict(C_tau=math.nan), dict(C_11=math.nan),
    dict(C_00=math.nan)])
def test_margins_fail_on_nan_constant(over):
    # a NaN in the first sample fails that sample, and only it
    assert within_margins(_constants(), Margins()).tolist() == [True, True]
    assert within_margins(_constants(**over), Margins()).tolist() \
        == [False, True]


def test_runner_sg_table_keeps_nan(monkeypatch):
    from phasecert import catalog, sgphase
    from phasecert import runner as rn

    real = sgphase.check_uniformity

    def poisoned(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.constants["C_00"][0, 1] = math.nan      # x' -1, rung 2
        rep.constants["c_t"][0, 1] = math.nan
        return rep

    monkeypatch.setattr(sgphase, "check_uniformity", poisoned)
    sc = catalog.emit("identity")
    sc["checks"] = ["phase", "sg"]
    out = next(o for o in rn.run_scenario(sc).outcomes
               if o.check == "sg.conditions")
    assert math.isnan(out.metrics["constants_max"]["C_00"])
    assert math.isnan(out.metrics["constants_min"]["c_t"])


@pytest.mark.parametrize("key", ["c_t", "eps", "C_t", "C_11"])
def test_uniformity_ratio_is_nan_for_nan_constant(monkeypatch, key):
    real = StarPhaseFamily.constants_at
    calls = []

    def poisoned(self, *args, **kwargs):
        batch = real(self, *args, **kwargs)
        calls.append(key)
        if len(calls) == 2:           # rung 4: its first x' is combo 1 of 6
            batch[key][0] = math.nan
        return batch

    monkeypatch.setattr(StarPhaseFamily, "constants_at", poisoned)
    rep = check_uniformity(IDENTITY, 0.5, 1.0, xprimes=[-0.5, 0.5],
                           rungs=[1.0, 4.0, 16.0])
    assert len(calls) == 3              # one call per rung
    assert all(v.shape == (2, 3) for v in rep.constants.values())
    assert math.isnan(rep.ratios[key])
    assert np.isnan(rep.constants[key]).tolist() == [[False, True, False],
                                                     [False, False, False]]
    if key in ("c_t", "eps"):
        assert math.isnan(rep.spread)
    assert not rep.passed


def test_nan_in_one_xprime_slab_stays_in_its_combo(monkeypatch):
    # NaN in the x' = 0 slab of the rung-4 derivative table must reach
    # that combo's constants, and only them
    def poisoned(env, out):
        if env.get("r") != 4.0:
            return out
        shape = np.broadcast_shapes(*(np.shape(env[v])
                                      for v in ("x1", "t", "tau")))
        table = []
        for v in out:
            v = np.array(np.broadcast_to(v, shape))
            v[1] = math.nan
            table.append(v)
        return table

    wrap_table(monkeypatch, poisoned)
    rep = check_uniformity(IDENTITY, 0.5, 1.0, xprimes=[-0.5, 0.0, 0.5],
                           rungs=[1.0, 4.0])
    # combo 3 of 6 is x' = 0 at rung 4
    combo3 = np.array([[False, False], [False, True], [False, False]])
    for key, vals in rep.constants.items():
        assert np.isnan(vals[combo3]).all(), key
        assert np.isfinite(vals[~combo3]).all(), key
    assert rep.failures == ["sign change at x'=0.000, rung=4"]
    assert math.isnan(rep.spread)
    assert not rep.passed


@pytest.mark.parametrize("name", ["identity", "dilation", "quadratic-collar",
                                  "boundary-shear"])
def test_batched_constants_equal_scalar_calls(name):
    phase = build_phase(name)
    fam = StarPhaseFamily(phase, phase.collar_halfwidth / 2.0, 1.0)
    xprimes = np.linspace(-1, 1, 9)
    for j, rung in enumerate([2.0**j for j in range(9)]):
        sign = 1 if j % 2 == 0 else -1
        batch = fam.constants_at(xprimes, rung, sign)
        assert list(batch) == KEYS
        assert all(v.shape == xprimes.shape for v in batch.values())
        for i, xp in enumerate(xprimes):
            one = fam.constants_at(float(xp), rung, sign)
            assert list(one) == KEYS
            # exact equality, key for key: the batch is no approximation
            for key, v in one.items():
                assert v.shape == () and v == batch[key][i], (xp, rung, key)


KEYS = [f"C_{a}{al}" for a in range(4) for al in range(4)] + [
    "c_t", "C_t", "c_tau", "C_tau", "eps", "eps_sign"]


@pytest.mark.parametrize("name", ["identity", "dilation", "quadratic-collar",
                                  "boundary-shear"])
@pytest.mark.parametrize("sign", [1, -1])
def test_constants_equal_broadcast_reduction(name, sign):
    # each derivative reduced at its own shape equals the reduction of its
    # (m, T, U) broadcast, field for field and bit for bit
    phase = build_phase(name)
    fam = StarPhaseFamily(phase, phase.collar_halfwidth / 2.0, 1.0)
    xprimes = np.linspace(-1, 1, 9)
    for rung in [2.0**j for j in range(9)]:
        got = fam.constants_at(xprimes, rung, sign)
        want = broadcast_constants(fam, xprimes, rung, sign, LADDER)
        assert len(want) == len(xprimes)
        for i, ref in enumerate(want):
            assert list(ref) == KEYS
            for key, v in ref.items():
                assert got[key][i] == v, (rung, i, key)


def assert_equals_looped(rep, want):
    # np.testing.assert_equal is == with NaN equal to NaN (and -0.0 not
    # equal to 0.0); the combos of want run x' outer, rung inner
    shape = rep.constants["eps"].shape
    assert list(rep.ratios) == list(want["ratios"])
    np.testing.assert_equal(rep.ratios, want["ratios"])
    np.testing.assert_equal(rep.spread, want["spread"])
    assert rep.failures == want["failures"]
    assert rep.passed == want["passed"]
    assert list(rep.constants) == list(want["per_combo"][0])
    for key, v in rep.constants.items():
        looped = np.array([pc[key] for pc in want["per_combo"]])
        np.testing.assert_equal(v, looped.reshape(shape), err_msg=key)


@pytest.mark.parametrize("name", ["identity", "dilation", "quadratic-collar",
                                  "boundary-shear"])
@pytest.mark.parametrize("margin", ["default", "strict"])
def test_uniformity_equals_looped_oracle(name, margin):
    from phasecert.runner import MARGIN_PRESETS
    phase = build_phase(name)
    half = phase.collar_halfwidth / 2.0
    # a passing pair where the phase allows one, a sign change and a
    # P1/P2 margin miss
    for k, K in [(half, 1.0), (half / 2.0, 0.5), (half / 2.0, 4.0)]:
        kwargs = dict(margins=MARGIN_PRESETS[margin])
        assert_equals_looped(check_uniformity(phase, k, K, **kwargs),
                             looped_uniformity(phase, k, K, **kwargs))


def test_uniformity_equals_looped_oracle_on_a_nan_rung(monkeypatch):
    # rung 4 of the dilation table: NaN in d_t *Phi at one (t, tau) point
    # for every x', and in every derivative of the x' = 0 slab
    def poisoned(env, out):
        if env.get("r") != 4.0:
            return out
        shape = np.broadcast_shapes(*(np.shape(env[v])
                                      for v in ("x1", "t", "tau")))
        table = [np.array(np.broadcast_to(v, shape)) for v in out]
        table[4][:, 3, 5] = math.nan        # key (1, 0) of the 4 x 4 table
        for v in table:
            v[1] = math.nan
        return table

    wrap_table(monkeypatch, poisoned)
    xprimes, rungs = [-0.5, 0.0, 0.5], [1.0, 4.0, 16.0]
    rep = check_uniformity(DILATION, 0.5, 2.0, xprimes, rungs)
    assert_equals_looped(rep, looped_uniformity(DILATION, 0.5, 2.0, xprimes,
                                                rungs))
    assert math.isnan(rep.ratios["C_t"]) and not rep.passed


def test_nan_in_xprime_free_derivative_reaches_every_combo(monkeypatch):
    # every derivative of the identity phase is free of x': a NaN in one
    # (t, tau) point of d_t *Phi must reach the constants of every x'
    shapes = []

    def poisoned(env, out):
        if env.get("r") != 4.0:
            return out
        d10 = np.array(out[4])              # key (1, 0) of the 4 x 4 table
        shapes.append(d10.shape)
        d10[0, 3, 5] = math.nan
        return out[:4] + [d10] + out[5:]

    wrap_table(monkeypatch, poisoned)
    fam = StarPhaseFamily(IDENTITY, 0.5, 1.0)
    batch = fam.constants_at(np.linspace(-1, 1, 5), 4.0)
    assert shapes and shapes[0][0] == 1
    for key in ("C_10", "c_t", "C_t"):
        assert np.isnan(batch[key]).all(), key
    for key in ("C_01", "eps"):
        assert np.isfinite(batch[key]).all(), key
    assert not within_margins(batch, Margins()).any()


@pytest.mark.parametrize("k", [0.5, 0.25, 0.125])
def test_eval_tgrid_equals_np_unique(k):
    fam = StarPhaseFamily(IDENTITY, k, 1.0)
    ladder = sg_ladder()
    for rung in [2.0**j for j in range(9)]:
        assert np.array_equal(fam.eval_tgrid(rung, ladder),
                              unique_tgrid(fam, rung, ladder)), rung


def test_sg_leaves_numpy_ma_unimported():
    src = str(Path(phasecert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from phasecert import catalog\n"
            "from phasecert.runner import run_scenario\n"
            "sc = catalog.emit('identity')\n"
            "sc['checks'] = ['phase', 'sg']\n"
            "rep = run_scenario(sc)\n"
            "print(rep.passed, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
