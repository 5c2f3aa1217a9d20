import dataclasses
import math
import types

import numpy as np
import pytest

from phasecert import catalog
from phasecert import expr as ex
from phasecert.grammar import parse_expr
from phasecert.grids import bracket_ladder
from phasecert.normalop import NormalOperatorSpec
from phasecert.opsymb import ConjugatedFamily
from phasecert.phase import GeneratingPhase
from phasecert.symplectic import COLLAR_VARS
from phasecert.symbols import (SymbolFn, check_bs_membership,
                               check_transmission, collar_sups, loglog_fit)

from oracles import (derivative_multi, looped_bs_report, looped_bs_sups,
                     looped_transmission)
from test_cli import AMPLITUDE_EDITS, PHASE_EDITS


def test_transmission_xi_n_passes():
    a = SymbolFn(parse_expr("kn"), order=1.0, homogeneous_degree=1.0)
    passed, metrics = check_transmission(a, max_orders=0)
    assert passed and metrics["max_residual"] == 0.0


def test_transmission_norm_fails_with_residual_two():
    a = SymbolFn(parse_expr("norm(k1, kn)"), order=1.0,
                 homogeneous_degree=1.0)
    # at max_orders 0 the (0, 0, 0) derivative is the only one
    passed, metrics = check_transmission(a, max_orders=0)
    assert not passed
    assert metrics["max_residual"] == pytest.approx(2.0, abs=1e-12)


def test_transmission_dilation_factor_passes_to_order_two():
    a = SymbolFn(parse_expr("kn*exp(sin(x1)/2)"), order=1.0,
                 homogeneous_degree=1.0)
    passed, metrics = check_transmission(a, max_orders=2)
    assert passed
    assert metrics["max_residual"] <= 1e-12


def test_transmission_singular_at_axis_is_failure_mode():
    # |xi'| alone is not smooth at xi' = 0
    a = SymbolFn(parse_expr("norm(k1)"), order=1.0, homogeneous_degree=1.0)
    passed, metrics = check_transmission(a, max_orders=0)
    assert metrics["max_residual"] == np.inf and not passed


def _gradient_cases(label: str, psi: ex.Expr, symbol=SymbolFn):
    for v in COLLAR_VARS:
        m = 1.0 if v in ("x1", "xn") else 0.0
        yield (f"{label}/d{v}", symbol(expr=ex.differentiate(psi, v),
                                       order=m, homogeneous_degree=m), 2)


def _transmission_cases():
    for name, sc in catalog.SCENARIOS.items():
        if "phase" in sc:
            yield from _gradient_cases(name, parse_expr(sc["phase"]))
        amp = sc.get("amplitude") or {}
        if amp.get("homogeneous_degree") is not None:
            m = amp["homogeneous_degree"]
            yield (f"{name}/amplitude",
                   SymbolFn(parse_expr(amp["expr"]), order=amp["order"],
                            homogeneous_degree=m), 1)
    # check_transmission reads only expr and homogeneous_degree, and its
    # table equals the oracle's whether or not the degree holds: the
    # edited phases that are not homogeneous, which SymbolFn would
    # reject, still give rows
    for psi, _ in PHASE_EDITS:
        yield from _gradient_cases(psi, parse_expr(psi),
                                   symbol=types.SimpleNamespace)
    # the edited amplitudes with an integer degree; a fractional one has
    # no parity to test
    for text, order, degree, _ in AMPLITUDE_EDITS:
        if degree is not None and degree == int(degree):
            yield (text, SymbolFn(parse_expr(text), order=order,
                                  homogeneous_degree=degree), 2)
    yield ("norm(k1)", SymbolFn(parse_expr("norm(k1)"), order=1.0,
                                homogeneous_degree=1.0), 0)
    yield ("kn*norm(k1)", SymbolFn(parse_expr("kn*norm(k1)"), order=2.0,
                                   homogeneous_degree=2.0), 2)


def test_one_program_transmission_equals_looped_oracle():
    seen_inf = seen_fail = 0
    for label, a, orders in _transmission_cases():
        passed, metrics = check_transmission(a, orders)
        want = looped_transmission(a, orders)
        assert metrics["max_residual"] == want, label
        assert passed == (want <= 1e-10), label
        seen_inf += want == np.inf
        seen_fail += not passed
    assert seen_inf == 2 and seen_fail >= 3


def test_transmission_differentiates_each_entry_once(monkeypatch):
    # one differentiate per table entry past the symbol itself, 26 at
    # max_orders 2 (derivative_multi per entry takes 81), and one
    # program whose outputs are exactly the entries that are not
    # constants
    differentiate, program = ex.differentiate, ex.Program
    cases = [(label, a) for label, a, orders in _transmission_cases()
             if orders == 2]
    assert len(cases) > 20
    for label, a in cases:
        live = [d for d in (derivative_multi(
                    a.expr, {"xn": k, "k1": al, "x1": be})
                    for k in range(3) for al in range(3) for be in range(3))
                if d.op != ex.CONST]
        diffs, programs = [], []

        def spy_diff(e, v):
            diffs.append(v)
            return differentiate(e, v)

        def spy_program(exprs):
            programs.append(list(exprs))
            return program(exprs)

        monkeypatch.setattr(ex, "differentiate", spy_diff)
        monkeypatch.setattr(ex, "Program", spy_program)
        check_transmission(a, 2)
        monkeypatch.undo()
        assert len(diffs) <= 26, label
        assert len(programs) <= 1, label
        outputs = programs[0] if programs else []
        assert sorted(map(id, outputs)) == sorted(map(id, live)), label


def test_transmission_polynomial_parity_exact():
    # xi_n-polynomials with matching parity coefficients: residual exactly 0
    cases = [
        ("kn^3", 3), ("kn", 1), ("k1*kn^2", 3),
        ("x1*kn^2*k1", 3), ("kn^2", 2),
    ]
    for text, m in cases:
        a = SymbolFn(parse_expr(text), order=float(m),
                     homogeneous_degree=float(m))
        _, metrics = check_transmission(a, max_orders=2)
        assert metrics["max_residual"] == 0.0, text


def test_transmission_stable_under_xi_prime_derivative():
    for text, m in [("kn*exp(sin(x1)/2)", 1), ("k1*kn^2", 3),
                    ("norm(k1, kn)", 1)]:
        a = SymbolFn(parse_expr(text), order=float(m),
                     homogeneous_degree=float(m))
        da = SymbolFn(ex.differentiate(a.expr, "k1"), order=float(m - 1),
                      homogeneous_degree=float(m - 1))
        ra, _ = check_transmission(a, max_orders=1)
        rda, _ = check_transmission(da, max_orders=1)
        assert ra == rda, text


def test_bs_constant_symbol():
    rep = check_bs_membership(parse_expr("1"), m=0.0, l=0.0)
    assert rep.slopes[(0, 0)] == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_bs_xn_is_order_minus_one():
    rep = check_bs_membership(parse_expr("xn"), m=-1.0, l=0.0)
    assert rep.slopes[(0, 0)] == pytest.approx(-1.0, abs=0.01)
    assert rep.passed


def _ladder_sups(a, l: float, xn_count: int) -> np.ndarray:
    """The <xi'> ladder that check_bs_membership fits at (alpha, beta) =
    (0, 0): per rung, the largest sup over gamma and delta of the rescaled
    derivative times <xi_n>^(gamma - l), over the <xi_n> shells."""
    xin_rungs = bracket_ladder(64.0)
    sups = collar_sups([a], bracket_ladder(256.0), xin_rungs, xn_count)
    return np.max([(sups[(0, 0, g, dlt)] * xin_rungs ** (g - l)).max(axis=1)
                   for g in range(3) for dlt in range(3)], axis=0)


def test_bs_collar_symbol_slope_and_refinement():
    cut = ("bump(1 - xn^2) / (bump(1 - xn^2) + bump(xn^2 - 0.25))")
    a = parse_expr(f"kn*exp(sin(x1)/2) * ({cut})")
    rep = check_bs_membership(a, m=1.0, l=1.0)
    assert rep.slopes[(0, 0)] <= 1.05
    assert rep.passed
    fine = check_bs_membership(a, m=1.0, l=1.0, xn_count=65)
    v0, v1 = (_ladder_sups(a, 1.0, n) for n in (33, 65))
    live = v0 > 1e-14
    v0, v1 = v0[live], v1[live]
    assert np.all(np.abs(v1 - v0) <= 0.02 * np.maximum(v0, v1))
    assert abs(fine.slopes[(0, 0)] - rep.slopes[(0, 0)]) <= 0.02


def test_bs_product_law():
    pairs = [
        ("xn", -1.0, 0.0, "kn", 1.0, 1.0),
        ("exp(sin(x1)/2)", 0.0, 0.0, "xn", -1.0, 0.0),
        ("bracket(kn)", 0.0, 1.0, "xn", -1.0, 0.0),
    ]
    for ta, ma, la, tb, mb, lb in pairs:
        a, b = parse_expr(ta), parse_expr(tb)
        ra = check_bs_membership(a, m=ma, l=la)
        rb = check_bs_membership(b, m=mb, l=lb)
        rab = check_bs_membership(ex.mul(a, b), m=ma + mb, l=la + lb)
        assert rab.slopes[(0, 0)] <= ra.slopes[(0, 0)] \
            + rb.slopes[(0, 0)] + 0.05


def _amp_pair(psi: str, n_xi: int, n_x: int):
    spec = NormalOperatorSpec(GeneratingPhase(parse_expr(psi)),
                              SymbolFn(parse_expr("1"), order=0.0), 0.3, 1.0)
    return ConjugatedFamily(spec).amp_pair(n_xi, n_x)


DILATION = catalog.SCENARIOS["dilation"]["phase"]
MIX = "x1*k1 + xn*kn*exp(sin(x1)/2) + 0.1*xn^2*k1"   # criterion 7's phase
COLLAR = ("kn*exp(sin(x1)/2) * (bump(1 - xn^2) / (bump(1 - xn^2)"
          " + bump(xn^2 - 0.25)))")

# (label, symbol: text or (phase, n_xi, n_x) of an amp_pair, m, l, kwargs)
BS_TABLE = [
    ("1", "1", 0.0, 0.0, {}),
    ("xn", "xn", -1.0, 0.0, {}),
    ("kn", "kn", 1.0, 1.0, {}),
    ("bracket(kn)", "bracket(kn)", 1.0, 1.0, {}),
    ("bracket(kn)*xn", "bracket(kn)*xn", 0.0, 1.0, {}),
    # larger at xi_n < 0, so a sweep of one xi_n sign misses its sups
    ("bracket(kn)-kn", "bracket(kn) - kn", 1.0, 1.0, {}),
    ("exp(sin(x1)/2)*xn", "exp(sin(x1)/2)*xn", -1.0, 0.0, {}),
    ("collar-33", COLLAR, 1.0, 1.0, {}),
    ("collar-65", COLLAR, 1.0, 1.0, {"xn_count": 65}),
    ("exp(xn*kn*kn)", "exp(xn*kn*kn)", 0.0, 0.0, {}),
    ("dilation-01", (DILATION, 0, 1), 0.0, 1.0, {"tol": 0.15}),
    ("dilation-10", (DILATION, 1, 0), -1.0, 0.0, {"tol": 0.15}),
    ("mix-01", (MIX, 0, 1), 0.0, 1.0, {"tol": 0.15}),
    ("mix-10", (MIX, 1, 0), -1.0, 0.0, {"tol": 0.15}),
]


def _bs_symbol(sym):
    return parse_expr(sym) if isinstance(sym, str) else _amp_pair(*sym)


def _same(x, y) -> bool:
    """x == y, recursively through dicts and lists, with NaN equal to NaN."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, float) and math.isnan(x):
        return isinstance(y, float) and math.isnan(y)
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("label,sym,m,l,kw", BS_TABLE,
                         ids=[row[0] for row in BS_TABLE])
def test_batched_bs_sweep_equals_looped_oracle(label, sym, m, l, kw):
    a = _bs_symbol(sym)
    parts = [a] if isinstance(a, ex.Expr) else list(a)
    xn_count = kw.get("xn_count", 33)
    got = collar_sups(parts, bracket_ladder(256.0), bracket_ladder(64.0),
                      xn_count)
    want = looped_bs_sups(parts, xn_count=xn_count)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=str(key))
    rep, ref = check_bs_membership(a, m, l, **kw), looped_bs_report(
        a, m, l, **kw)
    for f in dataclasses.fields(rep):
        assert _same(getattr(rep, f.name), getattr(ref, f.name)), f.name
    assert rep.passed == ref.passed


def test_bs_sweep_runs_one_program_and_no_eval_array(monkeypatch):
    runs, evals = [], []
    real_exec, real_eval = ex._exec, ex.eval_array
    monkeypatch.setattr(ex, "_exec", lambda prog, env: runs.append(1)
                        or real_exec(prog, env))
    monkeypatch.setattr(ex, "eval_array", lambda e, env: evals.append(1)
                        or real_eval(e, env))
    for sym in (COLLAR, (DILATION, 0, 1)):
        a = _bs_symbol(sym)
        del runs[:], evals[:]
        check_bs_membership(a, m=1.0, l=1.0)
        assert (len(runs), len(evals)) == (1, 0), sym


def test_transmission_fails_on_nan_residual():
    # exp(1000 x1^2) overflows at |x1| = 1, so 3 of the 27 derivatives have
    # residual inf - inf = NaN; the check must not pass on them
    a = SymbolFn(parse_expr("exp(1000*x1^2)*kn"), order=1.0,
                 homogeneous_degree=1.0)
    with np.errstate(all="ignore"):
        passed, metrics = check_transmission(a)
    assert np.isnan(metrics["max_residual"])
    assert not passed


def test_loglog_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    for k in (-1.0, 0.0, 1.5, 3.0):
        slope, rms = loglog_fit(x, 0.7 * x**k)
        assert slope == pytest.approx(k, abs=1e-13)
        assert rms == pytest.approx(0.0, abs=1e-13)


def test_loglog_fit_rms_of_a_kinked_ladder():
    # log y = 0, 0, 1, 2 against log x = 0, 1, 2, 3: slope 0.7, intercept
    # -0.3, residuals 0.3, -0.4, -0.1, 0.2, RMS sqrt(0.3 / 4)
    x = np.exp([0.0, 1.0, 2.0, 3.0])
    slope, rms = loglog_fit(x, np.exp([0.0, 0.0, 1.0, 2.0]))
    assert slope == pytest.approx(0.7, abs=1e-12)
    assert rms == pytest.approx(np.sqrt(0.075), abs=1e-12)
