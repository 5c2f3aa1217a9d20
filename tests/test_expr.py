import ast
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecert import catalog, runner
from phasecert import expr as ex
from phasecert.catalog import SCENARIOS
from phasecert.exceptions import SingularLocusError
from phasecert.grammar import parse_expr
from phasecert.grids import sg_ladder
from phasecert.phase import GeneratingPhase
from phasecert.sgphase import StarPhaseFamily

from oracles import (MultiIndex, central_diff, derivative_multi,
                     fd_crosscheck, jet, richardson_diff, sample_array)
from test_acceptance import CATALOG_EXPR_STRINGS

xn = ex.var("xn")
kn = ex.var("kn")
x1 = ex.var("x1")
k1 = ex.var("k1")


def test_bracket_derivative_vanishes_at_zero():
    # d/dkn <kn> at kn=0 is 0: even function, critical point
    d = ex.differentiate(ex.bracket(kn), "kn")
    assert ex.evaluate(d, {"kn": 0.0}) == 0.0


def test_product_rule_linear_in_xn():
    g = ex.exp_(ex.sin_(x1))
    e = ex.mul(xn, kn, g)
    d = ex.differentiate(e, "xn")
    for p in [{"x1": 0.3, "xn": 1.2, "kn": -0.7},
              {"x1": -1.1, "xn": 0.0, "kn": 2.0}]:
        want = p["kn"] * math.exp(math.sin(p["x1"]))
        assert ex.evaluate(d, p) == pytest.approx(want, rel=1e-14)


def test_bump_derivative_matches_central_difference():
    e = ex.bump(ex.var("t"))
    d = ex.differentiate(e, "t")
    sym = ex.evaluate(d, {"t": 0.75})
    fd = central_diff(lambda s: ex.evaluate(e, {"t": s}), 0.75, 1e-4)
    assert abs(sym - fd) / max(1.0, abs(sym)) <= 1e-6
    # closed form F'(s) = s^-2 exp(-1/s)
    assert sym == pytest.approx(0.75**-2 * math.exp(-1 / 0.75), rel=1e-13)


def test_bump_vanishes_left_of_zero_with_all_derivatives():
    e = ex.bump(ex.var("t"))
    d2 = derivative_multi(e, {"t": 4})
    for t in [-1.0, -1e-9, 0.0]:
        assert ex.evaluate(e, {"t": t}) == 0.0
        assert ex.evaluate(d2, {"t": t}) == 0.0


def test_eval_bracket_at_zero_is_one():
    assert ex.evaluate(ex.bracket(kn), {"kn": 0.0}) == 1.0


def test_norm_rejects_origin():
    e = ex.norm_vars("k1", "kn")
    with pytest.raises(SingularLocusError):
        ex.evaluate(e, {"k1": 0.0, "kn": 0.0})
    assert ex.evaluate(e, {"k1": 3.0, "kn": 4.0}) == 5.0


def test_high_precision_point_value():
    # exp(sin(1)/2): the dilation factor at x1 = 1, checked against a
    # 50-digit mpmath evaluation
    e = ex.exp_(ex.quot(ex.sin_(x1), ex.const(2.0)))
    got = ex.evaluate(e, {"x1": 1.0})
    mpmath.mp.dps = 50
    want = float(mpmath.exp(mpmath.sin(1) / 2))
    assert abs(got - want) <= 1e-12
    assert abs(got - 1.52309) < 1e-5


def test_jet_mixed_partial_of_xnkn():
    j = jet(ex.mul(xn, kn), {"xn": 0.4, "kn": -2.0},
            MultiIndex.of(xn=1, kn=1))
    assert j.value(xn=1, kn=1) == 1.0
    assert j.value(xn=1) == -2.0
    assert j.value(kn=1) == 0.4


def test_jet_of_constant():
    j = jet(ex.const(5.0), {"xn": 1.0}, MultiIndex.of(xn=2))
    assert j.value() == 5.0
    assert j.value(xn=1) == 0.0
    assert j.value(xn=2) == 0.0


def test_jet_of_bump_matches_richardson_fd():
    e = ex.bump(ex.var("s"))
    j = jet(e, {"s": 0.6}, MultiIndex.of(s=3))
    f = lambda s: ex.evaluate(e, {"s": s})
    for order in (1, 2, 3):
        want = richardson_diff(f, 0.6, order=order, h=2e-3)
        got = j.value(s=order)
        assert abs(got - want) / max(1.0, abs(got)) <= 1e-6


def test_jet_is_deterministic():
    e = ex.exp_(ex.mul(xn, kn))
    p = {"xn": 0.7, "kn": -0.3}
    j1 = jet(e, p, MultiIndex.of(xn=2, kn=2))
    j2 = jet(e, p, MultiIndex.of(xn=2, kn=2))
    assert j1.table == j2.table


def test_fd_crosscheck_cubic():
    e = ex.powi(xn, 3)
    for p in (-1.3, 0.2, 2.0):
        assert fd_crosscheck(e, {"xn": p}, "xn", 1e-4) <= 1e-8


def test_fd_crosscheck_exp_product():
    e = ex.exp_(ex.mul(xn, kn))
    assert fd_crosscheck(e, {"xn": 1.0, "kn": 1.0}, "xn", 1e-4) <= 1e-6


def test_fd_crosscheck_bracket():
    e = ex.bracket(kn)
    assert fd_crosscheck(e, {"kn": 2.0}, "kn", 1e-4) <= 1e-6


CATALOG_EXPRS = [
    parse_expr("x1*k1 + xn*kn"),
    parse_expr("x1*k1 + xn*kn*exp(sin(x1)/2)"),
    parse_expr("x1*k1 + xn*kn*(1 + xn*0.2*cos(x1))"),
    parse_expr("x1*k1 + xn*kn + 0.1*xn*norm(k1, kn)"),
    parse_expr("bracket(k1, kn)"),
    parse_expr("kn^2 / norm(k1, kn)"),
]


def test_fd_crosscheck_catalog_first_and_second_derivatives():
    rng = np.random.default_rng(20240811)
    for e in CATALOG_EXPRS:
        names = sorted(ex.free_vars(e))
        for _ in range(100):
            p = {n: float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1, 1]))
                 for n in names}
            for v in names:
                assert fd_crosscheck(e, p, v, 1e-4) <= 1e-6
                d = ex.differentiate(e, v)
                assert fd_crosscheck(d, p, v, 1e-4) <= 1e-6


@given(k1v=st.floats(-3, 3), knv=st.floats(0.5, 3))
@settings(max_examples=60, deadline=None)
def test_homogeneity_detector(k1v, knv):
    # kn^2/|k| is positively homogeneous of degree 1 in (k1, kn)
    e = parse_expr("kn^2 / norm(k1, kn)")
    res = ex.homogeneity_residual(e, {"k1", "kn"}, 1.0,
                                  sample_array([{"k1": k1v, "kn": knv}]))
    assert res <= 1e-10


def test_eval_array_matches_scalar_eval():
    e = parse_expr("exp(sin(x1)/2) * xn * kn + bracket(kn)")
    xs = np.linspace(-1, 1, 7)
    arr = ex.eval_array(e, {"x1": 0.3, "xn": xs, "kn": 2.0})
    for i, x in enumerate(xs):
        s = ex.evaluate(e, {"x1": 0.3, "xn": float(x), "kn": 2.0})
        assert arr[i] == s


def test_substitute_reuses_untouched_subtrees():
    g = ex.exp_(ex.sin_(x1))
    e = ex.mul(xn, g)
    out = ex.substitute(e, {"xn": ex.quot(ex.var("t"), ex.var("r"))})
    assert ex.evaluate(out, {"t": 2.0, "r": 4.0, "x1": 0.0}) == 0.5
    # the x1-subtree must be shared, not copied
    assert any(c is g for c in out.args)


def test_parser_roundtrip_evaluation():
    e = parse_expr("(x1 + 0.3*(exp(2*x1)-1)/(exp(2*x1)+1))*k1 + xn*kn")
    p = {"x1": 0.5, "xn": -0.25, "k1": 2.0, "kn": 3.0}
    want = (0.5 + 0.3 * math.tanh(0.5)) * 2.0 + (-0.25) * 3.0
    assert ex.evaluate(e, p) == pytest.approx(want, rel=1e-15)


def test_parser_rejects_garbage():
    from phasecert.exceptions import ScenarioParseError
    for bad in ["x1 +", "foo(x1)", "x1 ^ 1.5", "norm(x1+1)", "(x1"]:
        with pytest.raises(ScenarioParseError):
            parse_expr(bad)


def test_dag_size_and_budget():
    e = xn
    for _ in range(6):
        e = ex.mul(e, e)
    assert ex.dag_size(e) <= 8  # shared, not exponential
    assert ex.evaluate(e, {"xn": 1.1}) == pytest.approx(1.1 ** 64, rel=1e-12)


# One expression per node kind, each over non-constant children, at the
# point P in variables x and y.
X, Y = ex.var("x"), ex.var("y")
P = {"x": 0.7, "y": 1.3}
KINDS = {
    ex.CONST: ex.const(2.5),
    ex.VAR: X,
    ex.SUM: ex.add(X, ex.mul(X, Y)),
    ex.NEG: ex.neg(ex.mul(X, Y)),
    ex.PROD: ex.mul(X, Y, ex.sin_(X)),
    ex.QUOT: ex.quot(X, ex.add(Y, 2.0)),
    ex.POW: ex.powi(ex.add(X, Y), 3),
    ex.EXP: ex.exp_(ex.mul(X, Y)),
    ex.LOG: ex.log_(ex.add(X, Y)),
    ex.SIN: ex.sin_(ex.mul(X, Y)),
    ex.COS: ex.cos_(ex.mul(X, Y)),
    ex.SQRT: ex.sqrt_(ex.add(X, Y)),
    ex.BRACKET: ex.bracket(X, ex.mul(X, Y)),
    ex.NORM: ex.norm_vars("x", "y"),
    ex.BUMPD: ex.bump(ex.sub(X, 0.2), 2),
}


def test_every_node_kind_has_a_row():
    assert sorted(KINDS) == list(range(15))
    assert all(e.op == kind for kind, e in KINDS.items())


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_node_kind_derivative_matches_central_difference(kind):
    for v in ("x", "y"):
        assert fd_crosscheck(KINDS[kind], P, v, 1e-4) <= 1e-6, v


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_node_kind_substitution_evaluates_at_the_shifted_point(kind):
    e = KINDS[kind]
    shifted = ex.substitute(e, {"x": ex.add(X, 0.25)})
    assert ex.evaluate(shifted, P) == ex.evaluate(e, dict(P, x=0.7 + 0.25))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_node_kind_eval_array_equals_evaluate(kind):
    e = KINDS[kind]
    xs = np.array([0.7, 0.9, 1.1])
    arr = np.broadcast_to(ex.eval_array(e, {"x": xs, "y": 1.3}), xs.shape)
    for i, x in enumerate(xs):
        assert arr[i] == ex.evaluate(e, {"x": float(x), "y": 1.3})


def test_norm_variables_renamed_by_substitution_stay_a_norm():
    e = ex.substitute(KINDS[ex.NORM], {"x": ex.var("z")})
    assert (e.op, e.aux) == (ex.NORM, ("z", "y"))
    assert ex.evaluate(e, {"z": 3.0, "y": 4.0}) == 5.0


def test_log_rejects_its_singular_locus():
    e = KINDS[ex.LOG]
    for x in (-1.3, -2.0):
        with pytest.raises(SingularLocusError):
            ex.evaluate(e, {"x": x, "y": 1.3})
    with pytest.raises(SingularLocusError):
        ex.eval_array(e, {"x": np.array([0.5, -1.3]), "y": 1.3})
    # a non-positive constant stays a node and is rejected when evaluated
    assert ex.log_(0.0).op == ex.LOG
    with pytest.raises(SingularLocusError):
        ex.evaluate(ex.log_(0.0), {})


# ------------------------------------------------ the sg table as one program

def sg_table(name):
    """The order-3 derivative table of the catalog phase name's regularized
    phase, its compiled program, and the family."""
    sc = SCENARIOS[name]
    phase = GeneratingPhase(parse_expr(sc["phase"]),
                            collar_halfwidth=sc["collar_halfwidth"])
    fam = StarPhaseFamily(phase, phase.collar_halfwidth / 2.0, 1.0)
    return list(fam.table.values()), fam.program, fam


SG_PHASES = ["identity", "dilation", "quadratic-collar", "boundary-shear"]


@pytest.mark.parametrize("name", SG_PHASES)
def test_sg_table_is_one_instruction_per_dag_node(name):
    exprs, prog, _ = sg_table(name)
    # a bare SUM over the outputs counts their shared DAG once, plus itself
    assert len(prog.instrs) == ex.dag_size(ex.Expr(ex.SUM, exprs)) - 1
    if name == "quadratic-collar":
        # 199 when structurally equal subtrees were one node per copy
        assert len(prog.instrs) <= 156


@pytest.mark.parametrize("name", SG_PHASES)
def test_sg_table_off_the_cutoff_support_equals_ktt_table(name):
    # where the gate is 0 so is each of its derivatives: the whole table
    # equals the table of K t tau there, bit for bit
    _, prog, fam = sg_table(name)
    ladder = sg_ladder()
    xs = np.linspace(-1.0, 1.0, 9).reshape(9, 1, 1)
    for rung, sign in ((1.0, 1), (4.0, -1), (16.0, 1)):
        tgrid = fam.eval_tgrid(rung, ladder)
        off = tgrid[fam.gate_program({"t": tgrid, "r": rung})[0] == 0.0]
        assert len(off), rung
        env = fam.env_for(xs, rung, sign)
        env["t"] = off[None, :, None]
        env["tau"] = ladder[None, None, :]
        for got, want in zip(prog(env), fam.ktt_program(env), strict=True):
            assert np.all(got == want), rung


@pytest.mark.parametrize("name", SG_PHASES)
def test_registers_are_freed_after_their_last_read(name):
    exprs, prog, fam = sg_table(name)
    # an output that another output reads stays live to the end
    inner = exprs[0].args[0]
    prog2 = ex.Program([inner, exprs[0]])
    for p in (prog, prog2):
        last = {}
        for i, (_, dst, srcs, *_) in enumerate(p.instrs):
            assert dst == i
            for s in srcs:
                last[s] = i
        for i, (*_, free) in enumerate(p.instrs):
            want = {r for r, j in last.items()
                    if j == i and r not in p.out_regs}
            assert sorted(free) == sorted(want), i
        assert not {r for *_, free in p.instrs for r in free} \
            & set(p.out_regs)
    env = fam.env_for(np.linspace(-1.0, 1.0, 3).reshape(3, 1, 1), 4.0, 1)
    env["t"] = fam.eval_tgrid(4.0, sg_ladder())[None, :, None]
    env["tau"] = sg_ladder()[None, None, :]
    got_inner, got_outer = prog2(env)
    assert np.all(got_inner == ex.eval_array(inner, env))
    assert np.all(got_outer == prog(env)[0])


SINGULAR = [ex.quot(1.0, x1), ex.powi(x1, -2), ex.log_(x1), ex.sqrt_(x1),
            ex.norm_vars("x1")]


@pytest.mark.parametrize("zero", [0.0, np.float64(0.0),
                                  np.array([0.5, 0.0, 2.0])],
                         ids=["python-float", "numpy-scalar", "array"])
@pytest.mark.parametrize("e", SINGULAR, ids=["quot", "pow", "log", "sqrt",
                                             "norm"])
def test_singular_locus_raises_for_every_binding(e, zero):
    with pytest.raises(SingularLocusError):
        ex.eval_array(e, {"x1": zero})
    # the same binding away from the locus evaluates
    assert np.all(np.isfinite(ex.eval_array(e, {"x1": zero + 0.25})))


def test_pow_has_one_arithmetic_for_points_and_arrays():
    # x^n at a point of Python floats and on a sample array: the same
    # bits at every draw, and x^2 keeps numpy's own square
    x = np.random.default_rng(0).standard_normal(20_000)
    for n in range(-3, 6):
        e = ex.powi(x1, n)
        on_array = np.broadcast_to(ex.eval_array(e, {"x1": x}), x.shape)
        at_points = np.array([ex.evaluate(e, {"x1": v}) for v in x.tolist()])
        assert np.array_equal(on_array, at_points), n
    assert np.array_equal(ex.eval_array(ex.powi(x1, 2), {"x1": x}),
                          np.square(x))
    # constant folding is the same arithmetic
    for v in x[:200].tolist():
        assert ex.powi(ex.const(v), 3).aux == ex.evaluate(
            ex.powi(x1, 3), {"x1": v})


# ------------------------------------------------ the derivative table

def spied_table(monkeypatch, e, orders):
    """ex.derivative_table(e, orders) and the variable of each
    ex.differentiate call it made."""
    calls = []
    real = ex.differentiate

    def spy(d, v):
        calls.append(v)
        return real(d, v)

    monkeypatch.setattr(ex, "differentiate", spy)
    table = ex.derivative_table(e, orders)
    monkeypatch.undo()
    return table, calls


def chain(e, orders, key):
    """key's entry by one differentiate after another, v_1 first."""
    for (v, _), i in zip(orders, key):
        for _ in range(i):
            e = ex.differentiate(e, v)
    return e


def same_node(a, b):
    # a derivative that vanishes is a fresh CONST 0 node per call
    return a is b or (a.op == b.op == ex.CONST and a.aux == b.aux)


TABLE_CASES = [
    pytest.param(parse_expr(text), sorted(ex.free_vars(parse_expr(text))), 2,
                 id=text) for text in CATALOG_EXPR_STRINGS] + [
    pytest.param(sg_table(name)[2].expr, ["t", "tau"], 3, id=f"sg {name}")
    for name in SG_PHASES]


@pytest.mark.parametrize("e, names, n", TABLE_CASES)
def test_derivative_table_is_the_chain_in_application_order(monkeypatch, e,
                                                            names, n):
    # in sorted-name order the oracle's derivative_multi, in reversed
    # order an explicit chain
    for orders in ([(v, n) for v in names], [(v, n) for v in names[::-1]]):
        table, calls = spied_table(monkeypatch, e, orders)
        keys = list(table)
        assert keys == sorted(keys) == list(itertools.product(
            *(range(n + 1) for _ in orders)))
        # one step per entry past e itself
        assert len(calls) == len(table) - 1
        for key, d in table.items():
            want = (derivative_multi(e, dict(zip(names, key)))
                    if orders[0][0] == names[0] else chain(e, orders, key))
            assert same_node(d, want), (orders, key)


@pytest.mark.parametrize("name", SG_PHASES)
def test_sg_family_table_is_t_then_tau(name):
    _, _, fam = sg_table(name)
    assert list(fam.table) == list(itertools.product(range(4), range(4)))
    for (a, al), d in fam.table.items():
        assert same_node(d, derivative_multi(fam.expr, {"t": a, "tau": al}))


# ---------------------------------------------------- interned expression nodes

def test_equal_expressions_are_one_node():
    text = "x1*k1 + xn*kn*exp(sin(x1)/2) + 0.01*xn*xn*kn*kn/bracket(k1)"
    e = parse_expr(text)
    assert parse_expr(text) is e
    mapping = {"xn": ex.quot(ex.var("t"), ex.var("r")),
               "kn": ex.mul(ex.var("tau"), ex.var("r"))}
    assert ex.substitute(e, mapping) is ex.substitute(e, dict(mapping))
    # a subtree built on its own is the node inside the parsed expression
    assert ex.differentiate(e, "xn") is ex.differentiate(parse_expr(text),
                                                         "xn")
    assert any(c is ex.mul(x1, k1) for c in e.args)


def test_signed_zero_constants_are_two_nodes():
    neg_zero, zero = ex.const(-0.0), ex.const(0.0)
    assert neg_zero is not zero
    assert math.copysign(1.0, neg_zero.aux) == -1.0
    assert math.copysign(1.0, zero.aux) == 1.0
    assert ex.const(-0.0) is neg_zero and ex.const(0.0) is zero


def test_catalog_programs_have_one_instruction_per_distinct_node(
        monkeypatch):
    # every Program a catalog pass runs: no two instructions with the same
    # kind, sources and datum (repr keeps 0.0 and -0.0 apart)
    programs = {}
    real_exec = ex._exec

    def spy(prog, env):
        programs[id(prog)] = prog
        return real_exec(prog, env)

    monkeypatch.setattr(ex, "_exec", spy)
    for name in catalog.names():
        runner.run_scenario(catalog.emit(name))
    assert len(programs) > 100
    for prog in programs.values():
        keys = [(op, srcs, repr(aux)) for op, _, srcs, aux, _ in prog.instrs]
        assert len(set(keys)) == len(keys)


def test_only_the_interning_constructor_calls_expr():
    # (module, innermost enclosing function) of every Expr(...) call in
    # src/; ast.walk goes outer to inner, so an inner function's name wins
    callers = set()
    for path in Path(ex.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        callers |= {(path.name, owner.get(node)) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and "Expr" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))}
    assert callers == {("expr.py", "_node")}
