"""Smooth expression trees with exact symbolic differentiation.

Every analytic object in the toolkit (phases, symbols, map components,
cutoffs) is a :class:`Expr`: an immutable DAG of smooth primitives closed
under differentiation.  Derivatives are built symbolically, so sup-norm
estimates downstream carry no finite-difference noise; evaluation is a
pure function of (expression, point) and is deterministic bit for bit.

Node kinds: constants, named variables, n-ary sums and products, negation,
quotients, integer powers, exp/log/sin/cos/sqrt, the japanese bracket
``<u> = sqrt(1 + sum u_i^2)``, the euclidean norm of a variable tuple, the
smooth bump transition ``F(s) = exp(-1/s) for s > 0 else 0`` (including its
derivative tower), and a guarded product used to extend cutoff-localized
terms by zero outside the cutoff's support.

Expressions containing the euclidean norm, quotients, logs or square roots
declare a singular locus; evaluation requests inside it raise
:class:`~phasecert.exceptions.SingularLocusError` instead of silently
computing a garbage value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NodeBudgetError, SingularLocusError

NODE_BUDGET = 10**6
HOMOGENEITY_LAMBDAS = (2.0, 10.0, 100.0)  # fiber scalings of the oracle

# Opcodes for the compiled evaluator.
_CONST, _VAR, _SUM, _NEG, _PROD, _QUOT, _POW, _EXP, _LOG, _SIN, _COS, \
    _SQRT, _BRACKET, _NORM, _BUMPD, _GUARD = range(16)


class Expr:
    """Immutable smooth expression node.

    Instances are shared freely; derivative and compilation caches live on
    the node, so repeated differentiation and evaluation reuse work across
    the whole DAG.  Evaluation never mutates anything except those caches,
    which are fill-once, so concurrent evaluation is safe.
    """

    __slots__ = ("_vars", "_dcache", "_prog", "_size")

    def __init__(self):
        self._vars = None
        self._dcache = None
        self._prog = None
        self._size = None

    def children(self) -> tuple["Expr", ...]:
        return ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        super().__init__()
        self.value = float(value)

    def __repr__(self):
        return f"Const({self.value!r})"


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __repr__(self):
        return f"Var({self.name})"


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple(terms)

    def children(self):
        return self.terms


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child):
        super().__init__()
        self.child = child

    def children(self):
        return (self.child,)


class Prod(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        super().__init__()
        self.factors = tuple(factors)

    def children(self):
        return self.factors


class Quot(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        super().__init__()
        self.num = num
        self.den = den

    def children(self):
        return (self.num, self.den)


class Pow(Expr):
    """Integer power.  Fractional powers are spelled sqrt/bracket/norm."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        super().__init__()
        self.base = base
        self.exponent = int(exponent)

    def children(self):
        return (self.base,)


class _Unary(Expr):
    __slots__ = ("child",)

    def __init__(self, child):
        super().__init__()
        self.child = child

    def children(self):
        return (self.child,)


class Exp(_Unary):
    __slots__ = ()


class Log(_Unary):
    __slots__ = ()


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class Sqrt(_Unary):
    __slots__ = ()


class Bracket(Expr):
    """Japanese bracket <u_1, ..., u_m> = sqrt(1 + u_1^2 + ... + u_m^2)."""

    __slots__ = ("args",)

    def __init__(self, args):
        super().__init__()
        self.args = tuple(args)

    def children(self):
        return self.args


class NormVars(Expr):
    """Euclidean norm of a variable tuple; singular where all vanish."""

    __slots__ = ("names",)

    def __init__(self, names):
        super().__init__()
        self.names = tuple(names)


class BumpD(Expr):
    """order-th derivative of F(s) = exp(-1/s) (s > 0), 0 (s <= 0), at s = child.

    The derivative tower is closed: F^(n)(s) = q_n(1/s) * exp(-1/s) with
    integer-coefficient polynomials q_n obeying
    q_{n+1}(y) = y^2 * (q_n(y) - q_n'(y)), q_0 = 1.
    """

    __slots__ = ("child", "order")

    def __init__(self, child, order: int = 0):
        super().__init__()
        self.child = child
        self.order = int(order)

    def children(self):
        return (self.child,)


class Guard(Expr):
    """gate * payload with the payload extended by zero where gate == 0.

    Used for cutoff-localized phase terms: wherever the cutoff vanishes the
    payload is never evaluated, so it may be undefined there.
    """

    __slots__ = ("gate", "payload")

    def __init__(self, gate, payload):
        super().__init__()
        self.gate = gate
        self.payload = payload

    def children(self):
        return (self.gate, self.payload)


# ---------------------------------------------------------------------------
# smart constructors (constant folding only; no algebraic rewriting)
# ---------------------------------------------------------------------------

def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


def const(v: float) -> Expr:
    return Const(v)


def var(name: str) -> Expr:
    return Var(name)


def add(*terms) -> Expr:
    flat = []
    acc = 0.0
    has_const = False
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Sum):
            items = t.terms
        else:
            items = (t,)
        for it in items:
            if isinstance(it, Const):
                acc += it.value
                has_const = True
            else:
                flat.append(it)
    # structural cancellation of X + Neg(X) pairs (same node object):
    # differences of expressions sharing subtrees then fold to exact zeros
    # instead of round-off residue
    if any(isinstance(t, Neg) for t in flat):
        pos_ids = {}
        for i, t in enumerate(flat):
            if not isinstance(t, Neg):
                pos_ids.setdefault(id(t), []).append(i)
        drop: set[int] = set()
        for i, t in enumerate(flat):
            if isinstance(t, Neg):
                stack = pos_ids.get(id(t.child))
                while stack:
                    j = stack.pop()
                    if j not in drop:
                        drop.add(i)
                        drop.add(j)
                        break
        if drop:
            flat = [t for i, t in enumerate(flat) if i not in drop]
    if has_const and acc != 0.0:
        flat.append(Const(acc))
    if not flat:
        return Const(0.0)
    if len(flat) == 1:
        return flat[0]
    return Sum(flat)


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(_coerce(b)))


def neg(a) -> Expr:
    a = _coerce(a)
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def mul(*factors) -> Expr:
    flat = []
    acc = 1.0
    has_const = False
    for f in factors:
        f = _coerce(f)
        if isinstance(f, Prod):
            items = f.factors
        else:
            items = (f,)
        for it in items:
            if isinstance(it, Const):
                if it.value == 0.0:
                    return Const(0.0)
                acc *= it.value
                has_const = True
            else:
                flat.append(it)
    if has_const and acc != 1.0:
        flat.insert(0, Const(acc))
    if not flat:
        return Const(acc if has_const else 1.0)
    if len(flat) == 1:
        return flat[0]
    return Prod(flat)


def quot(num, den) -> Expr:
    num = _coerce(num)
    den = _coerce(den)
    if isinstance(den, Const) and den.value != 0.0:
        # a zero constant denominator is NOT folded: the node stays so
        # evaluation rejects it as a singular-locus point
        if isinstance(num, Const):
            return Const(num.value / den.value)
        if den.value == 1.0:
            return num
    if isinstance(num, Const) and num.value == 0.0 \
            and not (isinstance(den, Const) and den.value == 0.0):
        return Const(0.0)
    return Quot(num, den)


def powi(base, exponent: int) -> Expr:
    base = _coerce(base)
    exponent = int(exponent)
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const) and (exponent > 0 or base.value != 0.0):
        return Const(base.value**exponent)
    return Pow(base, exponent)


def _fold_unary(cls, fn, child, domain=None) -> Expr:
    # folding only happens strictly inside the smooth domain, so singular
    # points keep their node and are rejected at evaluation time
    child = _coerce(child)
    if isinstance(child, Const) and (domain is None or domain(child.value)):
        return Const(fn(child.value))
    return cls(child)


def exp_(c) -> Expr:
    return _fold_unary(Exp, math.exp, c)


def log_(c) -> Expr:
    return _fold_unary(Log, math.log, c, domain=lambda v: v > 0.0)


def sin_(c) -> Expr:
    return _fold_unary(Sin, math.sin, c)


def cos_(c) -> Expr:
    return _fold_unary(Cos, math.cos, c)


def sqrt_(c) -> Expr:
    return _fold_unary(Sqrt, math.sqrt, c, domain=lambda v: v > 0.0)


def bracket(*args) -> Expr:
    args = tuple(_coerce(a) for a in args)
    if all(isinstance(a, Const) for a in args):
        return Const(math.sqrt(1.0 + sum(a.value**2 for a in args)))
    return Bracket(args)


def norm_vars(*names: str) -> Expr:
    return NormVars(names)


def bump(c, order: int = 0) -> Expr:
    c = _coerce(c)
    if isinstance(c, Const):
        return Const(_bump_scalar(c.value, order))
    return BumpD(c, order)


def cutoff_expr(u) -> Expr:
    """Even smooth cutoff w(u): 1 on |u| <= 1/2, 0 on |u| >= 1.

    w(u) = A/(A+B) with A = F(1 - u^2), B = F(u^2 - 1/4) and F the bump
    transition.  Parametrizing by u^2 keeps the expression smooth through
    u = 0 (no |u| kink) while keeping the plateau on [-1/2, 1/2] and
    support in [-1, 1].
    """
    p = mul(u, u)
    a = bump(sub(const(1.0), p))
    b = bump(sub(p, const(0.25)))
    return quot(a, add(a, b))


def guard(gate, payload) -> Expr:
    gate = _coerce(gate)
    payload = _coerce(payload)
    if isinstance(gate, Const):
        if gate.value == 0.0:
            return Const(0.0)
        return mul(gate, payload)
    return Guard(gate, payload)


# ---------------------------------------------------------------------------
# bump derivative polynomials
# ---------------------------------------------------------------------------

_BUMP_COEFFS: list[list[int]] = [[1]]  # q_0(y) = 1, ascending powers of y


def _bump_poly(order: int) -> list[int]:
    while len(_BUMP_COEFFS) <= order:
        q = _BUMP_COEFFS[-1]
        dq = [k * q[k] for k in range(1, len(q))]
        diff = [a - b for a, b in itertools.zip_longest(q, dq, fillvalue=0)]
        _BUMP_COEFFS.append([0, 0] + diff)  # multiply by y^2
    return _BUMP_COEFFS[order]


def _bump_scalar(s: float, order: int) -> float:
    if s <= 1e-3:
        # exp(-1/s) underflows double precision well before this point
        return 0.0
    y = 1.0 / s
    acc = 0.0
    for c in reversed(_bump_poly(order)):
        acc = acc * y + c
    return acc * math.exp(-y)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def free_vars(e: Expr) -> frozenset[str]:
    if e._vars is not None:
        return e._vars
    out: dict[int, frozenset] = {}
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if node._vars is not None:
            continue
        if done:
            if isinstance(node, Var):
                v = frozenset((node.name,))
            elif isinstance(node, NormVars):
                v = frozenset(node.names)
            else:
                v = frozenset().union(*(c._vars for c in node.children())) \
                    if node.children() else frozenset()
            node._vars = v
        else:
            stack.append((node, True))
            for c in node.children():
                if c._vars is None:
                    stack.append((c, False))
    return e._vars


def dag_size(e: Expr) -> int:
    """Number of unique nodes reachable from e (counted once per node)."""
    if e._size is None:
        seen = set()
        stack = [e]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.children())
        e._size = len(seen)
    return e._size


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _diff_node(e: Expr, v: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == v else Const(0.0)
    if isinstance(e, Sum):
        return add(*(_diff(t, v) for t in e.terms))
    if isinstance(e, Neg):
        return neg(_diff(e.child, v))
    if isinstance(e, Prod):
        terms = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = _diff(f, v)
            if isinstance(df, Const) and df.value == 0.0:
                continue
            terms.append(mul(*fs[:i], df, *fs[i + 1:]))
        return add(*terms)
    if isinstance(e, Quot):
        du = _diff(e.num, v)
        dv = _diff(e.den, v)
        return quot(sub(mul(du, e.den), mul(e.num, dv)), mul(e.den, e.den))
    if isinstance(e, Pow):
        return mul(Const(e.exponent), powi(e.base, e.exponent - 1),
                   _diff(e.base, v))
    if isinstance(e, Exp):
        return mul(e, _diff(e.child, v))
    if isinstance(e, Log):
        return quot(_diff(e.child, v), e.child)
    if isinstance(e, Sin):
        return mul(cos_(e.child), _diff(e.child, v))
    if isinstance(e, Cos):
        return neg(mul(sin_(e.child), _diff(e.child, v)))
    if isinstance(e, Sqrt):
        return quot(_diff(e.child, v), mul(Const(2.0), e))
    if isinstance(e, Bracket):
        num = add(*(mul(a, _diff(a, v)) for a in e.args))
        return quot(num, e)
    if isinstance(e, NormVars):
        if v in e.names:
            return quot(Var(v), e)
        return Const(0.0)
    if isinstance(e, BumpD):
        return mul(BumpD(e.child, e.order + 1), _diff(e.child, v))
    if isinstance(e, Guard):
        return add(guard(_diff(e.gate, v), e.payload),
                   guard(e.gate, _diff(e.payload, v)))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def _diff(e: Expr, v: str) -> Expr:
    if v not in free_vars(e):
        return Const(0.0)
    if e._dcache is None:
        e._dcache = {}
    hit = e._dcache.get(v)
    if hit is None:
        hit = _diff_node(e, v)
        e._dcache[v] = hit
    return hit


def differentiate(e: Expr, v: str) -> Expr:
    """Exact symbolic derivative of e with respect to variable v.

    Closed under repeated application.  Raises NodeBudgetError if the
    derivative DAG grows past the hard cap.
    """
    d = _diff(e, v)
    if dag_size(d) > NODE_BUDGET:
        raise NodeBudgetError(
            f"derivative DAG exceeds {NODE_BUDGET} nodes")
    return d


def derivative_multi(e: Expr, orders: dict[str, int]) -> Expr:
    """Mixed partial with per-variable orders, applied in sorted-name order.

    The fixed application order makes permuted requests hit the same cached
    tree, so mixed partials are symmetric by construction.
    """
    out = e
    for name in sorted(orders):
        for _ in range(orders[name]):
            out = differentiate(out, name)
    return out


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute(e: Expr, mapping: dict[str, Expr | float]) -> Expr:
    """Replace variables by expressions (or numbers), rebuilding with folding.

    Subtrees that touch none of the substituted variables are reused as-is.
    NormVars arguments may only be replaced by other variables.
    """
    subs = {k: _coerce(v) for k, v in mapping.items()}
    touched = set(subs)
    memo: dict[int, Expr] = {}

    def rebuild(node: Expr) -> Expr:
        if not (free_vars(node) & touched):
            return node
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Var):
            out = subs.get(node.name, node)
        elif isinstance(node, NormVars):
            reps = [subs.get(n, Var(n)) for n in node.names]
            if all(isinstance(r, Var) for r in reps):
                out = NormVars([r.name for r in reps])
            else:
                # lower to sqrt of squares; the sqrt singular point at 0
                # coincides with the norm's singular locus
                out = sqrt_(add(*(powi(r, 2) for r in reps)))
        elif isinstance(node, Sum):
            out = add(*(rebuild(t) for t in node.terms))
        elif isinstance(node, Neg):
            out = neg(rebuild(node.child))
        elif isinstance(node, Prod):
            out = mul(*(rebuild(f) for f in node.factors))
        elif isinstance(node, Quot):
            out = quot(rebuild(node.num), rebuild(node.den))
        elif isinstance(node, Pow):
            out = powi(rebuild(node.base), node.exponent)
        elif isinstance(node, Exp):
            out = exp_(rebuild(node.child))
        elif isinstance(node, Log):
            out = log_(rebuild(node.child))
        elif isinstance(node, Sin):
            out = sin_(rebuild(node.child))
        elif isinstance(node, Cos):
            out = cos_(rebuild(node.child))
        elif isinstance(node, Sqrt):
            out = sqrt_(rebuild(node.child))
        elif isinstance(node, Bracket):
            out = bracket(*(rebuild(a) for a in node.args))
        elif isinstance(node, BumpD):
            out = bump(rebuild(node.child), node.order)
        elif isinstance(node, Guard):
            out = guard(rebuild(node.gate), rebuild(node.payload))
        else:
            raise TypeError(f"cannot substitute into {type(node).__name__}")
        memo[id(node)] = out
        return out

    # iterative guard against deep recursion: rebuild bottom-up
    order = _topo(e)
    for node in order:
        rebuild(node)
    return rebuild(e)


def _topo(e: Expr, children=lambda node: node.children()) -> list[Expr]:
    """Children-before-parents ordering of the DAG under e, whose edges
    are children(node)."""
    out = []
    seen = set()
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for c in children(node):
            if id(c) not in seen:
                stack.append((c, False))
    return out


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

@dataclass
class _Program:
    instrs: list = field(default_factory=list)
    n_regs: int = 0
    out_regs: tuple[int, ...] = ()
    consumers: list = field(default_factory=list)


def _compile_children(node: Expr) -> tuple[Expr, ...]:
    # Guard payloads run in their own subprogram, only when the gate is live
    if isinstance(node, Guard):
        return (node.gate,)
    return node.children()


def _compile_many(exprs: list[Expr]) -> _Program:
    prog = _Program()
    reg_of: dict[int, int] = {}

    def alloc() -> int:
        r = prog.n_regs
        prog.n_regs += 1
        prog.consumers.append(0)
        return r

    nodes: list[Expr] = []
    seen: set[int] = set()
    for e in exprs:
        for node in _topo(e, _compile_children):
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)

    for node in nodes:
        dst = alloc()
        reg_of[id(node)] = dst
        if isinstance(node, Const):
            prog.instrs.append((_CONST, dst, (), node.value))
        elif isinstance(node, Var):
            prog.instrs.append((_VAR, dst, (), node.name))
        elif isinstance(node, Sum):
            srcs = tuple(reg_of[id(c)] for c in node.terms)
            prog.instrs.append((_SUM, dst, srcs, None))
        elif isinstance(node, Neg):
            prog.instrs.append((_NEG, dst, (reg_of[id(node.child)],), None))
        elif isinstance(node, Prod):
            srcs = tuple(reg_of[id(c)] for c in node.factors)
            prog.instrs.append((_PROD, dst, srcs, None))
        elif isinstance(node, Quot):
            prog.instrs.append((_QUOT, dst,
                                (reg_of[id(node.num)], reg_of[id(node.den)]),
                                None))
        elif isinstance(node, Pow):
            prog.instrs.append((_POW, dst, (reg_of[id(node.base)],),
                                node.exponent))
        elif isinstance(node, Exp):
            prog.instrs.append((_EXP, dst, (reg_of[id(node.child)],), None))
        elif isinstance(node, Log):
            prog.instrs.append((_LOG, dst, (reg_of[id(node.child)],), None))
        elif isinstance(node, Sin):
            prog.instrs.append((_SIN, dst, (reg_of[id(node.child)],), None))
        elif isinstance(node, Cos):
            prog.instrs.append((_COS, dst, (reg_of[id(node.child)],), None))
        elif isinstance(node, Sqrt):
            prog.instrs.append((_SQRT, dst, (reg_of[id(node.child)],), None))
        elif isinstance(node, Bracket):
            srcs = tuple(reg_of[id(a)] for a in node.args)
            prog.instrs.append((_BRACKET, dst, srcs, None))
        elif isinstance(node, NormVars):
            prog.instrs.append((_NORM, dst, (), node.names))
        elif isinstance(node, BumpD):
            prog.instrs.append((_BUMPD, dst, (reg_of[id(node.child)],),
                                node.order))
        elif isinstance(node, Guard):
            sub_prog = _compiled(node.payload)
            prog.instrs.append((_GUARD, dst, (reg_of[id(node.gate)],),
                                sub_prog))
        else:
            raise TypeError(f"cannot compile {type(node).__name__}")

    for _, _, srcs, _ in prog.instrs:
        for s in srcs:
            prog.consumers[s] += 1
    prog.out_regs = tuple(reg_of[id(e)] for e in exprs)
    for r in prog.out_regs:
        prog.consumers[r] += 1
    return prog


def _compiled(e: Expr) -> _Program:
    if e._prog is None:
        e._prog = _compile_many([e])
    return e._prog


def _bump_eval(s, order: int):
    coeffs = _bump_poly(order)
    s = np.asarray(s, dtype=np.float64)
    mask = s > 1e-3
    safe = np.where(mask, s, 1.0)
    y = 1.0 / safe
    acc = np.zeros_like(y)
    for c in reversed(coeffs):
        acc = acc * y + c
    with np.errstate(under="ignore"):
        val = acc * np.exp(-y)
    return np.where(mask, val, 0.0)


def _lookup(env, name: str):
    # a structured sample array reports a missing field as ValueError
    try:
        return env[name]
    except (KeyError, ValueError):
        raise KeyError(f"no value bound for variable {name!r}") from None


def _exec(prog: _Program, env: dict, relaxed: bool) -> list:
    regs: list = [None] * prog.n_regs
    remaining = prog.consumers[:]
    nan = np.float64("nan")

    def done_with(srcs):
        for s in srcs:
            remaining[s] -= 1
            if remaining[s] == 0:
                regs[s] = None

    with np.errstate(all="ignore"):
        for op, dst, srcs, aux in prog.instrs:
            if op == _CONST:
                val = np.float64(aux)
            elif op == _VAR:
                val = _lookup(env, aux)
            elif op == _SUM:
                val = regs[srcs[0]]
                for s in srcs[1:]:
                    val = val + regs[s]
            elif op == _NEG:
                val = -regs[srcs[0]]
            elif op == _PROD:
                val = regs[srcs[0]]
                for s in srcs[1:]:
                    val = val * regs[s]
            elif op == _QUOT:
                num, den = regs[srcs[0]], regs[srcs[1]]
                bad = den == 0.0
                if np.any(bad):
                    if not relaxed:
                        raise SingularLocusError("zero denominator")
                    val = np.where(bad, nan, num / np.where(bad, 1.0, den))
                else:
                    val = num / den
            elif op == _POW:
                base = regs[srcs[0]]
                if aux < 0 and np.any(base == 0.0):
                    if not relaxed:
                        raise SingularLocusError(
                            "zero base with negative exponent")
                    base = np.where(base == 0.0, nan, base)
                val = base**aux
            elif op == _EXP:
                val = np.exp(regs[srcs[0]])
            elif op == _LOG:
                arg = regs[srcs[0]]
                bad = arg <= 0.0
                if np.any(bad):
                    if not relaxed:
                        raise SingularLocusError("log of non-positive value")
                    val = np.where(bad, nan, np.log(np.where(bad, 1.0, arg)))
                else:
                    val = np.log(arg)
            elif op == _SIN:
                val = np.sin(regs[srcs[0]])
            elif op == _COS:
                val = np.cos(regs[srcs[0]])
            elif op == _SQRT:
                arg = regs[srcs[0]]
                bad = arg <= 0.0
                if np.any(bad):
                    if not relaxed:
                        raise SingularLocusError(
                            "sqrt at or below its singular point 0")
                    val = np.where(bad, nan, np.sqrt(np.where(bad, 1.0, arg)))
                else:
                    val = np.sqrt(arg)
            elif op == _BRACKET:
                acc = np.float64(1.0)
                for s in srcs:
                    acc = acc + regs[s] * regs[s]
                val = np.sqrt(acc)
            elif op == _NORM:
                acc = np.float64(0.0)
                for name in aux:
                    x = _lookup(env, name)
                    acc = acc + np.asarray(x, dtype=np.float64)**2
                bad = acc == 0.0
                if np.any(bad):
                    if not relaxed:
                        raise SingularLocusError(
                            "euclidean norm evaluated at the origin")
                    val = np.where(bad, nan, np.sqrt(acc))
                else:
                    val = np.sqrt(acc)
            elif op == _BUMPD:
                val = _bump_eval(regs[srcs[0]], aux)
            elif op == _GUARD:
                gate = regs[srcs[0]]
                garr = np.asarray(gate)
                if not np.any(garr != 0.0):
                    val = garr * 0.0
                else:
                    payload = _exec(aux, env, True)[0]
                    val = np.where(garr == 0.0, 0.0, garr * payload)
                    if not relaxed and not np.all(np.isfinite(val)):
                        raise SingularLocusError(
                            "guarded payload singular inside gate support")
            else:  # pragma: no cover
                raise AssertionError(op)
            regs[dst] = val
            done_with(srcs)
    return [regs[r] for r in prog.out_regs]


def eval_array(e: Expr, values: dict[str, float | np.ndarray]):
    """Evaluate e with numpy broadcasting over array-valued variables."""
    return _exec(_compiled(e), values, False)[0]


def eval_array_many(exprs: list[Expr], values: dict) -> list:
    """Evaluate several expressions sharing one DAG traversal."""
    return _exec(_compile_many(exprs), values, False)


def evaluate(e: Expr, point: dict[str, float]) -> float:
    """Deterministic scalar evaluation; rejects singular-locus points."""
    return float(eval_array(e, point))


def homogeneity_residual(e: Expr, fiber_vars: set[str], degree: float,
                         samples: np.ndarray) -> float:
    """Worst relative error of eval(lambda*xi) against lambda^d * eval(xi)
    over lambda in HOMOGENEITY_LAMBDAS, at the points of a structured
    sample array, each evaluated as a scalar point.

    A non-finite error anywhere makes the result NaN or inf.
    """
    names = samples.dtype.names
    errs = []
    for row in samples.tolist():
        p = dict(zip(names, row))
        base = evaluate(e, p)
        for lam in HOMOGENEITY_LAMBDAS:
            q = {k: (val * lam if k in fiber_vars else val)
                 for k, val in p.items()}
            target = lam**degree * base
            got = evaluate(e, q)
            errs.append(abs(got - target) / max(1.0, abs(target)))
    return float(np.max(errs, initial=0.0))
