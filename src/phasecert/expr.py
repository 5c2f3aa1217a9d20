"""Smooth expression trees with exact symbolic differentiation.

Every analytic object in the toolkit (phases, symbols, map components,
cutoffs) is an :class:`Expr`: an immutable DAG of smooth primitives closed
under differentiation.  Derivatives are built symbolically, so sup-norm
estimates downstream carry no finite-difference noise; evaluation is a
pure function of (expression, point) and is deterministic bit for bit.

A node is ``Expr(op, args, aux)``: its kind ``op`` is also the opcode of
the compiled evaluator, ``args`` are its child nodes and ``aux`` is the
kind's datum (None where none is listed).

=========  ==========================  ===============================
kind       args                        aux
=========  ==========================  ===============================
CONST      ()                          the value (a float)
VAR        ()                          the variable name
SUM        the terms                   -
NEG        (child,)                    -
PROD       the factors                 -
QUOT       (numerator, denominator)    -
POW        (base,)                     the integer exponent
EXP, LOG,  (child,)                    -
SIN, COS,
SQRT
BRACKET    (u_1, ..., u_m)             -
NORM       ()                          the variable names
BUMPD      (s,)                        the derivative order
=========  ==========================  ===============================

BRACKET is the japanese bracket ``<u> = sqrt(1 + sum u_i^2)``, NORM the
euclidean norm of a variable tuple and BUMPD a derivative of the smooth
bump transition ``F(s) = exp(-1/s) for s > 0 else 0``.  Nodes are built
through the smart constructors below, which fold constants.

Expressions containing the euclidean norm, quotients, logs or square roots
declare a singular locus; evaluation requests inside it raise
:class:`~phasecert.exceptions.SingularLocusError` instead of silently
computing a garbage value.  A term that is only needed on a cutoff's
support is evaluated only there, by its caller (see :mod:`sgphase`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .exceptions import NodeBudgetError, SingularLocusError

NODE_BUDGET = 10**6
HOMOGENEITY_LAMBDAS = (2.0, 10.0, 100.0)  # fiber scalings of the oracle

# Node kinds, which are also the opcodes of the compiled evaluator.
CONST, VAR, SUM, NEG, PROD, QUOT, POW, EXP, LOG, SIN, COS, \
    SQRT, BRACKET, NORM, BUMPD = range(15)


class Expr:
    """Immutable smooth expression node: kind op, children args, datum aux.

    Instances are shared freely; derivative and compilation caches live on
    the node, so repeated differentiation and evaluation reuse work across
    the whole DAG.  Evaluation never mutates anything except those caches,
    which are fill-once, so concurrent evaluation is safe.
    """

    __slots__ = ("op", "args", "aux", "_vars", "_dcache", "_prog", "_size")

    def __init__(self, op: int, args=(), aux=None):
        self.op = op
        self.args = tuple(args)
        self.aux = aux
        self._vars = None
        self._dcache = None
        self._prog = None
        self._size = None

    def __repr__(self):
        return f"Expr({self.op}, {len(self.args)} args, {self.aux!r})"


# ---------------------------------------------------------------------------
# smart constructors (constant folding only; no algebraic rewriting)
# ---------------------------------------------------------------------------

def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return const(x)


def is_const(e: Expr, value: float) -> bool:
    """Whether e folded to exactly the constant value."""
    return e.op == CONST and e.aux == value


def const(v: float) -> Expr:
    return Expr(CONST, (), float(v))


def var(name: str) -> Expr:
    return Expr(VAR, (), name)


def add(*terms) -> Expr:
    flat = []
    acc = 0.0
    has_const = False
    for t in terms:
        t = _coerce(t)
        if t.op == SUM:
            items = t.args
        else:
            items = (t,)
        for it in items:
            if it.op == CONST:
                acc += it.aux
                has_const = True
            else:
                flat.append(it)
    # structural cancellation of X + NEG(X) pairs (same node object):
    # differences of expressions sharing subtrees then fold to exact zeros
    # instead of round-off residue
    if any(t.op == NEG for t in flat):
        pos_ids = {}
        for i, t in enumerate(flat):
            if t.op != NEG:
                pos_ids.setdefault(id(t), []).append(i)
        drop: set[int] = set()
        for i, t in enumerate(flat):
            if t.op == NEG:
                stack = pos_ids.get(id(t.args[0]))
                while stack:
                    j = stack.pop()
                    if j not in drop:
                        drop.add(i)
                        drop.add(j)
                        break
        if drop:
            flat = [t for i, t in enumerate(flat) if i not in drop]
    if has_const and acc != 0.0:
        flat.append(const(acc))
    if not flat:
        return const(0.0)
    if len(flat) == 1:
        return flat[0]
    return Expr(SUM, flat)


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(_coerce(b)))


def neg(a) -> Expr:
    a = _coerce(a)
    if a.op == CONST:
        return const(-a.aux)
    if a.op == NEG:
        return a.args[0]
    return Expr(NEG, (a,))


def mul(*factors) -> Expr:
    flat = []
    acc = 1.0
    has_const = False
    for f in factors:
        f = _coerce(f)
        if f.op == PROD:
            items = f.args
        else:
            items = (f,)
        for it in items:
            if it.op == CONST:
                if it.aux == 0.0:
                    return const(0.0)
                acc *= it.aux
                has_const = True
            else:
                flat.append(it)
    if has_const and acc != 1.0:
        flat.insert(0, const(acc))
    if not flat:
        return const(acc if has_const else 1.0)
    if len(flat) == 1:
        return flat[0]
    return Expr(PROD, flat)


def quot(num, den) -> Expr:
    num = _coerce(num)
    den = _coerce(den)
    if den.op == CONST and den.aux != 0.0:
        # a zero constant denominator is NOT folded: the node stays so
        # evaluation rejects it as a singular-locus point
        if num.op == CONST:
            return const(num.aux / den.aux)
        if den.aux == 1.0:
            return num
    if is_const(num, 0.0) and not is_const(den, 0.0):
        return const(0.0)
    return Expr(QUOT, (num, den))


def powi(base, exponent: int) -> Expr:
    """Integer power.  Fractional powers are spelled sqrt/bracket/norm."""
    base = _coerce(base)
    exponent = int(exponent)
    if exponent == 0:
        return const(1.0)
    if exponent == 1:
        return base
    if base.op == CONST and (exponent > 0 or base.aux != 0.0):
        return const(base.aux**exponent)
    return Expr(POW, (base,), exponent)


def _fold_unary(op, fn, child, domain=None) -> Expr:
    # folding only happens strictly inside the smooth domain, so singular
    # points keep their node and are rejected at evaluation time
    child = _coerce(child)
    if child.op == CONST and (domain is None or domain(child.aux)):
        return const(fn(child.aux))
    return Expr(op, (child,))


def exp_(c) -> Expr:
    return _fold_unary(EXP, math.exp, c)


def log_(c) -> Expr:
    return _fold_unary(LOG, math.log, c, domain=lambda v: v > 0.0)


def sin_(c) -> Expr:
    return _fold_unary(SIN, math.sin, c)


def cos_(c) -> Expr:
    return _fold_unary(COS, math.cos, c)


def sqrt_(c) -> Expr:
    return _fold_unary(SQRT, math.sqrt, c, domain=lambda v: v > 0.0)


def bracket(*args) -> Expr:
    """Japanese bracket <u_1, ..., u_m> = sqrt(1 + u_1^2 + ... + u_m^2)."""
    args = tuple(_coerce(a) for a in args)
    if all(a.op == CONST for a in args):
        return const(math.sqrt(1.0 + sum(a.aux**2 for a in args)))
    return Expr(BRACKET, args)


def norm_vars(*names: str) -> Expr:
    """Euclidean norm of a variable tuple; singular where all vanish."""
    return Expr(NORM, (), names)


def bump(c, order: int = 0) -> Expr:
    """order-th derivative of F(s) = exp(-1/s) (s > 0), 0 (s <= 0), at s = c.

    The derivative tower is closed: F^(n)(s) = q_n(1/s) * exp(-1/s) with
    integer-coefficient polynomials q_n obeying
    q_{n+1}(y) = y^2 * (q_n(y) - q_n'(y)), q_0 = 1.
    """
    c = _coerce(c)
    if c.op == CONST:
        return const(_bump_scalar(c.aux, order))
    return Expr(BUMPD, (c,), int(order))


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
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if node._vars is not None:
            continue
        if done:
            if node.op == VAR:
                v = frozenset((node.aux,))
            elif node.op == NORM:
                v = frozenset(node.aux)
            else:
                v = frozenset().union(*(c._vars for c in node.args))
            node._vars = v
        else:
            stack.append((node, True))
            for c in node.args:
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
            stack.extend(node.args)
        e._size = len(seen)
    return e._size


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _diff_node(e: Expr, v: str) -> Expr:
    op, args = e.op, e.args
    if op == CONST:
        return const(0.0)
    if op == VAR:
        return const(1.0) if e.aux == v else const(0.0)
    if op == SUM:
        return add(*(_diff(t, v) for t in args))
    if op == NEG:
        return neg(_diff(args[0], v))
    if op == PROD:
        terms = []
        for i, f in enumerate(args):
            df = _diff(f, v)
            if is_const(df, 0.0):
                continue
            terms.append(mul(*args[:i], df, *args[i + 1:]))
        return add(*terms)
    if op == QUOT:
        num, den = args
        du = _diff(num, v)
        dv = _diff(den, v)
        return quot(sub(mul(du, den), mul(num, dv)), mul(den, den))
    if op == POW:
        return mul(const(e.aux), powi(args[0], e.aux - 1), _diff(args[0], v))
    if op == EXP:
        return mul(e, _diff(args[0], v))
    if op == LOG:
        return quot(_diff(args[0], v), args[0])
    if op == SIN:
        return mul(cos_(args[0]), _diff(args[0], v))
    if op == COS:
        return neg(mul(sin_(args[0]), _diff(args[0], v)))
    if op == SQRT:
        return quot(_diff(args[0], v), mul(const(2.0), e))
    if op == BRACKET:
        num = add(*(mul(a, _diff(a, v)) for a in args))
        return quot(num, e)
    if op == NORM:
        if v in e.aux:
            return quot(var(v), e)
        return const(0.0)
    if op == BUMPD:
        return mul(Expr(BUMPD, args, e.aux + 1), _diff(args[0], v))
    raise TypeError(f"cannot differentiate node kind {op}")


def _diff(e: Expr, v: str) -> Expr:
    if v not in free_vars(e):
        return const(0.0)
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

# the smart constructor of each kind with children; POW and BUMPD also
# take their aux (exponent, order) as the last argument
_REBUILD = {SUM: add, NEG: neg, PROD: mul, QUOT: quot, POW: powi,
            EXP: exp_, LOG: log_, SIN: sin_, COS: cos_, SQRT: sqrt_,
            BRACKET: bracket, BUMPD: bump}


def substitute(e: Expr, mapping: dict[str, Expr | float]) -> Expr:
    """Replace variables by expressions (or numbers), rebuilding with folding.

    Subtrees that touch none of the substituted variables are reused as-is.
    A NORM whose variables are all replaced by variables stays a NORM;
    otherwise it is lowered to the square root of a sum of squares.
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
        if node.op == VAR:
            out = subs.get(node.aux, node)
        elif node.op == NORM:
            reps = [subs.get(n, var(n)) for n in node.aux]
            if all(r.op == VAR for r in reps):
                out = norm_vars(*(r.aux for r in reps))
            else:
                # lower to sqrt of squares; the sqrt singular point at 0
                # coincides with the norm's singular locus
                out = sqrt_(add(*(powi(r, 2) for r in reps)))
        else:
            args = [rebuild(c) for c in node.args]
            if node.aux is not None:
                args.append(node.aux)
            out = _REBUILD[node.op](*args)
        memo[id(node)] = out
        return out

    # iterative guard against deep recursion: rebuild bottom-up
    order = _topo(e)
    for node in order:
        rebuild(node)
    return rebuild(e)


def _topo(e: Expr) -> list[Expr]:
    """Children-before-parents ordering of the DAG under e."""
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
        for c in node.args:
            if id(c) not in seen:
                stack.append((c, False))
    return out


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

class Program:
    """Several expressions compiled to one straight-line register program
    over their shared DAG; calling it on an environment evaluates them all.

    Each node is one instruction (op, dst, source registers, aux, free),
    so a subexpression that several outputs share is computed once, and
    every node raises SingularLocusError on its singular locus.  free
    lists the registers whose last read is this instruction, which are
    dropped once it has run; output registers are never freed.
    """

    def __init__(self, exprs: list[Expr]):
        instrs: list = []
        reg_of: dict[int, int] = {}
        for e in exprs:
            for node in _topo(e):
                if id(node) in reg_of:
                    continue
                reg_of[id(node)] = dst = len(instrs)
                srcs = tuple(reg_of[id(c)] for c in node.args)
                instrs.append((node.op, dst, srcs, node.aux))
        self.n_regs = len(instrs)
        self.out_regs = tuple(reg_of[id(e)] for e in exprs)
        self.out_vars = [free_vars(e) for e in exprs]
        last_read = {s: i for i, ins in enumerate(instrs) for s in ins[2]}
        frees: list[list[int]] = [[] for _ in instrs]
        for r, i in last_read.items():
            if r not in self.out_regs:
                frees[i].append(r)
        self.instrs = [ins + (tuple(f),) for ins, f in zip(instrs, frees)]

    def __call__(self, env: dict) -> list:
        return _exec(self, env)


def _compiled(e: Expr) -> Program:
    if e._prog is None:
        e._prog = Program([e])
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


def _any(mask) -> bool:
    """np.any(mask) for an array, a numpy bool, or the Python bool that
    comparing a Python float (a scalar env's binding) gives; bool() of a
    scalar costs a small fraction of np.any's dispatch."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _exec(prog: Program, env: dict) -> list:
    regs: list = [None] * prog.n_regs
    with np.errstate(all="ignore"):
        for op, dst, srcs, aux, free in prog.instrs:
            if op == CONST:
                val = np.float64(aux)
            elif op == VAR:
                val = _lookup(env, aux)
            elif op == SUM:
                val = regs[srcs[0]]
                for s in srcs[1:]:
                    val = val + regs[s]
            elif op == NEG:
                val = -regs[srcs[0]]
            elif op == PROD:
                val = regs[srcs[0]]
                for s in srcs[1:]:
                    val = val * regs[s]
            elif op == QUOT:
                num, den = regs[srcs[0]], regs[srcs[1]]
                if _any(den == 0.0):
                    raise SingularLocusError("zero denominator")
                val = num / den
            elif op == POW:
                base = regs[srcs[0]]
                if aux < 0 and _any(base == 0.0):
                    raise SingularLocusError(
                        "zero base with negative exponent")
                val = base**aux
            elif op == EXP:
                val = np.exp(regs[srcs[0]])
            elif op == LOG:
                arg = regs[srcs[0]]
                if _any(arg <= 0.0):
                    raise SingularLocusError("log of non-positive value")
                val = np.log(arg)
            elif op == SIN:
                val = np.sin(regs[srcs[0]])
            elif op == COS:
                val = np.cos(regs[srcs[0]])
            elif op == SQRT:
                arg = regs[srcs[0]]
                if _any(arg <= 0.0):
                    raise SingularLocusError(
                        "sqrt at or below its singular point 0")
                val = np.sqrt(arg)
            elif op == BRACKET:
                acc = np.float64(1.0)
                for s in srcs:
                    acc = acc + regs[s] * regs[s]
                val = np.sqrt(acc)
            elif op == NORM:
                acc = np.float64(0.0)
                for name in aux:
                    x = _lookup(env, name)
                    acc = acc + np.asarray(x, dtype=np.float64)**2
                if _any(acc == 0.0):
                    raise SingularLocusError(
                        "euclidean norm evaluated at the origin")
                val = np.sqrt(acc)
            elif op == BUMPD:
                val = _bump_eval(regs[srcs[0]], aux)
            else:  # pragma: no cover
                raise AssertionError(op)
            regs[dst] = val
            for r in free:
                regs[r] = None
    return [regs[r] for r in prog.out_regs]


def eval_array(e: Expr, values: dict[str, float | np.ndarray]):
    """Evaluate e with numpy broadcasting over array-valued variables."""
    return _compiled(e)(values)[0]


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
