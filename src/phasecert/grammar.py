"""Parser for the expression strings used in scenario files.

Grammar (infix, conventional precedence):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' signed_integer)?
    atom    := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

Functions: exp, log, sin, cos, sqrt, bracket (n-ary japanese bracket),
norm (euclidean norm of variables), bump (smooth transition primitive).
Anything else that looks like an identifier is a variable; collar phase
space uses x1..x{n-1}, xn for position and k1..k{n-1}, kn for covariables.

Numbers are written out in full: scientific notation (1e-3) is rejected
with a message that says so.  Parentheses, function calls and unary
minus nest at most MAX_DEPTH deep, so no expression can exhaust the
parser's recursion.
"""

from __future__ import annotations

import re

from . import expr as ex
from .exceptions import ScenarioParseError

MAX_DEPTH = 64

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|(\*\*)|([()+\-*/^,]))")
_SCIENTIFIC = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+")

_FUNCTIONS = {
    "exp": ex.exp_,
    "log": ex.log_,
    "sin": ex.sin_,
    "cos": ex.cos_,
    "sqrt": ex.sqrt_,
    "bracket": ex.bracket,
    "bump": ex.bump,
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ScenarioParseError(f"bad token at {rest[:12]!r}")
        num, ident, dstar, sym = m.groups()
        sci = num is not None and _SCIENTIFIC.match(text, m.start(1))
        if sci:
            raise ScenarioParseError(
                f"scientific notation {sci.group()!r} is not supported; "
                "write the number as a plain decimal")
        if num is not None:
            out.append(("num", num))
        elif ident is not None:
            out.append(("ident", ident))
        elif dstar is not None:
            out.append(("sym", "^"))  # allow ** as a synonym
        else:
            out.append(("sym", sym))
        pos = m.end()
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def nested(self, parse):
        """parse() one level deeper, refusing to pass MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise ScenarioParseError(
                f"expression nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, sym: str):
        kind, val = self.take()
        if kind != "sym" or val != sym:
            raise ScenarioParseError(
                f"expected {sym!r}, got {val!r} in {self.text!r}")

    def parse(self) -> ex.Expr:
        e = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ScenarioParseError(
                f"trailing input {val!r} in {self.text!r}")
        return e

    def expr(self) -> ex.Expr:
        node = self.term()
        while True:
            kind, val = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                rhs = self.term()
                node = ex.add(node, rhs) if val == "+" else ex.sub(node, rhs)
            else:
                return node

    def term(self) -> ex.Expr:
        node = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "sym" and val in "*/":
                self.take()
                rhs = self.unary()
                node = ex.mul(node, rhs) if val == "*" else ex.quot(node, rhs)
            else:
                return node

    def unary(self) -> ex.Expr:
        kind, val = self.peek()
        if kind == "sym" and val == "-":
            self.take()
            return ex.neg(self.nested(self.unary))
        return self.power()

    def power(self) -> ex.Expr:
        base = self.atom()
        kind, val = self.peek()
        if kind == "sym" and val == "^":
            self.take()
            return ex.powi(base, self.signed_integer())
        return base

    def signed_integer(self) -> int:
        sign = 1
        kind, val = self.peek()
        paren = kind == "sym" and val == "("
        if paren:
            self.take()
            kind, val = self.peek()
        if kind == "sym" and val == "-":
            self.take()
            sign = -1
            kind, val = self.peek()
        if kind != "num" or "." in val:
            raise ScenarioParseError(
                f"exponent must be an integer, got {val!r}")
        self.take()
        if paren:
            self.expect(")")
        return sign * int(val)

    def atom(self) -> ex.Expr:
        kind, val = self.take()
        if kind == "num":
            return ex.const(float(val))
        if kind == "ident":
            k2, v2 = self.peek()
            if k2 == "sym" and v2 == "(":
                self.take()
                args = [self.nested(self.expr)]
                while True:
                    k3, v3 = self.peek()
                    if k3 == "sym" and v3 == ",":
                        self.take()
                        args.append(self.nested(self.expr))
                    else:
                        break
                self.expect(")")
                return self._call(val, args)
            return ex.var(val)
        if kind == "sym" and val == "(":
            node = self.nested(self.expr)
            self.expect(")")
            return node
        raise ScenarioParseError(f"unexpected {val!r} in {self.text!r}")

    def _call(self, name: str, args: list[ex.Expr]) -> ex.Expr:
        if name == "norm":
            names = []
            for a in args:
                if a.op != ex.VAR:
                    raise ScenarioParseError(
                        "norm() arguments must be plain variables")
                names.append(a.aux)
            return ex.norm_vars(*names)
        fn = _FUNCTIONS.get(name)
        if fn is None:
            raise ScenarioParseError(f"unknown function {name!r}")
        if name == "bracket":
            return fn(*args)
        if len(args) != 1:
            raise ScenarioParseError(f"{name}() takes one argument")
        return fn(args[0])


def parse_expr(text: str) -> ex.Expr:
    """Parse one expression string; raises ScenarioParseError on bad input."""
    return _Parser(text).parse()
