"""A small expression language for scalar functions of named coordinates.

Grammar (infix, case sensitive)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right associative
    atom   := NUMBER | IDENT | FUNC "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus, which binds tighter than "*" and "/".
Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``; the function names sin, cos,
tan, exp, log and sqrt are reserved.  Numeric literals are decimal with an
optional fraction and exponent.

Trees are immutable and evaluate over plain floats.  Derivatives are
exact to machine rounding rather than approximated: each gradient entry is
a symbolic derivative tree (:func:`differentiate`) evaluated at the point,
and each Hessian entry is the derivative of a gradient tree.  An
expression builds its derivative trees on first use and keeps them.
Integer exponents are expanded by repeated multiplication, so negative
bases are fine there; any other exponent requires a positive base.
Central finite differences live at the bottom of this module as an
independent cross-check of the derivative trees and share no code with
them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ParseError, UnboundVariableError

UNARY_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
BINARY_OPS = ("+", "-", "*", "/", "^")


# ---------------------------------------------------------------------------
# Syntax trees


class Node:
    """Base class of expression tree nodes.

    Arithmetic operators are overloaded to build new trees, which keeps
    programmatic composition readable: ``a * b - c`` produces the same tree
    as parsing the corresponding source text.
    """

    __slots__ = ()

    def __add__(self, other):
        return Binary("+", self, _as_node(other))

    def __radd__(self, other):
        return Binary("+", _as_node(other), self)

    def __sub__(self, other):
        return Binary("-", self, _as_node(other))

    def __rsub__(self, other):
        return Binary("-", _as_node(other), self)

    def __mul__(self, other):
        return Binary("*", self, _as_node(other))

    def __rmul__(self, other):
        return Binary("*", _as_node(other), self)

    def __truediv__(self, other):
        return Binary("/", self, _as_node(other))

    def __rtruediv__(self, other):
        return Binary("/", _as_node(other), self)

    def __pow__(self, other):
        return Binary("^", self, _as_node(other))

    def __neg__(self):
        return Unary("neg", self)


@dataclass(frozen=True, slots=True)
class Const(Node):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Node):
    name: str


@dataclass(frozen=True, slots=True)
class Unary(Node):
    op: str  # "neg" or a function name
    arg: Node


@dataclass(frozen=True, slots=True)
class Binary(Node):
    op: str  # one of + - * / ^
    left: Node
    right: Node


def _as_node(value) -> Node:
    if isinstance(value, Node):
        return value
    return Const(float(value))


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

_BINARY_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}


def _node_prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _BINARY_PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC_NEG
    return _PREC_ATOM


def to_source(node: Node) -> str:
    """Render a tree as source text that parses back to the same tree.

    Parentheses are inserted only where precedence or associativity
    requires them.
    """
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            if _node_prec(node.arg) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_source(node.arg)})"
    prec = _BINARY_PREC[node.op]
    left = to_source(node.left)
    right = to_source(node.right)
    # "^" associates right, the others left; same-precedence children on the
    # non-associating side keep their parentheses.
    if _node_prec(node.left) < prec or (_node_prec(node.left) == prec and node.op == "^"):
        left = f"({left})"
    if _node_prec(node.right) < prec or (_node_prec(node.right) == prec and node.op != "^"):
        right = f"({right})"
    return f"{left}{node.op}{right}"


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)
_WS_RE = re.compile(r"\s*")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    length = len(source)
    while pos < length:
        pos = _WS_RE.match(source, pos).end()
        if pos >= length:
            break
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {source[pos]!r}",
                pos,
                "a number, variable, function or operator",
            )
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", length))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, expected: str):
        kind, text, offset = self.peek()
        what = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"unexpected {what}", offset, expected)

    def expect_op(self, op: str, expected: str):
        kind, text, _ = self.peek()
        if kind != "op" or text != op:
            self.fail(expected)
        self.advance()

    def parse(self) -> Node:
        node = self.parse_expr()
        if self.peek()[0] != "end":
            self.fail("an operator or end of input")
        return node

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # The exponent may start with a unary minus; recursion through
            # parse_unary -> parse_power makes "^" right associative.
            return Binary("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text))
        if kind == "ident":
            self.advance()
            next_kind, next_text, _ = self.peek()
            if next_kind == "op" and next_text == "(":
                if text not in UNARY_FUNCTIONS:
                    raise ParseError(
                        f"unknown function '{text}'",
                        offset,
                        "one of " + ", ".join(UNARY_FUNCTIONS),
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")", "')'")
                return Unary(text, arg)
            if text in UNARY_FUNCTIONS:
                self.fail(f"'(' after function name '{text}'")
            return Var(text)
        if kind == "op" and text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")", "')'")
            return node
        self.fail("a number, variable, function or '('")


# ---------------------------------------------------------------------------
# Expressions

def _collect_vars(node: Node, seen: dict[str, None]):
    if isinstance(node, Var):
        seen.setdefault(node.name)
    elif isinstance(node, Unary):
        _collect_vars(node.arg, seen)
    elif isinstance(node, Binary):
        _collect_vars(node.left, seen)
        _collect_vars(node.right, seen)


@dataclass(frozen=True)
class Expression:
    """An immutable expression tree plus its variables in order of first use."""

    root: Node
    free_vars: tuple[str, ...]
    # Derivative trees per variables tuple, filled on first use by
    # value_gradient and value_gradient_hessian.  Equality and hashing stay
    # those of the tree.
    _derivative_trees: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __str__(self) -> str:
        return to_source(self.root)

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        """Evaluate at a point.  Extra bindings are ignored."""
        env = {name: float(value) for name, value in bindings.items()}
        return _eval(self.root, env)

    def gradient(self, variables: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
        """Exact first derivatives with respect to ``variables`` at a point."""
        return value_gradient(self, variables, bindings)[1]

    def hessian(self, variables: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
        """Exact second derivatives; symmetric to the bit by construction."""
        return value_gradient_hessian(self, variables, bindings)[2]


def expression(root: Node) -> Expression:
    """Wrap a tree, collecting free variables in order of first appearance."""
    seen: dict[str, None] = {}
    _collect_vars(root, seen)
    return Expression(root, tuple(seen))


def parse(source: str) -> Expression:
    """Parse source text into an :class:`Expression`.

    Raises :class:`ParseError` carrying the byte offset of the failure and a
    description of what was expected there.
    """
    return expression(_Parser(source).parse())


def substitute(expr: Expression, replacements: Mapping[str, Expression | Node]) -> Expression:
    """Replace variables by sub-expressions, returning a new expression."""
    table = {
        name: (value.root if isinstance(value, Expression) else value)
        for name, value in replacements.items()
    }

    def walk(node: Node) -> Node:
        if isinstance(node, Var):
            return table.get(node.name, node)
        if isinstance(node, Unary):
            return Unary(node.op, walk(node.arg))
        if isinstance(node, Binary):
            return Binary(node.op, walk(node.left), walk(node.right))
        return node

    return expression(walk(expr.root))


# ---------------------------------------------------------------------------
# Evaluation


_UNARY_TABLE: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _apply_unary(op: str, x: float, node: Node) -> float:
    try:
        return _UNARY_TABLE[op](x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{op}: {exc}", to_source(node)) from None


def _int_pow(base: float, n: int, node: Node) -> float:
    if n == 0:
        return 1.0
    positive = abs(n)
    acc = base
    for _ in range(positive - 1):
        acc = acc * base
    if n < 0:
        try:
            return 1.0 / acc
        except ZeroDivisionError:
            raise DomainError("negative power of zero", to_source(node)) from None
    return acc


def _pow(base: float, exponent: float, node: Node) -> float:
    # An integer exponent selects repeated multiplication, valid for any base.
    if type(exponent) is float and exponent.is_integer() and abs(exponent) <= 1024:
        return _int_pow(base, int(exponent), node)
    if base <= 0.0:
        raise DomainError("non-integer exponent requires a positive base", to_source(node))
    log_base = _apply_unary("log", base, node)
    return _apply_unary("exp", exponent * log_base, node)


def _eval(node: Node, env: Mapping[str, float]) -> float:
    cls = node.__class__
    if cls is Var:
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariableError(node.name) from None
    if cls is Const:
        return node.value
    if cls is Unary:
        x = _eval(node.arg, env)
        if node.op == "neg":
            return -x
        return _apply_unary(node.op, x, node)
    left = _eval(node.left, env)
    op = node.op
    if op == "^":
        return _pow(left, _eval(node.right, env), node)
    right = _eval(node.right, env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    try:
        return left / right
    except ZeroDivisionError:
        raise DomainError("division by zero", to_source(node)) from None


def _derivative_env(variables: Sequence[str], bindings: Mapping[str, float]) -> dict[str, float]:
    env = {name: float(value) for name, value in bindings.items()}
    for name in variables:
        if name not in env:
            raise UnboundVariableError(name)
    return env


def _trees(expr: Expression, variables: tuple[str, ...], hessian: bool) -> list:
    """Cached ``[gradient trees, upper-triangle Hessian rows]`` of ``expr``.

    The rows are ``None`` until a call asks for the Hessian.
    """
    entry = expr._derivative_trees.get(variables)
    if entry is None:
        gradient = tuple(_derivative(expr.root, name) for name in variables)
        entry = expr._derivative_trees[variables] = [gradient, None]
    if hessian and entry[1] is None:
        entry[1] = tuple(
            tuple(_derivative(tree, name) for name in variables[i:])
            for i, tree in enumerate(entry[0])
        )
    return entry


def value_gradient(
    expr: Expression, variables: Sequence[str], bindings: Mapping[str, float]
) -> tuple[float, np.ndarray]:
    """Value and exact gradient at a point.

    Gradient entry ``i`` evaluates the symbolic derivative of the tree with
    respect to ``variables[i]``.  The derivative trees are built on the
    first call for a variables tuple and kept on the expression.  Every
    differentiation variable must be bound, even one the expression does
    not use.
    """
    variables = tuple(variables)
    env = _derivative_env(variables, bindings)
    gradient, _ = _trees(expr, variables, hessian=False)
    value = float(_eval(expr.root, env))
    return value, np.array([_eval(tree, env) for tree in gradient], dtype=float)


def value_gradient_hessian(
    expr: Expression, variables: Sequence[str], bindings: Mapping[str, float]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, exact gradient and exact Hessian at a point.

    Hessian entry ``(i, j)`` evaluates the derivative of gradient tree ``i``
    with respect to ``variables[j]``.  Only the upper triangle is evaluated
    and it is mirrored, so the returned matrix is symmetric to exact
    floating-point equality.
    """
    variables = tuple(variables)
    env = _derivative_env(variables, bindings)
    gradient, rows = _trees(expr, variables, hessian=True)
    value = float(_eval(expr.root, env))
    grad = np.array([_eval(tree, env) for tree in gradient], dtype=float)
    k = len(variables)
    hessian = np.empty((k, k))
    for i, row in enumerate(rows):
        for j, tree in enumerate(row, start=i):
            hessian[i, j] = hessian[j, i] = _eval(tree, env)
    return value, grad, hessian


# ---------------------------------------------------------------------------
# Symbolic differentiation

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(node: Node, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Unary("neg", b)
    return Binary("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def _derivative(node: Node, var: str) -> Node:
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Unary):
        inner = _derivative(node.arg, var)
        arg = node.arg
        if node.op == "neg":
            return _ZERO if _is_const(inner, 0.0) else Unary("neg", inner)
        if node.op == "sin":
            return _mul(Unary("cos", arg), inner)
        if node.op == "cos":
            return _mul(Unary("neg", Unary("sin", arg)), inner)
        if node.op == "tan":
            sec2 = _add(_ONE, Binary("^", Unary("tan", arg), Const(2.0)))
            return _mul(sec2, inner)
        if node.op == "exp":
            return _mul(node, inner)
        if node.op == "log":
            return _div(inner, arg)
        if node.op == "sqrt":
            return _div(inner, _mul(Const(2.0), node))
    assert isinstance(node, Binary)
    a, b = node.left, node.right
    da, db = _derivative(a, var), _derivative(b, var)
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if node.op == "/":
        # (da - (a/b)*db)/b: no b^2, which would under- or overflow long
        # before the derivative leaves the float range.
        return _div(_sub(da, _mul(node, db)), b)
    # Power rule b * a^(b-1) * da whenever the exponent does not depend on
    # var, so a base of zero or below stays allowed for integer exponents;
    # the general branch uses a^b * (db*log a + b*da/a).
    if _is_const(db, 0.0):
        if isinstance(b, Const):
            reduced = Binary("^", a, Const(b.value - 1.0))
        else:
            reduced = Binary("^", a, Binary("-", b, _ONE))
        return _mul(_mul(b, reduced), da)
    log_term = _mul(db, Unary("log", a))
    ratio_term = _mul(b, _div(da, a))
    return _mul(node, _add(log_term, ratio_term))


def differentiate(expr: Expression, var: str) -> Expression:
    """Symbolic partial derivative with light constant folding."""
    return expression(_derivative(expr.root, var))


# ---------------------------------------------------------------------------
# Finite-difference oracles (independent of the derivative trees)


def fd_gradient(
    expr: Expression,
    variables: Sequence[str],
    bindings: Mapping[str, float],
    scale: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient with step ``scale * max(1, |x|)`` per variable."""
    base = {name: float(value) for name, value in bindings.items()}
    out = np.zeros(len(variables))
    for i, name in enumerate(variables):
        x = base[name]
        h = scale * max(1.0, abs(x))
        hi = dict(base)
        lo = dict(base)
        hi[name] = x + h
        lo[name] = x - h
        out[i] = (expr.evaluate(hi) - expr.evaluate(lo)) / (2.0 * h)
    return out


def fd_hessian(
    expr: Expression,
    variables: Sequence[str],
    bindings: Mapping[str, float],
    scale: float = 1e-4,
) -> np.ndarray:
    """Central-difference Hessian.

    Second differences lose half the working precision to cancellation, so
    the default step is larger than the gradient oracle's; 1e-4 balances
    truncation against rounding for well-scaled inputs.
    """
    base = {name: float(value) for name, value in bindings.items()}
    k = len(variables)
    steps = [scale * max(1.0, abs(base[name])) for name in variables]

    def at(offsets: dict[str, float]) -> float:
        point = dict(base)
        for name, delta in offsets.items():
            point[name] = point[name] + delta
        return expr.evaluate(point)

    center = expr.evaluate(base)
    out = np.zeros((k, k))
    for i, ni in enumerate(variables):
        hi = steps[i]
        out[i, i] = (at({ni: hi}) - 2.0 * center + at({ni: -hi})) / (hi * hi)
        for j in range(i + 1, k):
            nj = variables[j]
            hj = steps[j]
            value = (
                at({ni: hi, nj: hj})
                - at({ni: hi, nj: -hj})
                - at({ni: -hi, nj: hj})
                + at({ni: -hi, nj: -hj})
            ) / (4.0 * hi * hj)
            out[i, j] = value
            out[j, i] = value
    return out
