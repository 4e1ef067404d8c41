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
optional fraction and exponent.  Input may nest at most 100 levels deep,
counting each operator, function call and pair of parentheses as a level,
so that every recursive walk in this module stays within Python's default
recursion limit; deeper input is a :class:`ParseError`.

Trees are immutable and evaluate over plain floats.  Derivatives are
exact to machine rounding rather than approximated: each gradient entry is
a symbolic derivative tree (:func:`differentiate`) and each Hessian entry
is the derivative of a gradient tree.  An expression builds these trees on
first use and keeps them.  One code writer turns any set of output trees
into a straight-line Python function of the variables, with each distinct
subtree computed once, and the expression keeps each function it
generates.  The output sets are the value and gradient, the value,
gradient and Hessian, and two sets for the flows: the Hamilton vector
field ``(dH/dp, -dH/dy)`` over ``(t, y, p)``, and a Lagrangian's value,
gradient and the ``tv``, ``yv`` and ``vv`` Hessian blocks over
``(t, y, v)``; :meth:`Expression.evaluate` compiles the value alone.
Generated code is the only evaluator: each statement records the node it
computes, and statements run depth first, so the line that fails names the
first failing subtree in the typed error (:class:`DomainError`).  Integer exponents are
expanded by repeated multiplication, so negative bases are fine there; any
other exponent requires a positive base.  Central finite differences live at
the bottom of this module as an independent cross-check of the derivative
trees and share no code with them.
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


# How deep the parser nests, counting each operator, function call and pair
# of parentheses as one level.  Every tree walker here recurses once per
# level, and a second derivative tree is up to about seven times as deep as
# the tree it comes from, so this keeps _collect_vars, to_source,
# _derivative and the code writer inside Python's default recursion limit.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each parse method returns a node and its depth."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.level = 0

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

    def deeper(self, depth: int, offset: int) -> int:
        if depth >= _MAX_DEPTH:
            raise ParseError(
                "expression nested too deeply", offset, f"at most {_MAX_DEPTH} levels of nesting"
            )
        return depth + 1

    def nested(self, parse_method, offset: int) -> tuple[Node, int]:
        """Parse one level down, refusing before the recursion gets too deep."""
        self.level = self.deeper(self.level, offset)
        node, depth = parse_method()
        self.level -= 1
        return node, self.deeper(depth, offset)

    def parse(self) -> Node:
        node, _ = self.parse_expr()
        if self.peek()[0] != "end":
            self.fail("an operator or end of input")
        return node

    def parse_expr(self) -> tuple[Node, int]:
        node, depth = self.parse_term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right, right_depth = self.parse_term()
                node, depth = Binary(text, node, right), self.deeper(max(depth, right_depth), offset)
            else:
                return node, depth

    def parse_term(self) -> tuple[Node, int]:
        node, depth = self.parse_unary()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right, right_depth = self.parse_unary()
                node, depth = Binary(text, node, right), self.deeper(max(depth, right_depth), offset)
            else:
                return node, depth

    def parse_unary(self) -> tuple[Node, int]:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            arg, depth = self.nested(self.parse_unary, offset)
            return Unary("neg", arg), depth
        return self.parse_power()

    def parse_power(self) -> tuple[Node, int]:
        base, base_depth = self.parse_atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # The exponent may start with a unary minus; recursion through
            # parse_unary -> parse_power makes "^" right associative.
            exponent, depth = self.nested(self.parse_unary, offset)
            return Binary("^", base, exponent), max(depth, self.deeper(base_depth, offset))
        return base, base_depth

    def parse_atom(self) -> tuple[Node, int]:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text)), 1
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
                arg, depth = self.nested(self.parse_expr, offset)
                self.expect_op(")", "')'")
                return Unary(text, arg), depth
            if text in UNARY_FUNCTIONS:
                self.fail(f"'(' after function name '{text}'")
            return Var(text), 1
        if kind == "op" and text == "(":
            self.advance()
            node, depth = self.nested(self.parse_expr, offset)
            self.expect_op(")", "')'")
            return node, depth
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
    # Filled on first use: derivative trees per variables tuple, and
    # generated functions per (variables, output set); see _OUTPUT_SETS.
    # Equality and hashing stay those of the tree.
    _derivative_trees: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __str__(self) -> str:
        return to_source(self.root)

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        """Evaluate at a point.  Extra bindings are ignored."""
        function, params = _generated(self, (), False)
        arguments = _arguments(params, bindings)
        try:
            return function(*arguments)[0]
        except _GENERATED_ERRORS as exc:
            raise _typed_error(function, exc) from None

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


#: Largest ``|n|`` that ``_int_pow`` multiplies out left to right.
_MULTIPLY_LIMIT = 1024


def _integer_exponent(exponent) -> bool:
    """Whether ``_pow`` takes the integer path, valid for any base sign."""
    return type(exponent) is float and exponent.is_integer()


def _int_pow(base: float, n: int) -> float:
    """``base**n`` for an integer ``n``; any base sign.

    Up to ``|n| = _MULTIPLY_LIMIT`` by repeated multiplication, left to
    right; above it by squaring, with the bits of ``|n|`` read from the
    lowest.  Raises ``ZeroDivisionError`` for a negative power of zero.
    """
    if n == 0:
        return 1.0
    m = abs(n)
    if m <= _MULTIPLY_LIMIT:
        acc = base
        for _ in range(m - 1):
            acc = acc * base
    else:
        acc, square = 1.0, base
        while m:
            if m & 1:
                acc = acc * square
            square = square * square
            m >>= 1
    return 1.0 / acc if n < 0 else acc


def _arguments(params: Sequence[str], bindings: Mapping[str, float]) -> list[float]:
    """``float`` of each parameter's binding, in order; the first one missing
    is an :class:`UnboundVariableError`, and other bindings are not read."""
    try:
        return [float(bindings[name]) for name in params]
    except KeyError:
        raise UnboundVariableError(next(name for name in params if name not in bindings)) from None


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


class _NonPositiveBase(Exception):
    """Raised by ``_pow`` for a non-integer exponent of a base <= 0."""


def _pow(base: float, exponent: float) -> float:
    # An integer exponent selects repeated multiplication, valid for any base.
    if _integer_exponent(exponent):
        return _int_pow(base, int(exponent))
    if base <= 0.0:
        raise _NonPositiveBase
    return math.exp(exponent * math.log(base))


# Everything generated code can fail with; _typed_error types each one.
_GENERATED_ERRORS = (ArithmeticError, ValueError, _NonPositiveBase)
_GENERATED_GLOBALS = {"__builtins__": {}, "pow_": _pow, **_UNARY_TABLE}


class _CodeWriter:
    """Straight-line Python for a set of trees.

    Each distinct subtree becomes one local assignment: a node's right-hand
    side is spelled with its children's local names, so equal subtrees spell
    equal text and share one name without hashing whole trees.  Variables
    are positional parameters ``x0, x1, ...``, the given ``variables``
    first, and non-finite or non-float constants are globals ``c0, c1,
    ...``, so no name or text from the expression enters the source.
    """

    def __init__(self, variables: Sequence[str] = ()):
        self.lines: list[str] = []
        self.nodes: list[Node] = []  # the node each line computes
        # variable name -> parameter
        self.params: dict[str, str] = {name: f"x{i}" for i, name in enumerate(variables)}
        self.constants: dict[str, object] = {}  # global name -> value
        self.locals: dict[str, str] = {}  # right-hand side -> local name
        self.done: dict[int, str] = {}  # id(node) -> operand, for shared node objects

    def nested(self, outputs) -> str:
        """A list display of the outputs, nested as they are."""
        return "[" + ",".join(
            self.operand(out) if isinstance(out, Node) else self.nested(out) for out in outputs
        ) + "]"

    def operand(self, node: Node) -> str:
        text = self.done.get(id(node))
        if text is not None:
            return text
        cls = node.__class__
        if cls is Var:
            text = self.params.setdefault(node.name, f"x{len(self.params)}")
        elif cls is Const:
            value = node.value
            if type(value) is float and math.isfinite(value):
                text = repr(value)
                if text[0] == "-":
                    text = f"({text})"
            else:
                text = f"c{len(self.constants)}"
                self.constants[text] = value
        elif cls is Unary:
            arg = self.operand(node.arg)
            text = self.assign(f"-{arg}" if node.op == "neg" else f"{node.op}({arg})", node)
        else:
            # Both children come first, depth first, so a failing base is
            # evaluated even where the power itself folds to a constant.
            left = self.operand(node.left)
            right = self.operand(node.right)
            if node.op != "^":
                text = self.assign(f"{left}{node.op}{right}", node)
            else:
                text = self.power(left, node.right, right, node)
        self.done[id(node)] = text
        return text

    def power(self, base: str, exponent: Node, exponent_text: str, node: Binary) -> str:
        if (
            exponent.__class__ is not Const
            or not _integer_exponent(exponent.value)
            or abs(exponent.value) > _MULTIPLY_LIMIT
        ):
            return self.assign(f"pow_({base},{exponent_text})", node)
        # _int_pow unrolled: the same products in the same order.
        n = int(exponent.value)
        if n == 0:
            return "1.0"
        if n == 1:
            return base
        product = "*".join([base] * abs(n))
        return self.assign(product if n > 0 else f"1.0/({product})", node)

    def assign(self, rhs: str, node: Node) -> str:
        name = self.locals.get(rhs)
        if name is None:
            name = self.locals[rhs] = f"t{len(self.locals)}"
            self.lines.append(f"    {name} = {rhs}")
            self.nodes.append(node)
        return name


def _compile(variables: tuple[str, ...], outputs: tuple):
    """One straight-line function computing a nested tuple of output trees.

    Its parameters are ``variables`` in order, used or not, then any other
    variable the trees use.  It returns the outputs' values as lists nested
    like ``outputs``.  Returns the function and its parameter names.
    """
    writer = _CodeWriter(variables)
    result = writer.nested(outputs)
    params = ",".join(writer.params.values())
    source = "\n".join([f"def generated({params}):", *writer.lines, f"    return {result}"])
    namespace = {**_GENERATED_GLOBALS, **writer.constants}
    exec(compile(source, "<generated>", "exec"), namespace)
    function = namespace["generated"]
    function.nodes = writer.nodes  # line k + 2 of <generated> computes nodes[k]
    return function, tuple(writer.params)


def _typed_error(function, exc: Exception) -> Exception:
    """The typed error for ``exc``, raised inside the generated ``function``.

    The traceback's line in ``function`` is the failing statement, and so
    the node it computes: the first subtree whose evaluation fails, since
    statements run depth first.  Any other exception comes back unchanged.
    """
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not function.__code__:
        tb = tb.tb_next
    node = function.nodes[tb.tb_lineno - 2]
    if isinstance(exc, ZeroDivisionError):
        message = "division by zero" if node.op == "/" else "negative power of zero"
    elif isinstance(exc, _NonPositiveBase):
        message = "non-integer exponent requires a positive base"
    elif isinstance(exc, (ValueError, OverflowError)):
        # A function's domain or range error, or exp's inside a power.
        message = f"{'exp' if node.op == '^' else node.op}: {exc}"
    else:
        return exc
    return DomainError(message, to_source(node))


# ---------------------------------------------------------------------------
# Output sets: what one generated function returns


def _hessian_entry(rows: tuple, i: int, j: int) -> Node:
    """Hessian tree ``(i, j)`` from the upper-triangle rows."""
    return rows[min(i, j)][abs(j - i)]


def _gradient_set(expr: Expression, variables: tuple[str, ...]) -> tuple:
    gradient, _ = _trees(expr, variables, hessian=False)
    return expr.root, gradient


def _hessian_set(expr: Expression, variables: tuple[str, ...]) -> tuple:
    gradient, rows = _trees(expr, variables, hessian=True)
    k = len(variables)
    return expr.root, gradient, [[_hessian_entry(rows, i, j) for j in range(k)] for i in range(k)]


def _hamilton_field_set(expr: Expression, variables: tuple[str, ...]) -> tuple:
    """``(dH/dp_1..n, -dH/dy_1..n)`` over ``(t, y_1..n, p_1..n)``.

    The sign is a ``neg`` node, exact like numpy's ``-grad``.  H's own
    value is not computed.
    """
    gradient, _ = _trees(expr, variables, hessian=False)
    n = len(variables) // 2
    return (*gradient[n + 1 :], *(Unary("neg", tree) for tree in gradient[1 : n + 1]))


def _lagrangian_block_set(expr: Expression, variables: tuple[str, ...]) -> tuple:
    """``(value, gradient, tv, yv, vv)`` of L over ``(t, y_1..n, v_1..n)``.

    ``tv[i]``, ``yv[j][i]`` and ``vv[i][j]`` are the second derivatives by
    ``(t, v^i)``, ``(y^j, v^i)`` and ``(v^i, v^j)``; ``vv`` is mirrored from
    its upper triangle.  The ``tt``, ``ty`` and ``yy`` blocks are left out.
    """
    gradient, rows = _trees(expr, variables, hessian=True)
    n = len(variables) // 2
    vs = range(n + 1, 2 * n + 1)
    tv = [_hessian_entry(rows, 0, j) for j in vs]
    yv = [[_hessian_entry(rows, i, j) for j in vs] for i in range(1, n + 1)]
    vv = [[_hessian_entry(rows, i, j) for j in vs] for i in vs]
    return expr.root, gradient, tv, yv, vv


# The second element of a compiled function's key in ``_derivative_trees``,
# the first being the variables tuple.  False and True are the sets of
# value_gradient and value_gradient_hessian; evaluate's is False over no
# variables, the value alone.
_OUTPUT_SETS = {
    False: _gradient_set,
    True: _hessian_set,
    "hamilton field": _hamilton_field_set,
    "lagrangian blocks": _lagrangian_block_set,
}


def _generated(expr: Expression, variables: tuple[str, ...], output_set):
    """``(function, parameter names)`` of one output set, compiled on first use."""
    key = (variables, output_set)
    compiled = expr._derivative_trees.get(key)
    if compiled is None:
        outputs = _OUTPUT_SETS[output_set](expr, variables)
        compiled = expr._derivative_trees[key] = _compile(variables, outputs)
    return compiled


def _flow_function(expr: Expression, variables: tuple[str, ...], output_set) -> Callable:
    """One output set as ``f(t, state)``, for a right-hand side's inner loop.

    ``t`` is the first variable and ``state`` holds the others in order, as
    Python floats; ``expr`` may use no variable outside ``variables``.  The
    generated code runs directly; when it fails, the typed error names the
    failing subtree.
    """
    function, _ = _generated(expr, variables, output_set)

    def evaluate(t: float, state) -> list:
        try:
            return function(t, *state)
        except _GENERATED_ERRORS as exc:
            raise _typed_error(function, exc) from None

    return evaluate


def _as_arrays(result: list, k: int) -> tuple:
    """A gradient or Hessian set's values as ``(value, gradient[, Hessian])``."""
    value, grad = float(result[0]), np.array(result[1], dtype=float)
    if len(result) == 2:
        return value, grad
    return value, grad, np.array(result[2], dtype=float).reshape(k, k)


def _derivatives(expr: Expression, variables: Sequence[str], bindings: Mapping[str, float], hessian: bool):
    variables = tuple(variables)
    function, params = _generated(expr, variables, hessian)
    arguments = _arguments(params, bindings)
    try:
        result = function(*arguments)
    except _GENERATED_ERRORS as exc:
        raise _typed_error(function, exc) from None
    return _as_arrays(result, len(variables))


def value_gradient(
    expr: Expression, variables: Sequence[str], bindings: Mapping[str, float]
) -> tuple[float, np.ndarray]:
    """Value and exact gradient at a point.

    Gradient entry ``i`` is the symbolic derivative of the tree with
    respect to ``variables[i]``, evaluated by code generated on the first
    call for a variables tuple and kept on the expression.  Every
    differentiation variable must be bound, even one the expression does
    not use.
    """
    return _derivatives(expr, variables, bindings, hessian=False)


def value_gradient_hessian(
    expr: Expression, variables: Sequence[str], bindings: Mapping[str, float]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, exact gradient and exact Hessian at a point.

    Hessian entry ``(i, j)`` is the derivative of gradient tree ``i`` with
    respect to ``variables[j]``.  Only the upper triangle is computed and
    it is mirrored, so the returned matrix is symmetric to exact
    floating-point equality.
    """
    return _derivatives(expr, variables, bindings, hessian=True)


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
