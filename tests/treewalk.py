"""The tree walk: a recursive float evaluator, the oracle for generated code.

The library evaluates expressions only by generated code.  This walk
computes the same values by recursion over the trees and raises the same
typed errors, naming the first subtree whose evaluation fails, so tests
can compare the two bit for bit and message for message.
"""

from __future__ import annotations

from typing import Mapping

from tdmech.errors import DomainError, UnboundVariableError
from tdmech.expr import (
    _OUTPUT_SETS,
    _UNARY_TABLE,
    Const,
    Expression,
    Node,
    Unary,
    Var,
    _as_arrays,
    _int_pow,
    _integer_exponent,
    to_source,
)


def _apply_unary(op: str, x: float, node: Node) -> float:
    try:
        return _UNARY_TABLE[op](x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{op}: {exc}", to_source(node)) from None


def _pow(base: float, exponent: float, node: Node) -> float:
    # An integer exponent selects repeated multiplication, valid for any base.
    if _integer_exponent(exponent):
        try:
            return _int_pow(base, int(exponent))
        except ZeroDivisionError:
            raise DomainError("negative power of zero", to_source(node)) from None
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


def _walk(outputs, env: Mapping[str, float]) -> list:
    """A generated function's result by the tree walk, nested the same way."""
    return [_eval(out, env) if isinstance(out, Node) else _walk(out, env) for out in outputs]


def _evaluate_trees(expr: Expression, variables: tuple[str, ...], env, hessian: bool) -> tuple:
    """Value, gradient and (if asked) Hessian by walking the derivative trees."""
    return _as_arrays(_walk(_OUTPUT_SETS[hessian](expr, variables), env), len(variables))
