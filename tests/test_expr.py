"""Expression language: parsing, printing, evaluation, exact derivatives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_smooth_expression

from tdmech.errors import DomainError, MechanicsError, ParseError, UnboundVariableError
from tdmech.expr import (
    _GENERATED_ERRORS,
    _MAX_DEPTH,
    UNARY_FUNCTIONS,
    Binary,
    Const,
    Unary,
    Var,
    _CodeWriter,
    differentiate,
    expression,
    fd_gradient,
    fd_hessian,
    parse,
    substitute,
    value_gradient,
    value_gradient_hessian,
)
from treewalk import _eval, _evaluate_trees


class TestParsing:
    def test_power_quotient_structure(self):
        e = parse("p1^2/2")
        assert e.root == Binary("/", Binary("^", Var("p1"), Const(2.0)), Const(2.0))
        assert e.free_vars == ("p1",)

    def test_product_sum_structure_and_vars(self):
        e = parse("sin(t)*y1 + 3")
        expected = Binary("+", Binary("*", Unary("sin", Var("t")), Var("y1")), Const(3.0))
        assert e.root == expected
        assert e.free_vars == ("t", "y1")

    def test_truncated_input_reports_offset(self):
        with pytest.raises(ParseError) as info:
            parse("y1 +")
        assert info.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'foo'"):
            parse("foo(y1)")

    def test_reserved_function_name_needs_call(self):
        with pytest.raises(ParseError, match="sin"):
            parse("sin + 1")

    def test_power_is_right_associative(self):
        assert parse("2^3^2").evaluate({}) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-2^2").evaluate({}) == -4.0
        assert parse("(-2)^2").evaluate({}) == 4.0

    def test_unary_minus_in_exponent(self):
        assert parse("2^-3").evaluate({}) == 0.125

    def test_left_associative_subtraction_division(self):
        assert parse("8-3-2").evaluate({}) == 3.0
        assert parse("8/4/2").evaluate({}) == 1.0

    def test_precedence_of_products_over_sums(self):
        assert parse("2*3+4*5").evaluate({}) == 26.0

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse("y1 @ 2")
        assert info.value.offset == 3

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("2 3")

    def test_scientific_literals(self):
        assert parse("1.5e-3").evaluate({}) == 1.5e-3
        assert parse("2E2").evaluate({}) == 200.0


class TestPrinting:
    def test_round_trip_pinned_sources(self):
        sources = [
            "p1^2/2",
            "sin(t)*y1 + 3",
            "-y1^2",
            "(y1+2)^2",
            "2^-3",
            "a-(b-c)",
            "a/(b/c)",
            "(2^3)^2",
            "-(y1+p1)",
            "1/(1.5+y1^2)",
        ]
        for source in sources:
            first = parse(source)
            assert parse(str(first)) == first

    def test_minimal_parentheses(self):
        assert str(parse("2*(3+4)")) == "2.0*(3.0+4.0)"
        assert str(parse("2*3+4")) == "2.0*3.0+4.0"


class TestEvaluation:
    def test_pinned_value(self):
        assert parse("p1^2/2").evaluate({"p1": 2.0}) == 2.0

    def test_extra_bindings_ignored(self):
        assert parse("y1").evaluate({"y1": 1.0, "p1": 9.0}) == 1.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            parse("y1 + p1").evaluate({"y1": 1.0})

    def test_log_domain(self):
        with pytest.raises(DomainError):
            parse("log(y1)").evaluate({"y1": 0.0})
        with pytest.raises(DomainError):
            parse("log(y1)").evaluate({"y1": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            parse("sqrt(y1)").evaluate({"y1": -1.0})
        assert parse("sqrt(y1)").evaluate({"y1": 4.0}) == 2.0

    def test_division_by_zero_reports_node(self):
        with pytest.raises(DomainError) as info:
            parse("1/(y1-1)").evaluate({"y1": 1.0})
        assert "y1" in info.value.node_source

    def test_integer_power_of_negative_base(self):
        assert parse("y1^3").evaluate({"y1": -2.0}) == -8.0

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            parse("y1^0.5").evaluate({"y1": -2.0})
        assert parse("y1^0.5").evaluate({"y1": 4.0}) == pytest.approx(2.0, abs=1e-15)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            parse("y1^-2").evaluate({"y1": 0.0})

    def test_large_integer_power_of_negative_base(self):
        assert parse("y1^2000").evaluate({"y1": -1.0}) == 1.0
        assert parse("y1^2001").evaluate({"y1": -1.0}) == -1.0
        # Squaring is exact on powers of two, down to the subnormals.
        assert parse("y1^1030").evaluate({"y1": 0.5}) == 2.0**-1030
        assert parse("y1^1025").evaluate({"y1": -2.0}) == -math.inf
        _, grad = value_gradient(parse("y1^2000"), ("y1",), {"y1": -1.0})
        assert grad.tolist() == [-2000.0]

    def test_zero_to_zero(self):
        assert parse("y1^0").evaluate({"y1": 0.0}) == 1.0

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            parse("exp(y1)").evaluate({"y1": 1e4})


class TestGradient:
    def test_pinned_bilinear(self):
        e = parse("p1*y1")
        grad = e.gradient(("y1", "p1"), {"y1": 3.0, "p1": 5.0})
        assert grad.tolist() == [5.0, 3.0]

    def test_quadratic(self):
        e = parse("y1^2/2")
        assert e.gradient(("y1",), {"y1": 4.0}).tolist() == [4.0]

    def test_closed_form_and_oracle(self):
        e = parse("sin(t)*y1")
        names = ("t", "y1")
        at = {"t": 0.7, "y1": 2.0}
        grad = e.gradient(names, at)
        exact = np.array([2.0 * math.cos(0.7), math.sin(0.7)])
        assert np.allclose(grad, exact, rtol=0.0, atol=1e-15)
        oracle = fd_gradient(e, names, at)
        assert np.allclose(grad, oracle, atol=1e-8)

    def test_variable_absent_gets_zero(self):
        e = parse("p1^2")
        grad = e.gradient(("y1", "p1"), {"y1": 1.0, "p1": 3.0})
        assert grad.tolist() == [0.0, 6.0]

    def test_constant_expression(self):
        assert parse("3.5").gradient(("y1",), {"y1": 1.0}).tolist() == [0.0]

    def test_differentiation_variable_must_be_bound(self):
        with pytest.raises(UnboundVariableError):
            parse("y1").gradient(("y1",), {})

    def test_exponent_free_of_the_variable_allows_zero_base(self):
        # The power rule applies, so no log of the base is evaluated.
        e = parse("y1^t")
        assert e.gradient(("y1",), {"y1": 0.0, "t": 2.0}).tolist() == [0.0]

    def test_singularity_only_in_the_derivative(self):
        e = parse("sqrt(y1)")
        assert e.evaluate({"y1": 0.0}) == 0.0
        with pytest.raises(DomainError):
            e.gradient(("y1",), {"y1": 0.0})


class TestHessian:
    def test_pinned_quadratic(self):
        assert parse("y1^2/2").hessian(("y1",), {"y1": 1.0}).tolist() == [[1.0]]

    def test_pinned_bilinear(self):
        h = parse("v1*v2").hessian(("v1", "v2"), {"v1": 0.3, "v2": -2.0})
        assert h.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_pinned_mixed(self):
        h = parse("exp(v1)*v2^2").hessian(("v1", "v2"), {"v1": 0.0, "v2": 1.0})
        assert np.allclose(h, [[1.0, 2.0], [2.0, 2.0]], rtol=0.0, atol=1e-15)
        oracle = fd_hessian(parse("exp(v1)*v2^2"), ("v1", "v2"), {"v1": 0.0, "v2": 1.0})
        assert np.allclose(h, oracle, atol=1e-6)

    def test_quotient_far_from_unit_scale(self):
        # The square of the denominator underflows at 1e-100 and overflows
        # at 1e100; the second derivative 2/y1^3 does neither.
        e = parse("1/y1")
        for x in (1e-100, 1e100):
            h = e.hessian(("y1",), {"y1": x})[0, 0]
            assert h == pytest.approx(2.0 / x**3, rel=1e-12, abs=0.0)

    def test_exact_symmetry_on_quotients(self):
        e = parse("sin(y1*p1)/(1.5+y1^2) + exp(0.3*p1)*y1")
        h = e.hessian(("y1", "p1"), {"y1": 0.8, "p1": -0.6})
        assert np.array_equal(h, h.T)


class TestDerivativeTreeCache:
    SOURCE = "sin(y1*p1)/(1.5+y1^2) + exp(0.3*p1)*y1^t"
    POINT = {"y1": 0.8, "p1": -0.6, "t": 3.0}

    def test_repeated_calls_are_bit_identical(self):
        e = parse(self.SOURCE)
        names = ("y1", "p1")
        first = value_gradient_hessian(e, names, self.POINT)
        second = value_gradient_hessian(e, names, self.POINT)
        assert first[0] == second[0]
        assert first[1].tobytes() == second[1].tobytes()
        assert first[2].tobytes() == second[2].tobytes()

    def test_differentiated_expression_keeps_equality_and_hash(self):
        e = parse(self.SOURCE)
        e.hessian(("y1", "p1"), self.POINT)
        fresh = parse(self.SOURCE)
        assert e == fresh
        assert hash(e) == hash(fresh)


class TestDerivativesAgainstOracle:
    def test_hundred_seeded_expressions(self, rng):
        names = ["t", "y1", "y2"]
        for _ in range(100):
            e = random_smooth_expression(rng, names, depth=3)
            point = {name: float(x) for name, x in zip(names, rng.uniform(-1.5, 1.5, 3))}
            grad = e.gradient(names, point)
            grad_fd = fd_gradient(e, names, point)
            rel = np.abs(grad - grad_fd) / np.maximum(1.0, np.abs(grad_fd))
            assert rel.max() <= 1e-6, f"{e} at {point}"
            hess = e.hessian(names, point)
            assert np.array_equal(hess, hess.T)
            hess_fd = fd_hessian(e, names, point)
            rel2 = np.abs(hess - hess_fd) / np.maximum(1.0, np.abs(hess_fd))
            assert rel2.max() <= 1e-4, f"{e} at {point}"

    def test_round_trip_on_seeded_expressions(self, rng):
        names = ["t", "y1", "y2"]
        for _ in range(100):
            source = str(random_smooth_expression(rng, names, depth=3))
            once = parse(source)
            assert parse(str(once)) == once


class TestSymbolicDerivative:
    @pytest.mark.parametrize(
        "source",
        ["y1^3 + 2*y1", "sin(y1)*cos(y1)", "exp(0.5*y1)/sqrt(1.2+y1^2)", "log(1.5+y1^2)", "y1^y2", "tan(0.3*y1)"],
    )
    def test_matches_finite_differences(self, source):
        e = parse(source)
        d = differentiate(e, "y1")
        for x in (0.4, 1.1, 2.0):
            point = {"y1": x, "y2": 1.7}
            oracle = fd_gradient(e, ("y1",), point)[0]
            assert abs(d.evaluate(point) - oracle) / max(1.0, abs(oracle)) <= 1e-6

    def test_derivative_of_constant(self):
        assert differentiate(parse("3 + sin(2)"), "y1").evaluate({}) == 0.0


class TestSubstitute:
    def test_compose(self):
        e = parse("p1*y1 + t")
        composed = substitute(e, {"y1": parse("2*z"), "p1": expression(Const(3.0))})
        assert composed.evaluate({"z": 5.0, "t": 1.0}) == 31.0
        assert composed.free_vars == ("z", "t")

    def test_untouched_variables_stay(self):
        e = parse("y1 + y2")
        out = substitute(e, {"y1": parse("y2")})
        assert out.evaluate({"y2": 2.0}) == 4.0


# ---------------------------------------------------------------------------
# Generated derivative code against the tree walk

NAMES = ("t", "y1", "y2")

_leaves = st.one_of(
    st.sampled_from(NAMES).map(Var),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, 0.3, 1e300, math.inf]).map(Const),
)
_exponents = st.one_of(
    st.integers(-4, 5).map(lambda n: Const(float(n))),
    st.sampled_from([0.5, -0.5, 1.5, 2.5]).map(Const),
    st.sampled_from(NAMES).map(Var),
)


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + UNARY_FUNCTIONS), children),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Binary, st.just("^"), children, st.one_of(_exponents, children)),
    )


_random_trees = st.recursive(_leaves, _extend, max_leaves=10)
_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1000.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
_points = st.fixed_dictionaries({name: _coordinates for name in NAMES})


def _bits(result):
    """Exact bits, with every NaN alike.

    A NaN's sign and payload are not reproducible from run to run: when
    both operands of a product or sum are NaN, which one comes out depends
    on operand order, and CPython's specialised float instructions may
    order them differently from the generic ones.
    """
    parts = [np.asarray(part, dtype=float) for part in result]
    return [np.where(np.isnan(part), np.nan, part).tobytes() for part in parts]


def _outcome(call):
    try:
        return "ok", _bits(call())
    except MechanicsError as exc:
        return type(exc), str(exc)


class TestCompiledMatchesTrees:
    """The generated function against ``_eval`` over the cached trees."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(root=_random_trees, point=_points)
    def test_bit_identical_or_same_error(self, root, point):
        e = expression(root)
        names = ("y1", "t")
        compiled = _outcome(lambda: value_gradient_hessian(e, names, point))
        reference = _outcome(lambda: _evaluate_trees(e, names, dict(point), hessian=True))
        assert compiled == reference
        # The generated code itself, not only its fallback, agrees.
        function, params = e._derivative_trees[(names, True)]
        if reference[0] == "ok":
            assert _bits(function(*[point[name] for name in params])) == reference[1]
        else:
            with pytest.raises(_GENERATED_ERRORS):
                function(*[point[name] for name in params])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(root=_random_trees, point=_points)
    def test_gradient_only(self, root, point):
        e = expression(root)
        names = ("y2", "y1", "t")
        compiled = _outcome(lambda: value_gradient(e, names, point))
        reference = _outcome(lambda: _evaluate_trees(e, names, dict(point), hessian=False))
        assert compiled == reference

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 16, -1, -2, -3, -5])
    def test_integer_powers_round_like_repeated_multiplication(self, rng, n):
        # x**n and 1/x/x/... round differently from _int_pow's products.
        y1 = Var("y1")
        # Built directly: the parser reads y1^-3 as a power of neg(3.0).
        e = expression(0.5 * y1 ** float(n) + y1 ** (float(n) * Var("t")))
        for x in rng.uniform(-3.0, 3.0, 50):
            point = {"y1": float(x), "t": 1.0}
            compiled = value_gradient_hessian(e, ("y1",), point)
            assert _bits(compiled) == _bits(_evaluate_trees(e, ("y1",), point, hessian=True))

    @pytest.mark.parametrize("n", [1024, 1025, 2000, 2001, -1025, -2000, -2001])
    def test_large_integer_powers_match_the_trees(self, rng, n):
        y1 = Var("y1")
        e = expression(0.5 * y1 ** float(n) + y1 ** (float(n) * Var("t")))
        for x in (*rng.uniform(0.995, 1.005, 20), *rng.uniform(-1.005, -0.995, 20), 1.0, -1.0):
            point = {"y1": float(x), "t": 1.0}
            compiled = value_gradient_hessian(e, ("y1",), point)
            assert _bits(compiled) == _bits(_evaluate_trees(e, ("y1",), point, hessian=True))

    def test_integer_valued_variable_exponent(self):
        e = parse("y1^t")
        value, grad, hess = value_gradient_hessian(e, ("y1",), {"y1": -3.0, "t": 2.0})
        assert (value, grad.tolist(), hess.tolist()) == (9.0, [-6.0], [[2.0]])

    @pytest.mark.parametrize(
        "source, x, message",
        [
            ("1/y1", 0.0, "division by zero in '1.0/y1'"),
            ("log(y1)", -1.0, "log: math domain error in 'log(y1)'"),
            ("exp(y1)", 1000.0, "exp: math range error in 'exp(y1)'"),
            ("sqrt(y1)", 0.0, "division by zero in '1.0/(2.0*sqrt(y1))'"),
            ("y1^0.5", 0.0, "non-integer exponent requires a positive base in 'y1^0.5'"),
            ("y1^-2", 0.0, "negative power of zero in 'y1^(-2.0)'"),
            ("y1^-2000", 0.0, "negative power of zero in 'y1^(-2000.0)'"),
        ],
    )
    def test_domain_errors_name_the_failing_subtree(self, source, x, message):
        for call in (value_gradient, value_gradient_hessian):
            with pytest.raises(DomainError) as info:
                call(parse(source), ("y1",), {"y1": x})
            assert str(info.value) == message

    def test_unbound_variables(self):
        with pytest.raises(UnboundVariableError, match="'y2'"):
            value_gradient_hessian(parse("y1"), ("y1", "y2"), {"y1": 1.0})
        # Bound for differentiation but used unbound: the generated code
        # fails on the lookup and the tree walk names the variable.
        with pytest.raises(UnboundVariableError, match="'y2'"):
            value_gradient(parse("y1*y2"), ("y1",), {"y1": 1.0})

    def test_non_finite_literal(self):
        e = parse("1e999*y1 + y1^2")
        value, grad, hess = value_gradient_hessian(e, ("y1",), {"y1": 2.0})
        assert (value, grad.tolist(), hess.tolist()) == (math.inf, [math.inf], [[2.0]])

    def test_shared_subtrees_are_computed_once(self):
        e = parse("0.5*((v1-(0.5+0.1*sin(t))*y1)^2 + (v2+(0.5+0.1*sin(t))*y2)^2)")
        names = ("t", "y1", "y2", "v1", "v2")
        value_gradient_hessian(e, names, dict.fromkeys(names, 0.3))
        gradient, rows = e._derivative_trees[names]
        writer = _CodeWriter()
        for tree in (e.root, *gradient, *(tree for row in rows for tree in row)):
            writer.operand(tree)
        assert sum("sin(" in line for line in writer.lines) == 1
        assert sum("cos(" in line for line in writer.lines) == 1



class TestEvaluateMatchesTheWalk:
    """``Expression.evaluate`` runs generated code; the walk is the oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(root=_random_trees, point=_points)
    def test_bit_identical_or_same_error(self, root, point):
        compiled = _outcome(lambda: [expression(root).evaluate(point)])
        reference = _outcome(lambda: [_eval(root, dict(point))])
        assert compiled == reference

    def test_unbound_variable_comes_before_a_domain_error(self):
        # The walk stopped at log(-1) before it reached y2.
        with pytest.raises(UnboundVariableError, match="'y2'"):
            parse("log(y1) + y2").evaluate({"y1": -1.0})
        with pytest.raises(UnboundVariableError, match="'y2'"):
            value_gradient(parse("log(y1)*y2"), ("y1",), {"y1": -1.0})

    def test_extra_bindings_are_not_converted(self):
        assert parse("2*y1").evaluate({"y1": 1.5, "label": "not a number"}) == 3.0

    def test_first_missing_variable_is_named(self):
        with pytest.raises(UnboundVariableError, match="'y1'"):
            parse("y1 + y2*y3").evaluate({})
        # Differentiation variables first, used or not, as before.
        with pytest.raises(UnboundVariableError, match="'y1'"):
            value_gradient(parse("y3*y2"), ("y1", "y2"), {})

    @pytest.mark.parametrize(
        "source, x, message",
        [
            ("1/y1", 0.0, "division by zero in '1.0/y1'"),
            ("sin(y1) + log(y1)", -1.0, "log: math domain error in 'log(y1)'"),
            ("y1^-2", 0.0, "negative power of zero in 'y1^(-2.0)'"),
            ("y1^0.5", -1.0, "non-integer exponent requires a positive base in 'y1^0.5'"),
            ("y1^2.5", 1e300, "exp: math range error in 'y1^2.5'"),
            ("exp(y1)^0.5", 1000.0, "exp: math range error in 'exp(y1)'"),
        ],
    )
    def test_domain_errors_name_the_failing_subtree(self, source, x, message):
        with pytest.raises(DomainError) as info:
            parse(source).evaluate({"y1": x})
        assert str(info.value) == message


class TestDepthCap:
    @pytest.mark.parametrize(
        "source",
        ["-" * 5000 + "1", "(" * 2000 + "y1" + ")" * 2000, "+".join(["y1"] * 3000)],
        ids=["unary-minus", "parentheses", "flat-sum"],
    )
    def test_too_deep_is_a_parse_error(self, source):
        with pytest.raises(ParseError) as info:
            parse(source)
        assert 0 <= info.value.offset < len(source)

    @pytest.mark.parametrize(
        "source",
        [
            "-" * (_MAX_DEPTH - 1) + "y1",
            "(" * (_MAX_DEPTH - 1) + "y1" + ")" * (_MAX_DEPTH - 1),
            "+".join(["y1"] * _MAX_DEPTH),
            # The deepest second derivatives per level of input.
            "^".join(["y1"] * _MAX_DEPTH),
        ],
        ids=["unary-minus", "parentheses", "flat-sum", "power-tower"],
    )
    def test_at_the_cap_gives_a_hessian(self, source):
        with pytest.raises(ParseError):
            parse("-" + source)  # one level more
        e = parse(source)
        point = {"y1": 1.0}
        result = value_gradient_hessian(e, ("y1",), point)
        assert _bits(result) == _bits(_evaluate_trees(e, ("y1",), point, hessian=True))
