import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmp import expr, families
from qsmp.expr import (
    BinOp,
    Call,
    EvaluationError,
    ExpressionError,
    ListLit,
    Neg,
    Num,
    Var,
    differentiate,
    evaluate_expression,
    parse_expression,
    pretty_print,
)

DIMS = (2, 2, 2)


class TestParser:
    def test_constant_zero(self):
        assert parse_expression("0", DIMS) == Num(0.0)

    def test_quadratic_generator_shape(self):
        ast = parse_expression("0.5*(z1^2 + z2^2)", (1, 2, 1))
        z1 = np.array([1.0, 2.0])
        z2 = np.array([3.0, 0.0])
        values = evaluate_expression(ast, {"z1": z1, "z2": z2})
        assert np.allclose(values, 0.5 * (z1**2 + z2**2))

    def test_unbalanced_parenthesis_located(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x1*(", (2, 1, 1))
        assert err.value.column == 4
        assert err.value.line == 1

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x1 + foo", DIMS)
        assert "foo" in str(err.value)

    def test_out_of_range_variable(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x5", (2, 1, 1))
        assert "out of range" in str(err.value)

    def test_zero_index_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x0", DIMS)

    def test_power_right_associative(self):
        assert evaluate_expression(parse_expression("2^3^2", DIMS), {}) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert evaluate_expression(parse_expression("-2^2", DIMS), {}) == -4.0
        assert evaluate_expression(parse_expression("2^-2", DIMS), {}) == 0.25

    def test_left_associative_subtraction(self):
        assert evaluate_expression(parse_expression("2-3-4", DIMS), {}) == -5.0

    def test_precedence(self):
        assert evaluate_expression(parse_expression("2+3*4^2", DIMS), {}) == 50.0

    def test_function_arity_checked(self):
        with pytest.raises(ExpressionError):
            parse_expression("min(1)", DIMS)
        with pytest.raises(ExpressionError):
            parse_expression("exp(1, 2)", DIMS)

    def test_depth_limit(self):
        deep = "(" * 70 + "1" + ")" * 70
        with pytest.raises(ExpressionError) as err:
            parse_expression(deep, DIMS)
        assert "depth" in str(err.value)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 + 2 )", DIMS)

    def test_matrix_literal(self):
        ast = parse_expression("[[1, 2], [3, x1]]", DIMS)
        assert expr.list_shape(ast) == (2, 2)

    def test_vector_literal(self):
        ast = parse_expression("[u1, u2]", DIMS)
        assert expr.list_shape(ast) == (2,)

    def test_nested_lists_rejected_below_top_level(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 + [2, 3]", DIMS)

    @pytest.mark.parametrize(
        "source,column",
        [("([1, 2])", 2), ("[1, 2] + 3", 1), ("2*[1]", 3), ("[[1, 2], [3, [4]]]", 14), ("[[1]^2]", 2)],
    )
    def test_misplaced_list_located(self, source, column):
        with pytest.raises(ExpressionError) as err:
            parse_expression(source, DIMS)
        assert "only allowed at the top level" in str(err.value)
        assert (err.value.line, err.value.column) == (1, column)

    def test_multiline_location(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x1 +\n  2 $", DIMS)
        assert (err.value.line, err.value.column) == (2, 5)
        assert "'$'" in str(err.value)

    def test_ragged_matrix_rejected(self):
        ast = parse_expression("[[1, 2], [3]]", DIMS)
        with pytest.raises(ExpressionError):
            expr.list_shape(ast)


class TestEvaluation:
    def test_exp_zero(self):
        assert evaluate_expression(parse_expression("exp(0)", DIMS), {}) == 1.0

    def test_mixed_arithmetic(self):
        ast = parse_expression("x1 + 2*u1", DIMS)
        assert evaluate_expression(ast, {"x1": 3.0, "u1": 0.5}) == 4.0

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(parse_expression("1/x1", DIMS), {"x1": 0.0})

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(parse_expression("log(x1)", DIMS), {"x1": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(parse_expression("sqrt(x1)", DIMS), {"x1": -4.0})

    def test_nonfinite_power_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(parse_expression("x1^x2", DIMS), {"x1": -2.0, "x2": 0.5})

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(parse_expression("y + 1", DIMS), {})

    def test_minmax(self):
        assert evaluate_expression(parse_expression("min(2, 5)", DIMS), {}) == 2.0
        assert evaluate_expression(parse_expression("max(2, 5)", DIMS), {}) == 5.0

    def test_broadcasting(self):
        ast = parse_expression("tanh(x1)*u1", DIMS)
        x = np.linspace(-1, 1, 7)
        out = evaluate_expression(ast, {"x1": x, "u1": 2.0})
        assert np.allclose(out, np.tanh(x) * 2.0)


class TestDifferentiation:
    def _fd(self, ast, env, var, h=1e-6):
        up = dict(env)
        down = dict(env)
        up[var] = env[var] + h
        down[var] = env[var] - h
        return (evaluate_expression(ast, up) - evaluate_expression(ast, down)) / (2 * h)

    @pytest.mark.parametrize(
        "source",
        [
            "x1^3 + 2*x1*u1",
            "exp(x1*u1) - tanh(x1)",
            "sqrt(x1^2 + 1)",
            "log(x1^2 + 2)",
            "x1/(1 + u1^2)",
            "abs(x1)*x1",
            "min(x1, 2*u1) + max(x1, u1)",
        ],
    )
    def test_matches_finite_differences(self, source):
        ast = parse_expression(source, DIMS)
        rng = np.random.default_rng(hash(source) % 2**32)
        for _ in range(20):
            env = {"x1": float(rng.uniform(0.3, 2.0)), "u1": float(rng.uniform(0.3, 2.0))}
            for var in ("x1", "u1"):
                sym = evaluate_expression(differentiate(ast, var), env)
                fd = self._fd(ast, env, var)
                assert sym == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_general_power_rule(self):
        ast = parse_expression("x1^u1", DIMS)
        env = {"x1": 1.7, "u1": 2.3}
        for var in ("x1", "u1"):
            sym = evaluate_expression(differentiate(ast, var), env)
            assert sym == pytest.approx(self._fd(ast, env, var), rel=1e-6)

    def test_constant_derivative_is_zero(self):
        assert differentiate(parse_expression("3.5", DIMS), "x1") == Num(0.0)

    def test_list_derivative_elementwise(self):
        ast = parse_expression("[x1, x1^2]", DIMS)
        deriv = differentiate(ast, "x1")
        assert isinstance(deriv, ListLit)
        assert evaluate_expression(deriv.items[1], {"x1": 3.0}) == 6.0


# random AST generator for round-trip property testing
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.5).map(lambda v: Num(round(v, 2))),
    st.sampled_from(["t", "y", "x1", "x2", "z1", "u1"]).map(Var),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["exp", "tanh", "abs", "sqrt", "log"]), children).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


_ast_strategy = st.recursive(_leaf, _combine, max_leaves=20)


class TestPrettyPrint:
    @given(_ast_strategy)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, ast):
        rendered = pretty_print(ast)
        reparsed = parse_expression(rendered, DIMS)
        assert reparsed == ast

    def test_shipped_sources_round_trip(self):
        sources = [
            "0.5*(z1^2 + z2^2)",
            "tanh(x1)*u1 + x1^3",
            "-x1^2 + exp(-t)",
            "[u1, 0.5*tanh(x1)]",
            "[[1.0, 0.0], [x1, u2]]",
        ]
        for source in sources:
            ast = parse_expression(source, DIMS)
            assert parse_expression(pretty_print(ast), DIMS) == ast


class TestFuzz:
    def test_thousand_generated_strings_never_crash(self):
        # structured mutations around valid fragments plus raw noise: the
        # parser must always either produce a tree or a located error
        rng = np.random.default_rng(2024)
        fragments = [
            "x1", "u1", "z1", "t", "y", "1.5", "2", "(", ")", "+", "-", "*", "/", "^",
            "exp", "tanh", "min", "max", ",", "[", "]", ".", "e", "_foo", "x99", "00.1",
        ]
        outcomes = {"ok": 0, "error": 0}
        for _ in range(1000):
            length = int(rng.integers(1, 12))
            source = "".join(rng.choice(fragments) for _ in range(length))
            try:
                parse_expression(source, DIMS)
                outcomes["ok"] += 1
            except ExpressionError as err:
                assert err.line >= 1 and err.column >= 1
                outcomes["error"] += 1
        assert outcomes["ok"] + outcomes["error"] == 1000
        assert outcomes["error"] > 0  # the corpus does hit broken inputs


class TestDualImplementationCrossCheck:
    def test_inline_expressions_match_builtin_family(self):
        # the shipped inline config mirrors the built-in quadratic-generator
        # family; both evaluator stacks must agree to near machine precision
        from qsmp.config import build_expression_problem
        from qsmp.model import BoxDomain

        spec_native = families.build_exponential_utility()
        spec_expr = build_expression_problem(
            n=1, d=1, k=1, T=1.0, x0=[0.0],
            sources={"b": "[u1]", "sigma": "[[1.0]]", "f": "0.5*z1^2", "Phi": "tanh(x1)"},
            domain=BoxDomain((-1.0,), (1.0,)),
            constants=spec_native.constants,
        )
        rng = np.random.default_rng(7)
        m = 64
        x = rng.uniform(-2, 2, (m, 1))
        y = rng.uniform(-1, 1, m)
        z = rng.uniform(-2, 2, (m, 1))
        u = rng.uniform(-1, 1, (m, 1))
        for name in ("b", "sigma", "b_x", "b_u", "sigma_x", "sigma_u"):
            native = getattr(spec_native.coeffs, name)(0.3, x, u)
            inline = getattr(spec_expr.coeffs, name)(0.3, x, u)
            assert np.allclose(native, inline, atol=1e-12), name
        for name in ("f", "f_x", "f_y", "f_z", "f_u"):
            native = getattr(spec_native.coeffs, name)(0.3, x, y, z, u)
            inline = getattr(spec_expr.coeffs, name)(0.3, x, y, z, u)
            assert np.allclose(native, inline, atol=1e-12), name
        assert np.allclose(spec_native.coeffs.Phi(x), spec_expr.coeffs.Phi(x), atol=1e-12)
        assert np.allclose(spec_native.coeffs.Phi_x(x), spec_expr.coeffs.Phi_x(x), atol=1e-12)
