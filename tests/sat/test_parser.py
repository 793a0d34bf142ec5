"""The constraint-language parser."""


import pytest

from repro.api import Engine, EngineConfig
from repro.fpir.nodes import BinOp, Call, Const, UnOp
from repro.mo.starts import uniform_sampler
from repro.sat import evaluate_formula
from repro.sat.parser import (
    ParseError,
    parse_expression,
    parse_formula,
    tokenize,
)


def _solve(formula, seed, n_starts, sampler):
    """Solve ``formula`` through the engine; the :class:`SatResult`."""
    config = EngineConfig(seed=seed, n_starts=n_starts, start_sampler=sampler)
    return Engine(config).run("sat", formula).detail


class TestLexer:
    def test_numbers(self):
        kinds = [(t.kind, t.text) for t in tokenize("1 2.5 .5 1e10 1.5e-3")]
        assert kinds[:-1] == [
            ("number", "1"), ("number", "2.5"), ("number", ".5"),
            ("number", "1e10"), ("number", "1.5e-3"),
        ]

    def test_hex_numbers(self):
        tokens = tokenize("0x3e500000")
        assert tokens[0].kind == "number"

    def test_operators(self):
        texts = [t.text for t in tokenize("<= >= == != && || < >")][:-1]
        assert texts == ["<=", ">=", "==", "!=", "&&", "||", "<", ">"]

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            tokenize("x @ 1")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"


class TestExpressionParsing:
    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, BinOp) and e.op == "fadd"
        assert isinstance(e.rhs, BinOp) and e.rhs.op == "fmul"

    def test_left_associativity(self):
        e = parse_expression("8 - 2 - 1")
        assert e.op == "fsub"
        assert isinstance(e.lhs, BinOp) and e.lhs.op == "fsub"

    def test_parentheses(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op == "fmul"
        assert isinstance(e.lhs, BinOp) and e.lhs.op == "fadd"

    def test_unary_minus(self):
        e = parse_expression("-x")
        assert isinstance(e, UnOp) and e.op == "fneg"

    def test_power_is_right_assoc_pow_call(self):
        e = parse_expression("x ^ 2 ^ 3")
        assert isinstance(e, Call) and e.func == "pow"
        assert isinstance(e.args[1], Call)  # 2^3 nested on the right

    def test_function_calls(self):
        e = parse_expression("sin(x) + pow(y, 2)")
        assert isinstance(e.lhs, Call) and e.lhs.func == "sin"
        assert isinstance(e.rhs, Call) and len(e.rhs.args) == 2

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("frobnicate(x)")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 3")

    def test_hex_constant_value(self):
        e = parse_expression("0x10")
        assert isinstance(e, Const) and e.value == 16.0


class TestFormulaParsing:
    def test_simple_conjunction(self):
        f = parse_formula("x < 1 && x + 1 >= 2")
        assert len(f.clauses) == 2
        assert f.variables == ["x"]

    def test_disjunction_single_clause(self):
        f = parse_formula("x == 3 || x == -3")
        assert len(f.clauses) == 1
        assert len(f.clauses[0]) == 2

    def test_cnf_distribution(self):
        # (a || b) && c stays 2 clauses; (a && b) || c distributes to
        # (a || c) && (b || c).
        f = parse_formula("(x < 0 && y < 0) || x > 9")
        assert len(f.clauses) == 2
        assert all(len(clause) == 2 for clause in f.clauses)

    def test_parenthesized_arithmetic_lhs(self):
        f = parse_formula("(x + 1) >= 2")
        assert len(f.clauses) == 1

    def test_nested_boolean_groups(self):
        f = parse_formula("((x < 1 || x > 2) && y == 0)")
        assert len(f.clauses) == 2

    def test_missing_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("x + 1")

    def test_semantics_match_python(self):
        f = parse_formula("x*x - 2*x + 0.75 <= 0 || x > 100")
        for x in (-1.0, 0.5, 1.5, 2.5, 150.0):
            want = (x * x - 2 * x + 0.75 <= 0) or x > 100
            assert evaluate_formula(f, [x]) == want


class TestEndToEnd:
    def test_parse_and_solve_fig1a(self):
        f = parse_formula("x < 1 && x + 1 >= 2")
        result = _solve(
            f, seed=5, n_starts=30,
            sampler=uniform_sampler(-10.0, 10.0),
        )
        assert result.is_sat
        assert result.model["x"] == 0.9999999999999999

    @pytest.mark.slow
    def test_parse_and_solve_with_transcendental(self):
        f = parse_formula("sin(x) == 0 && x >= 1 && x <= 4")
        result = _solve(
            f, seed=6, n_starts=20,
            sampler=uniform_sampler(0.0, 5.0),
        )
        # sin has no exact double zero near pi... but sin(x) == 0.0
        # *does* hold for doubles where the result rounds to zero?
        # Actually sin(pi_double) = 1.2e-16 != 0, so UNKNOWN is the
        # honest outcome; accept either but require soundness.
        if result.is_sat:
            assert evaluate_formula(f, [result.model["x"]])

    def test_parse_and_solve_multivar(self):
        f = parse_formula("a + b == 10 && a * b == 21 && a < b")
        result = _solve(
            f, seed=7, n_starts=40,
            sampler=uniform_sampler(-20.0, 20.0),
        )
        assert result.is_sat
        a, b = result.model["a"], result.model["b"]
        assert a + b == 10.0 and a * b == 21.0 and a < b
