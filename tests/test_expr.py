import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscert import (
    ArityError,
    DomainError,
    LscertError,
    NonFinite,
    ParseError,
    UnknownIdentifier,
)
from lscert import expr
from conftest import central_difference_jacobian, generate_expression_cases


# --- parsing and printing ----------------------------------------------------


def test_precedence_and_associativity_pinned():
    cases = {
        "2 - 3 - 4": -5.0,
        "2 * 3 ^ 2": 18.0,
        "-2 ^ 2": -4.0,
        "(1 + 2) * 3": 9.0,
        "12 / 3 / 2": 2.0,
        "2 - -3": 5.0,
        "min(1, 2) + max(3, 4)": 5.0,
    }
    for source, value in cases.items():
        result = expr.eval_values(expr.parse_components(source, 1, (), ()), [], [])[0]
        assert result == value, f"{source!r} -> {result}, expected {value}"


def test_print_then_reparse_is_identity_on_generated_trees():
    for node, names, _, _ in generate_expression_cases(150, seed=7):
        printed = expr.to_source(node, *names)
        reparsed = expr.parse_components(printed, 1, *names)[0]
        assert reparsed == node, f"round-trip changed {printed!r}"


def test_semicolon_program_with_trailing_separator():
    asts = expr.parse("x1 + l1; x2 * 2;", 2, 1)
    assert len(asts) == 2


def test_component_count_mismatch():
    with pytest.raises(ArityError):
        expr.parse("x1; x2; x1", 2, 0)


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        expr.parse("x1 +\n* x2", 2, 0)
    assert err.value.line == 2
    assert err.value.column == 1
    assert "line 2, column 1" in str(err.value)


def test_parse_error_lists_expected_tokens():
    with pytest.raises(ParseError) as err:
        expr.parse("(x1", 1, 0)
    assert "expected one of" in str(err.value)
    assert err.value.expected


def test_unknown_identifier_names_known_variables():
    with pytest.raises(UnknownIdentifier) as err:
        expr.parse("x3", 2, 1)
    msg = str(err.value)
    assert "x3" in msg and "x1" in msg and "l1" in msg


def test_unknown_function_is_rejected():
    with pytest.raises(UnknownIdentifier) as err:
        expr.parse("foo(x1)", 1, 0)
    assert "tanh" in str(err.value)


def test_exponent_must_be_nonnegative_integer_literal():
    with pytest.raises(ParseError):
        expr.parse("x1 ^ 2.5", 1, 0)
    with pytest.raises(ParseError):
        expr.parse("x1 ^ x1", 1, 0)
    with pytest.raises(ParseError):
        expr.parse("x1 ^ -2", 1, 0)


def test_function_arity_is_checked():
    with pytest.raises(ParseError):
        expr.parse("tanh(x1, x1)", 1, 0)
    with pytest.raises(ParseError):
        expr.parse("min(x1)", 1, 0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_constant_round_trip_through_printer(value):
    node = expr.Const(value)
    printed = expr.to_source(node)
    assert expr.parse_components(printed, 1, (), ())[0] == node


# --- evaluation --------------------------------------------------------------


def test_dual_vs_central_difference_on_500_cases():
    cases = generate_expression_cases(500)
    for node, names, x, lam in cases:
        _, jx, jl = expr.eval_dual([node], x, lam, names=names)
        fd_x, fd_l = central_difference_jacobian(node, names, x, lam)
        for got, want in ((jx[0], fd_x), (jl[0], fd_l)):
            scale = np.maximum(1.0, np.abs(want))
            worst = np.max(np.abs(got - want) / scale, initial=0.0)
            assert worst <= 1e-6, (
                f"derivative mismatch {worst:.2e} for "
                f"{expr.to_source(node, *names)!r} at x={x}, lam={lam}")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_duals_equal_per_point_duals_bitwise(seed):
    # each generated tree at its own point and at points around it; rows where
    # eval_dual fails are evaluated alone and must fail with the same message
    rng = np.random.default_rng(seed)
    for node, names, x, lam in generate_expression_cases(8, seed=seed):
        xs = np.vstack([x, x + rng.uniform(-1.0, 1.0, size=(15, x.size))])
        ls = np.vstack([lam, lam + rng.uniform(-1.0, 1.0, size=(15, lam.size))])
        rows = []
        for xi, li in zip(xs, ls):
            try:
                rows.append((xi, li, expr.eval_dual([node], xi, li, names=names)))
            except LscertError as exc:
                with pytest.raises(type(exc)) as err:
                    expr.eval_dual_many([node], xi[None], li[None], names=names)
                assert str(err.value) == str(exc)
        if not rows:
            continue
        many = expr.eval_dual_many([node], np.array([r[0] for r in rows]),
                                   np.array([r[1] for r in rows]).reshape(len(rows), -1),
                                   names=names)
        for i, (_, _, one) in enumerate(rows):
            for got, want in zip(many, one):
                assert got[i].tobytes() == want.tobytes(), expr.to_source(node, *names)


def test_division_by_zero_reports_offending_subexpression():
    asts = expr.parse_components("x1 / (x2 - x2)", 1, ("x1", "x2"), ())
    with pytest.raises(DomainError) as err:
        expr.eval_values(asts, [1.0, 2.0], [])
    assert "x2 - x2" in str(err.value)


def test_log_and_sqrt_domain_errors():
    with pytest.raises(DomainError):
        expr.eval_values(expr.parse("log(x1)", 1, 0), [-1.0], [])
    with pytest.raises(DomainError):
        expr.eval_values(expr.parse("sqrt(x1)", 1, 0), [-0.5], [])
    # sqrt(0) has a value but no derivative
    assert expr.eval_values(expr.parse("sqrt(x1)", 1, 0), [0.0], [])[0] == 0.0
    with pytest.raises(DomainError):
        expr.eval_dual(expr.parse("sqrt(x1)", 1, 0), [0.0], [])


def test_kinks_reject_derivatives_but_not_values():
    abs_ast = expr.parse("abs(x1)", 1, 0)
    assert expr.eval_values(abs_ast, [0.0], [])[0] == 0.0
    with pytest.raises(DomainError):
        expr.eval_dual(abs_ast, [0.0], [])
    tie = expr.parse_components("min(x1, x2)", 1, ("x1", "x2"), ())
    assert expr.eval_values(tie, [1.0, 1.0], [])[0] == 1.0
    with pytest.raises(DomainError):
        expr.eval_dual(tie, [1.0, 1.0], [])
    # clear of the kink both modes agree with the chosen branch
    vals, jx, _ = expr.eval_dual(tie, [1.0, 2.0], [])
    assert vals[0] == 1.0 and jx[0, 0] == 1.0 and jx[0, 1] == 0.0


def test_overflow_raises_nonfinite():
    with pytest.raises(NonFinite):
        expr.eval_values(expr.parse("exp(x1)", 1, 0), [1000.0], [])
    with pytest.raises(NonFinite):
        expr.eval_dual(expr.parse("x1 ^ 9", 1, 0), [1e200], [])


def test_sech_powers_underflow_to_zero_instead_of_overflowing():
    # cosh(v)^2 overflows past |v| ~ 355 and cosh(v) past ~ 710; the true
    # values there are below the smallest normal float
    tanh = expr.parse("tanh(x1)", 1, 0)
    assert expr.eval_dual(tanh, [400.0], [])[1][0, 0] == 0.0
    assert expr.eval_dual(tanh, [354.0], [])[1][0, 0] == 1.0 / math.cosh(354.0) ** 2
    sech = expr.parse("sech(x1)", 1, 0)
    assert expr.eval_values(sech, [800.0], [])[0] == 0.0
    values, d_x, _ = expr.eval_dual(sech, [800.0], [])
    assert values[0] == 0.0 and d_x[0, 0] == 0.0


def test_custom_variable_names_for_radius_overrides():
    asts = expr.parse_components("1 - min(0, 1 - rpar)", 1, (), ("rpar", "rperp"))
    names = ((), ("rpar", "rperp"))
    val = expr.eval_values(asts, (), (1.5, 0.3), names=names)[0]
    assert val == 1.5
    # kink-safe value evaluation at the tie point rpar = 1
    assert expr.eval_values(asts, (), (1.0, 0.0), names=names)[0] == 1.0


def test_constant_only_program_evaluates_without_variables():
    vals, jx, jl = expr.eval_dual(expr.parse_components("3 + 4 * 2", 1, (), ()), [], [])
    assert vals[0] == 11.0
    assert jx.shape == (1, 0) and jl.shape == (1, 0)
