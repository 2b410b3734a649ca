import itertools
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
    system_from_expressions,
)
from lscert import expr
from conftest import (
    central_difference_jacobian,
    generate_expression_cases,
    per_point_eval_dual,
    per_point_eval_values,
)


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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_residuals_equal_per_point_residuals_bitwise(seed):
    # each generated tree as a one-component system, at its own point and at
    # points around it; rows where the per-point walk fails are evaluated
    # alone and must fail with the same message
    rng = np.random.default_rng(seed)
    for node, names, x, lam in generate_expression_cases(8, seed=seed):
        sys_ = system_from_expressions(expr.to_source(node, *names), x.size, lam.size,
                                       components=1)
        xs = np.vstack([x, x + rng.uniform(-1.0, 1.0, size=(15, x.size))])
        ls = np.vstack([lam, lam + rng.uniform(-1.0, 1.0, size=(15, lam.size))])
        rows = []
        for xi, li in zip(xs, ls):
            try:
                with np.errstate(all="ignore"):  # the per-point reference warns on inf * 0
                    rows.append((xi, li, per_point_eval_values([node], xi, li, names)))
            except LscertError as exc:
                with pytest.raises(type(exc)) as err:
                    sys_.residuals(xi[None], li[None])
                assert str(err.value) == str(exc)
        if not rows:
            continue
        many = sys_.residuals(np.array([r[0] for r in rows]),
                              np.array([r[1] for r in rows]).reshape(len(rows), -1))
        for i, (_, _, one) in enumerate(rows):
            assert many[i].tobytes() == one.tobytes(), expr.to_source(node, *names)


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


def test_mapped_sech_powers_give_sech_powers_bits():
    # the mapped form calls math.pow(cosh(v), float(k)) where sech_power
    # takes cosh(v) ** k: the same libm pow on the same floats. Past about
    # 355 (k = 2) and 710 (k = 1) it raises, and PerElement replays the list
    # through sech_power, whose limit is 0.0
    rng = np.random.default_rng(44)
    edges = np.concatenate([e + rng.uniform(-0.6, 0.6, 300) for e in (355.3, 710.5)])
    values = np.concatenate([rng.standard_normal(2000) * 40.0, edges, -edges,
                             [0.0, -0.0, 1e5, -1e300, np.inf, -np.inf, np.nan]]).tolist()
    for k in (1, 2):
        def overflows(v):
            try:
                math.cosh(v) ** k
            except OverflowError:
                return True
            return False

        mapped, one = expr._sech_powers(k), (lambda v: expr.sech_power(v, k))
        fits = [v for v in values if not overflows(v)]
        assert 0 < len(fits) < len(values)
        assert mapped(fits).tobytes() == np.array([one(v) for v in fits]).tobytes()
        for v in values:
            if overflows(v):
                with pytest.raises(OverflowError):
                    mapped([v])
            else:
                assert mapped([v]).tobytes() == np.array([one(v)]).tobytes(), (k, v)
        replayed = expr.PerElement(one, mapped)(values)
        assert replayed.tobytes() == np.array([one(v) for v in values]).tobytes()


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


# --- compiled trees against the per-point reference ----------------------------


def _outcome(fn, *args, **kwargs):
    """fn's results as bytes, or the type and message of the LscertError it raises."""
    try:
        with np.errstate(all="ignore"):  # the per-point reference warns on inf * 0
            out = fn(*args, **kwargs)
    except LscertError as exc:
        return type(exc), str(exc)
    return tuple(np.asarray(o).tobytes() for o in (out if isinstance(out, tuple) else (out,)))


def _assert_matches_per_point_reference(node, names, X, Lam):
    """eval_values, eval_dual and eval_dual_many at each row and on the stack."""
    rows = []
    for x, lam in zip(X, Lam):
        source = f"{expr.to_source(node, *names)!r} at x={x}, lam={lam}"
        args = ([node], x, lam)
        assert _outcome(expr.eval_values, *args, names=names) == \
            _outcome(per_point_eval_values, *args, names=names), source
        want = _outcome(per_point_eval_dual, *args, names=names)
        assert _outcome(expr.eval_dual, *args, names=names) == want, source
        assert _outcome(expr.eval_dual_many, [node], x[None], lam[None], names=names) == want, source
        rows.append(want)
    stack = _outcome(expr.eval_dual_many, [node], X, Lam, names=names)
    failures = {row for row in rows if isinstance(row[0], type)}
    if failures:
        # node by node over the stack: some failing row's own error
        assert stack in failures, expr.to_source(node, *names)
    ok = np.array([row not in failures for row in rows])
    if ok.any():
        if failures:  # the rows that pass, stacked without the failing ones
            stack = _outcome(expr.eval_dual_many, [node], X[ok], Lam[ok], names=names)
        passing = [row for row, good in zip(rows, ok) if good]
        assert stack == tuple(b"".join(parts) for parts in zip(*passing)), expr.to_source(node, *names)
    return rows


def _node_kinds(node) -> set[str]:
    """The node kinds in a tree, with each operator, function and x^0 apart."""
    if isinstance(node, expr.Func):
        return {node.name}.union(*map(_node_kinds, node.args))
    if isinstance(node, expr.Binary):
        return {f"Binary{node.op}"} | _node_kinds(node.left) | _node_kinds(node.right)
    if isinstance(node, expr.Pow):
        return {"Pow0" if node.exponent == 0 else "Pow"} | _node_kinds(node.base)
    if isinstance(node, expr.Neg):
        return {"Neg"} | _node_kinds(node.arg)
    return {type(node).__name__}


def _stack_around(rng, x, lam, count=16):
    """The guarded point, then points around it with a quarter of coordinates at 0.0.

    The zeros and the wider spread reach domain edges, kinks and zero
    denominators, where the reference raises.
    """
    def rows(point):
        others = point + rng.uniform(-2.0, 2.0, size=(count - 1, point.size))
        others[rng.uniform(size=others.shape) < 0.25] = 0.0
        return np.vstack([point, others])

    return rows(x), rows(lam)


def _with_overflow(X, Lam):
    """The stack and one more row, its first times 1e200.

    A product of two coordinates overflows to inf there, and sin and cos of
    it fail.
    """
    return np.vstack([X, X[0] * 1e200]), np.vstack([Lam, Lam[0] * 1e200])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_trees_equal_the_per_point_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    for node, names, x, lam in generate_expression_cases(8, seed=seed):
        _assert_matches_per_point_reference(node, names, *_with_overflow(*_stack_around(rng, x, lam)))


def test_reference_comparison_covers_every_node_kind():
    # the 500 cases of the dual-vs-difference check
    rng = np.random.default_rng(0)
    kinds = set()
    for node, names, x, lam in generate_expression_cases(500):
        kinds |= _node_kinds(node)
        _assert_matches_per_point_reference(
            node, names, *_with_overflow(*_stack_around(rng, x, lam, count=4)))
    # and each one-argument function of an argument whose derivative is not a seed
    names = expr.default_names(2, 1)
    for name in expr.UNARY_FUNCTIONS:
        node = expr.parse_components(f"{name}(0.7*x1*l1 - x2/3 + 2)", 1, *names)[0]
        rows = _assert_matches_per_point_reference(node, names, *_with_overflow(*_stack_around(
            rng, np.array([0.3, -0.4]), np.array([0.8]))))
        if name in ("sin", "cos"):  # at the last point, x1*l1 is inf
            assert rows[-1] == (NonFinite, f"overflow evaluating '{expr.to_source(node, *names)}'")
    every = {"Const", "StateVar", "ParamVar", "Neg", "Pow", "Pow0",
             *(f"Binary{op}" for op in "+-*/"), *expr.UNARY_FUNCTIONS, *expr.BINARY_FUNCTIONS}
    assert kinds == every


# stacks in which some elements overflow or leave a domain: the mapped math
# calls raise there and the node is replayed element by element
_FALLBACK_CASES = (
    ("tanh(x1)", [0.3, 356.0, -400.0, 1.0, 2.5]),  # the slope's cosh(v)^2 overflows
    ("sech(x1)", [0.5, 800.0, -711.0, 2.0]),  # cosh(v) overflows
    ("sech(x1)^2 + tanh(0.5*x1)", [800.0, 1.0, 720.0]),
    ("log(x1)", [2.0, 0.5, 0.0, -1.0, 3.0]),
    ("x1 + log(x1)", [-3.0, 1.0, 0.0]),
    ("sqrt(x1)", [4.0, -0.5, 1.0, -2.0]),
    ("exp(x1)", [1.0, 800.0, 900.0]),
    ("x1^3", [2.0, 1e200, -1e150]),
)


@pytest.mark.parametrize("source,column", _FALLBACK_CASES)
def test_mapped_calls_fall_back_per_element_where_one_raises(source, column):
    names = expr.default_names(1, 0)
    asts = expr.parse(source, 1, 0)
    X, Lam = np.array(column)[:, None], np.empty((len(column), 0))
    for evaluate, reference in ((expr.compile_values(asts, names), per_point_eval_values),
                                (expr.compile_duals(asts, 1, 0, names), per_point_eval_dual)):
        rows = [_outcome(reference, asts, x, []) for x in X]
        failed = [row for row in rows if isinstance(row[0], type)]
        ok = [i for i, row in enumerate(rows) if not isinstance(row[0], type)]
        joined = tuple(b"".join(parts) for parts in zip(*(rows[i] for i in ok)))
        # the stack fails with its first failing element's own error, and the
        # elements that do not fail give the per-point bits
        assert _outcome(evaluate, X, Lam) == (failed[0] if failed else joined), source
        assert _outcome(evaluate, X[ok], Lam[ok]) == joined, source


def test_sin_and_cos_of_an_overflowed_argument_raise_nonfinite():
    # 1e300 * x1 * x1 overflows to inf silently; math.sin(inf) would raise ValueError
    for name in ("sin", "cos"):
        asts = expr.parse(f"{name}(1e300*x1*x1)", 1, 0)
        message = f"overflow evaluating '{name}(1e+300*x1*x1)'"
        for evaluate in (expr.eval_values, expr.eval_dual):
            with pytest.raises(NonFinite) as err:
                evaluate(asts, [1e10], [])
            assert str(err.value) == message


# --- the Jacobian-only walk of a DSL system against the per-point reference ------


def _subtrees(node):
    yield node
    if isinstance(node, expr.Func):
        children = node.args
    elif isinstance(node, expr.Binary):
        children = (node.left, node.right)
    elif isinstance(node, (expr.Neg, expr.Pow)):
        children = (node.arg if isinstance(node, expr.Neg) else node.base,)
    else:
        children = ()
    for child in children:
        yield from _subtrees(child)


def _slope_fails_too(node, names, x, lam, message) -> bool:
    """Whether the node that the reference's NonFinite names fails in its slope as well.

    The reference takes each value before its slope. exp's slope is its
    value, and sin and cos fail in value and slope alike (at an argument
    that has overflowed to inf), so only a power can fail in its value
    alone: where v^k overflows but the v^(k-1) of its slope k*v^(k-1) does
    not.
    The reference's last check, on values and derivatives together, names
    no node.
    """
    for sub in _subtrees(node):
        if message == f"overflow evaluating '{expr.to_source(sub, *names)}'":
            if not isinstance(sub, expr.Pow):
                return True
            v = float(per_point_eval_values([sub.base], x, lam, names=names)[0])
            try:
                v ** (sub.exponent - 1)
            except OverflowError:
                return True
            return False
    return False


def _assert_jacobian_walk_matches_reference(node, names, X, Lam):
    """system_from_expressions(...).jacobians at each row and on the stack; the row outcomes.

    Where the reference gives blocks, the walk gives the same bits; where it
    raises a DomainError, or a NonFinite that the node's slope raises too,
    the walk raises the same text. Where only a value the walk never takes
    fails, the walk goes on: it gives finite blocks, or fails later.
    """
    system = system_from_expressions(expr.to_source(node, *names), X.shape[1], Lam.shape[1],
                                     components=1)
    rows = []
    for x, lam in zip(X, Lam):
        source = f"{expr.to_source(node, *names)!r} at x={x}, lam={lam}"
        got = _outcome(system.jacobians, x[None], lam[None])
        want = _outcome(per_point_eval_dual, [node], x, lam, names=names)
        if not isinstance(want[0], type):
            assert got == want[1:], source
        elif want[0] is DomainError or _slope_fails_too(node, names, x, lam, want[1]):
            assert got == want, source
        elif want[1] == "expression evaluation produced a non-finite value or derivative":
            # the last check: the walk checks the blocks alone
            assert got == want or not isinstance(got[0], type), source
        # else a power's value alone overflowed, and the walk goes on
        rows.append(got)
    stack = _outcome(system.jacobians, X, Lam)
    failures = {row for row in rows if isinstance(row[0], type)}
    if failures:
        assert stack in failures, expr.to_source(node, *names)
    else:
        assert stack == tuple(b"".join(parts) for parts in zip(*rows)), expr.to_source(node, *names)
    return rows


def test_jacobian_walk_equals_the_per_point_reference_bitwise():
    rng = np.random.default_rng(1)
    kinds = set()
    for node, names, x, lam in generate_expression_cases(500):
        kinds |= _node_kinds(node)
        _assert_jacobian_walk_matches_reference(node, names, *_stack_around(rng, x, lam, count=4))
    names = expr.default_names(2, 1)
    for name in expr.UNARY_FUNCTIONS:
        node = expr.parse_components(f"{name}(0.7*x1*l1 - x2/3 + 2)", 1, *names)[0]
        _assert_jacobian_walk_matches_reference(node, names, *_stack_around(
            rng, np.array([0.3, -0.4]), np.array([0.8])))
    assert kinds == {"Const", "StateVar", "ParamVar", "Neg", "Pow", "Pow0",
                     *(f"Binary{op}" for op in "+-*/"), *expr.UNARY_FUNCTIONS,
                     *expr.BINARY_FUNCTIONS}


@pytest.mark.parametrize("source,column", _FALLBACK_CASES)
def test_jacobian_walk_fails_at_its_first_failing_element(source, column):
    names = expr.default_names(1, 0)
    node = expr.parse(source, 1, 0)[0]
    X, Lam = np.array(column)[:, None], np.empty((len(column), 0))
    rows = _assert_jacobian_walk_matches_reference(node, names, X, Lam)
    system = system_from_expressions(source, 1, 0)
    failed = [row for row in rows if isinstance(row[0], type)]
    ok = [i for i, row in enumerate(rows) if not isinstance(row[0], type)]
    joined = tuple(b"".join(parts) for parts in zip(*(rows[i] for i in ok)))
    assert _outcome(system.jacobians, X, Lam) == (failed[0] if failed else joined), source
    assert _outcome(system.jacobians, X[ok], Lam[ok]) == joined, source


def test_jacobians_skip_a_value_that_overflows_where_the_blocks_are_finite():
    # x1^3 overflows at x1 = 1e103, while its slope 3*x1^2 = 3e206 does not;
    # the Jacobian walk never takes the value, so only the residual raises
    system = system_from_expressions("x2 - x1^3", 2, 1, components=1)
    X, Lam = np.array([[1e103, 0.5]]), np.array([[1.0]])
    jx, jl = system.jacobians(X, Lam)
    assert jx.tobytes() == np.array([[[-(3 * 1e103 ** 2), 1.0]]]).tobytes()
    assert jl.tobytes() == np.zeros((1, 1, 1)).tobytes()
    with pytest.raises(NonFinite, match=r"^overflow evaluating 'x1\^3'$"):
        system.residuals(X, Lam)
    # the per-point reference takes the value first, and fails there
    node = expr.parse_components("x2 - x1^3", 1, *expr.default_names(2, 1))
    with pytest.raises(NonFinite, match=r"^overflow evaluating 'x1\^3'$"):
        per_point_eval_dual(node, X[0], Lam[0])


def test_sin_and_cos_slopes_of_an_overflowed_argument_raise_nonfinite():
    # the Jacobian walk takes no value of sin or cos, and their slopes name the node
    for name in ("sin", "cos"):
        system = system_from_expressions(f"{name}(1e300*x1*x1)", 1, 0)
        with pytest.raises(NonFinite) as err:
            system.jacobians(np.array([[1e10]]), np.empty((1, 0)))
        assert str(err.value) == f"overflow evaluating '{name}(1e+300*x1*x1)'"


# --- math once per distinct argument -------------------------------------------


# every combination of a few values of x1, x2 and l1, as the coordinates of
# a sampled-L lattice chunk, so every node argument repeats. 0.0 and -0.0 are
# distinct: tanh, sin and the slope of x^2 keep the sign of a zero.
_FEW = np.array(list(itertools.product([0.0, -0.0, 0.5, -1.25], [-0.0, 2.0, 0.0], [0.75, -0.0])))
_REPEATING_SYSTEM = ("tanh(l1*x2) - x1; sech(x1 + x2)*exp(l1*x1); "
                     "sqrt(x1^2 + 1) + x2^3*l1 - x1^2; "
                     "sin(x1*l1) + cos(x2) + log(x1^2 + 2) + abs(x1 - 3) + x2^0")
# one column each: an argument that overflows, repeated; tanh and sech take
# their limit 0 there, exp and x^3 fail with their own text
_REPEATED_OVERFLOWS = (
    ("tanh(x1)", [800.0, 0.5] * 4),
    ("sech(x1)", [-711.0, 2.0, -0.0] * 3),
    ("exp(x1)", [0.5, 800.0] * 4),
    ("x1^3", [-0.0, 1e200, 0.0] * 3),
)


@pytest.mark.parametrize("source,n,m,k,XL", (
    (_REPEATING_SYSTEM, 2, 1, 4, _FEW),
    *((source, 1, 0, 1, np.array(column)[:, None]) for source, column in _REPEATED_OVERFLOWS),
), ids=("system", *(source for source, _ in _REPEATED_OVERFLOWS)))
def test_math_once_per_distinct_argument_gives_the_per_point_bits(monkeypatch, source, n, m, k, XL):
    gathered, distinct = [], expr._distinct

    def recording(v):
        keys, back = distinct(v)
        gathered.append(back is not None)
        return keys, back

    monkeypatch.setattr(expr, "_distinct", recording)
    X, Lam = XL[:, :n], XL[:, n:]
    names = expr.default_names(n, m)
    asts = expr.parse_components(source, k, *names)
    rows = [_outcome(per_point_eval_dual, asts, x, lam, names=names) for x, lam in zip(X, Lam)]
    failed = [row for row in rows if isinstance(row[0], type)]
    want = failed[0] if failed else tuple(b"".join(parts) for parts in zip(*rows))
    blocks_only = expr.compile_duals(asts, n, m, names, with_values=False)
    for evaluate, skip in ((expr.compile_duals(asts, n, m, names), 0),
                           (lambda X, Lam: blocks_only(X, Lam)[1:], 1),
                           (system_from_expressions(source, n, m, components=k).jacobians, 1)):
        gathered.clear()
        assert _outcome(evaluate, X, Lam) == (want if failed else want[skip:]), source
        assert any(gathered), source  # some node ran its math on the distinct arguments only
