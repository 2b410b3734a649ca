"""Expression DSL for model components, with forward-mode differentiation.

Grammar (precedence low to high: + - | * / | unary - | ^):

    program   := expr (';' expr)* ';'?
    expr      := term (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | power
    power     := atom ('^' INTEGER)*
    atom      := NUMBER | variable | function '(' expr (',' expr)* ')' | '(' expr ')'

State variables are x1..xn and parameters l1..lm by default; callers may
supply other names (the analytic-override expressions use rpar/rperp or
rx/ry). Exponents are nonnegative integer literals only.

Evaluation comes in two flavours. `eval_dual` propagates first-order dual
numbers and returns the component values together with both Jacobian blocks
in one pass; it rejects abs/min/max within 1e-12 of their kinks because the
derivative is not defined there. `eval_dual_many` does the same for a stack
of points in one walk of each tree, equal to `eval_dual` row by row bit for
bit. `eval_values` is plain float evaluation and is kink-safe, which is what
the closed-form override hooks need.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DomainError, NonFinite, ParseError, UnknownIdentifier

KINK_TOL = 1e-12

UNARY_FUNCTIONS = ("tanh", "sech", "sin", "cos", "exp", "log", "sqrt", "abs")
BINARY_FUNCTIONS = ("min", "max")


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class StateVar:
    index: int  # 0-based


@dataclass(frozen=True)
class ParamVar:
    index: int  # 0-based


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple["Node", ...]


Node = Const | StateVar | ParamVar | Neg | Binary | Pow | Func


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^();,])"
    r"|(?P<ws>[ \t\r\n]+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | eof
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], state_names: tuple[str, ...], param_names: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.state_names = state_names
        self.param_names = param_names

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        raise ParseError(f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                         tok.line, tok.column, expected=(repr(text),))

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def parse_program(self) -> list[Node]:
        components = [self.parse_expr()]
        while self.at_op(";"):
            self.advance()
            if self.peek().kind == "eof":
                break  # trailing semicolon
            components.append(self.parse_expr())
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"found {tok.text!r}", tok.line, tok.column,
                             expected=("';'", "end of input", "operator"))
        return components

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.at_op("-"):
            self.advance()
            arg = self.parse_unary()
            if isinstance(arg, Const):
                return Const(-arg.value)  # fold so printing round-trips structurally
            return Neg(arg)
        return self.parse_power()

    def parse_power(self) -> Node:
        node = self.parse_atom()
        while self.at_op("^"):
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not tok.text.isdigit():
                raise ParseError("exponent must be a nonnegative integer literal",
                                 tok.line, tok.column, expected=("integer",))
            self.advance()
            node = Pow(node, int(tok.text))
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.at_op("("):
                return self.parse_call(tok)
            return self.parse_variable(tok)
        if self.at_op("("):
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                         tok.line, tok.column, expected=("number", "identifier", "'('"))

    def parse_call(self, name_tok: _Token) -> Node:
        name = name_tok.text
        if name in UNARY_FUNCTIONS:
            arity = 1
        elif name in BINARY_FUNCTIONS:
            arity = 2
        else:
            raise UnknownIdentifier(
                f"unknown function {name!r} at line {name_tok.line}, column {name_tok.column}; "
                f"known functions: {', '.join(UNARY_FUNCTIONS + BINARY_FUNCTIONS)}")
        self.expect_op("(")
        args = [self.parse_expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.parse_expr())
        self.expect_op(")")
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(args)}",
                             name_tok.line, name_tok.column)
        return Func(name, tuple(args))

    def parse_variable(self, tok: _Token) -> Node:
        name = tok.text
        if name in self.state_names:
            return StateVar(self.state_names.index(name))
        if name in self.param_names:
            return ParamVar(self.param_names.index(name))
        raise UnknownIdentifier(
            f"unknown identifier {name!r} at line {tok.line}, column {tok.column}; "
            f"states: {', '.join(self.state_names) or '(none)'}; "
            f"parameters: {', '.join(self.param_names) or '(none)'}")


def default_names(n: int, m: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(f"x{i + 1}" for i in range(n)), tuple(f"l{j + 1}" for j in range(m))


def parse_components(
    source: str,
    n_components: int,
    state_names: tuple[str, ...],
    param_names: tuple[str, ...] = (),
) -> list[Node]:
    """Parse a ';'-separated list with a fixed component count and given names."""
    asts = _Parser(_tokenize(source), state_names, param_names).parse_program()
    if len(asts) != n_components:
        raise ArityError(f"expression has {len(asts)} component(s), expected {n_components}")
    return asts


def parse(source: str, n: int, m: int) -> list[Node]:
    """Parse an n-component system over states x1..xn and parameters l1..lm."""
    state_names, param_names = default_names(n, m)
    return parse_components(source, n, state_names, param_names)


# --- printing --------------------------------------------------------------

_PREC_ATOM, _PREC_POW, _PREC_NEG, _PREC_MUL, _PREC_ADD = 5, 4, 3, 2, 1


def _prec(node: Node) -> int:
    if isinstance(node, (Const, StateVar, ParamVar, Func)):
        return _PREC_ATOM
    if isinstance(node, Pow):
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_MUL if node.op in "*/" else _PREC_ADD


def to_source(
    node: Node,
    state_names: tuple[str, ...] | None = None,
    param_names: tuple[str, ...] | None = None,
) -> str:
    """Render a node back to DSL source; reparsing gives an equal tree."""

    def name_of(v: Node) -> str:
        if isinstance(v, StateVar):
            return state_names[v.index] if state_names else f"x{v.index + 1}"
        assert isinstance(v, ParamVar)
        return param_names[v.index] if param_names else f"l{v.index + 1}"

    def wrap(child: Node, need: int, strict: bool = False) -> str:
        text = rec(child)
        p = _prec(child)
        if p < need or (strict and p == need):
            return f"({text})"
        # a negative literal under ^ would reparse as negation of the power
        if need == _PREC_POW and isinstance(child, Const) and child.value < 0:
            return f"({text})"
        return text

    def rec(nd: Node) -> str:
        if isinstance(nd, Const):
            return repr(nd.value)
        if isinstance(nd, (StateVar, ParamVar)):
            return name_of(nd)
        if isinstance(nd, Neg):
            return f"-{wrap(nd.arg, _PREC_NEG)}"
        if isinstance(nd, Pow):
            return f"{wrap(nd.base, _PREC_POW)}^{nd.exponent}"
        if isinstance(nd, Func):
            return f"{nd.name}({', '.join(rec(a) for a in nd.args)})"
        assert isinstance(nd, Binary)
        # the grammar is left-associative, so every right child at equal
        # precedence needs parentheses to reparse into the same tree
        if nd.op in "+-":
            return f"{wrap(nd.left, _PREC_ADD)} {nd.op} {wrap(nd.right, _PREC_ADD, strict=True)}"
        return f"{wrap(nd.left, _PREC_MUL)}{nd.op}{wrap(nd.right, _PREC_MUL, strict=True)}"

    return rec(node)


# --- dual-number evaluation ------------------------------------------------


def sech_power(v: float, k: int) -> float:
    """1 / cosh(v)**k, or its limit 0.0 where cosh(v)**k overflows.

    That happens for |v| above about 710 / k, where the true value is below
    the smallest normal float.
    """
    try:
        return 1.0 / math.cosh(v) ** k
    except OverflowError:
        return 0.0


class DualVector:
    """Value plus a dense vector of partials with respect to all inputs.

    The batched walker stores N points at once: (N,) values, (N, total) partials.
    """

    __slots__ = ("val", "der")

    def __init__(self, val: float, der: np.ndarray):
        self.val = val
        self.der = der


def _offending(node: Node, names) -> str:
    return to_source(node, *names)


def _eval(node: Node, xs, ls, dual: bool, names, total: int = 0) -> "DualVector | float":
    """Shared recursive walker; `xs`/`ls` hold DualVector or float leaves."""

    def ev(nd: Node):
        if isinstance(nd, Const):
            return DualVector(nd.value, np.zeros(total)) if dual else nd.value
        if isinstance(nd, StateVar):
            return xs[nd.index]
        if isinstance(nd, ParamVar):
            return ls[nd.index]
        if isinstance(nd, Neg):
            a = ev(nd.arg)
            return DualVector(-a.val, -a.der) if dual else -a
        if isinstance(nd, Pow):
            a = ev(nd.base)
            k = nd.exponent
            try:
                if not dual:
                    return a**k
                if k == 0:
                    return DualVector(1.0, np.zeros_like(a.der))
                return DualVector(a.val**k, (k * a.val ** (k - 1)) * a.der)
            except OverflowError as exc:
                raise NonFinite(f"overflow evaluating '{_offending(nd, names)}'") from exc
        if isinstance(nd, Binary):
            a, b = ev(nd.left), ev(nd.right)
            if not dual:
                if nd.op == "+":
                    return a + b
                if nd.op == "-":
                    return a - b
                if nd.op == "*":
                    return a * b
                if b == 0.0:
                    raise DomainError(f"division by zero in '{_offending(nd, names)}'")
                return a / b
            if nd.op == "+":
                return DualVector(a.val + b.val, a.der + b.der)
            if nd.op == "-":
                return DualVector(a.val - b.val, a.der - b.der)
            if nd.op == "*":
                return DualVector(a.val * b.val, a.der * b.val + a.val * b.der)
            if b.val == 0.0:
                raise DomainError(f"division by zero in '{_offending(nd, names)}'")
            q = a.val / b.val
            return DualVector(q, (a.der - q * b.der) / b.val)
        assert isinstance(nd, Func)
        if nd.name in BINARY_FUNCTIONS:
            a, b = ev(nd.args[0]), ev(nd.args[1])
            if not dual:
                return min(a, b) if nd.name == "min" else max(a, b)
            if abs(a.val - b.val) <= KINK_TOL:
                raise DomainError(
                    f"{nd.name} arguments tie within {KINK_TOL:g} in '{_offending(nd, names)}'; "
                    "derivative undefined at the kink")
            pick_a = (a.val < b.val) == (nd.name == "min")
            return a if pick_a else b
        a = ev(nd.args[0])
        v = a.val if dual else a
        try:
            if nd.name == "tanh":
                out = math.tanh(v)
                if dual:
                    return DualVector(out, a.der * sech_power(v, 2))
                return out
            if nd.name == "sech":
                out = sech_power(v, 1)
                if dual:
                    return DualVector(out, a.der * (-out * math.tanh(v)))
                return out
            if nd.name == "sin":
                return DualVector(math.sin(v), a.der * math.cos(v)) if dual else math.sin(v)
            if nd.name == "cos":
                return DualVector(math.cos(v), a.der * (-math.sin(v))) if dual else math.cos(v)
            if nd.name == "exp":
                out = math.exp(v)
                return DualVector(out, a.der * out) if dual else out
            if nd.name == "log":
                if v <= 0.0:
                    raise DomainError(f"log of non-positive value {v!r} in '{_offending(nd, names)}'")
                return DualVector(math.log(v), a.der / v) if dual else math.log(v)
            if nd.name == "sqrt":
                if v < 0.0 or (dual and v == 0.0):
                    raise DomainError(
                        f"sqrt of {'negative value' if v < 0 else 'zero (derivative singular)'} "
                        f"{v!r} in '{_offending(nd, names)}'")
                out = math.sqrt(v)
                return DualVector(out, a.der / (2.0 * out)) if dual else out
            assert nd.name == "abs"
            if dual and abs(v) <= KINK_TOL:
                raise DomainError(
                    f"abs argument within {KINK_TOL:g} of the kink in '{_offending(nd, names)}'; "
                    "derivative undefined there")
            return DualVector(abs(v), a.der * math.copysign(1.0, v)) if dual else abs(v)
        except OverflowError as exc:
            raise NonFinite(f"overflow evaluating '{_offending(nd, names)}'") from exc

    return ev(node)


def eval_dual(
    asts: list[Node],
    x: np.ndarray,
    lam: np.ndarray,
    n_state: int | None = None,
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate all components and both Jacobian blocks in one dual pass.

    Returns (values, d_values/d_x, d_values/d_lambda) with shapes
    (k,), (k, n), (k, m) for k components.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    n = x.size if n_state is None else n_state
    m = lam.size
    if names is None:
        names = default_names(n, m)
    total = n + m
    xs = [DualVector(float(x[i]), _seed(total, i)) for i in range(n)]
    ls = [DualVector(float(lam[j]), _seed(total, n + j)) for j in range(m)]
    vals = np.empty(len(asts))
    jac = np.empty((len(asts), total))
    for row, ast in enumerate(asts):
        out = _eval(ast, xs, ls, dual=True, names=names, total=total)
        vals[row] = out.val
        jac[row] = out.der
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(jac))):
        raise NonFinite("expression evaluation produced a non-finite value or derivative")
    return vals, jac[:, :n], jac[:, n:]


def _each(fn, values: np.ndarray) -> np.ndarray:
    """fn over the elements as Python floats, so each result is eval_dual's own."""
    return np.array([fn(v) for v in values.tolist()], dtype=float)


def _eval_many(node: Node, xs, ls, names, count: int, total: int) -> DualVector:
    """eval_dual's walker over `count` points at once: val (count,), der (count, total).

    Array arithmetic is used only where it is exact IEEE arithmetic (+ - * /,
    sqrt, abs, copysign, selection), so it rounds as the per-point floats do;
    transcendentals and powers go through _each, because numpy's vectorised
    tanh/cosh/exp/log/power round differently from the math module.
    """

    def ev(nd: Node) -> DualVector:
        if isinstance(nd, Const):
            return DualVector(np.full(count, nd.value), np.zeros((count, total)))
        if isinstance(nd, StateVar):
            return xs[nd.index]
        if isinstance(nd, ParamVar):
            return ls[nd.index]
        if isinstance(nd, Neg):
            a = ev(nd.arg)
            return DualVector(-a.val, -a.der)
        if isinstance(nd, Pow):
            a = ev(nd.base)
            k = nd.exponent
            if k == 0:
                return DualVector(np.ones(count), np.zeros_like(a.der))
            try:
                val = _each(lambda v: v**k, a.val)
                slope = _each(lambda v: k * v ** (k - 1), a.val)
            except OverflowError as exc:
                raise NonFinite(f"overflow evaluating '{_offending(nd, names)}'") from exc
            return DualVector(val, slope[:, None] * a.der)
        if isinstance(nd, Binary):
            a, b = ev(nd.left), ev(nd.right)
            if nd.op == "+":
                return DualVector(a.val + b.val, a.der + b.der)
            if nd.op == "-":
                return DualVector(a.val - b.val, a.der - b.der)
            if nd.op == "*":
                return DualVector(a.val * b.val, a.der * b.val[:, None] + a.val[:, None] * b.der)
            if np.any(b.val == 0.0):
                raise DomainError(f"division by zero in '{_offending(nd, names)}'")
            q = a.val / b.val
            return DualVector(q, (a.der - q[:, None] * b.der) / b.val[:, None])
        assert isinstance(nd, Func)
        if nd.name in BINARY_FUNCTIONS:
            a, b = ev(nd.args[0]), ev(nd.args[1])
            if np.any(np.abs(a.val - b.val) <= KINK_TOL):
                raise DomainError(
                    f"{nd.name} arguments tie within {KINK_TOL:g} in '{_offending(nd, names)}'; "
                    "derivative undefined at the kink")
            pick_a = (a.val < b.val) == (nd.name == "min")
            return DualVector(np.where(pick_a, a.val, b.val), np.where(pick_a[:, None], a.der, b.der))
        a = ev(nd.args[0])
        v = a.val
        try:
            if nd.name == "tanh":
                return DualVector(_each(math.tanh, v), a.der * _each(lambda t: sech_power(t, 2), v)[:, None])
            if nd.name == "sech":
                out = _each(lambda t: sech_power(t, 1), v)
                slope = np.array([-o * math.tanh(t) for o, t in zip(out.tolist(), v.tolist())])
                return DualVector(out, a.der * slope[:, None])
            if nd.name == "sin":
                return DualVector(_each(math.sin, v), a.der * _each(math.cos, v)[:, None])
            if nd.name == "cos":
                return DualVector(_each(math.cos, v), a.der * _each(lambda t: -math.sin(t), v)[:, None])
            if nd.name == "exp":
                out = _each(math.exp, v)
                return DualVector(out, a.der * out[:, None])
            if nd.name == "log":
                if np.any(v <= 0.0):
                    raise DomainError(f"log of non-positive value {v[v <= 0.0][0].item()!r} "
                                      f"in '{_offending(nd, names)}'")
                return DualVector(_each(math.log, v), a.der / v[:, None])
            if nd.name == "sqrt":
                if np.any(v <= 0.0):
                    bad = v[v <= 0.0][0].item()
                    raise DomainError(
                        f"sqrt of {'negative value' if bad < 0 else 'zero (derivative singular)'} "
                        f"{bad!r} in '{_offending(nd, names)}'")
                out = np.sqrt(v)
                return DualVector(out, a.der / (2.0 * out)[:, None])
            assert nd.name == "abs"
            if np.any(np.abs(v) <= KINK_TOL):
                raise DomainError(
                    f"abs argument within {KINK_TOL:g} of the kink in '{_offending(nd, names)}'; "
                    "derivative undefined there")
            return DualVector(np.abs(v), a.der * np.copysign(1.0, v)[:, None])
        except OverflowError as exc:
            raise NonFinite(f"overflow evaluating '{_offending(nd, names)}'") from exc

    return ev(node)


def eval_dual_many(
    asts: list[Node],
    X: np.ndarray,
    Lam: np.ndarray,
    n_state: int | None = None,
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eval_dual at each row of X (N, n) and Lam (N, m), in one walk of each tree.

    Returns (values, d_values/d_x, d_values/d_lambda) with shapes (N, k),
    (N, k, n), (N, k, m); row i equals eval_dual(asts, X[i], Lam[i]) bit for
    bit. Errors carry eval_dual's messages, but when several points fail,
    the one reported need not be the first failing point in row order: the
    walk goes node by node over all points, not point by point.
    """
    X = np.asarray(X, dtype=float)
    Lam = np.asarray(Lam, dtype=float)
    count = X.shape[0]
    n = X.shape[1] if n_state is None else n_state
    m = Lam.shape[1]
    if names is None:
        names = default_names(n, m)
    total = n + m
    seeds = np.eye(total)
    xs = [DualVector(X[:, i].copy(), np.repeat(seeds[i:i + 1], count, axis=0)) for i in range(n)]
    ls = [DualVector(Lam[:, j].copy(), np.repeat(seeds[n + j:n + j + 1], count, axis=0))
          for j in range(m)]
    vals = np.empty((count, len(asts)))
    jac = np.empty((count, len(asts), total))
    # overflow and NaN propagate as in eval_dual and are caught by the check below
    with np.errstate(all="ignore"):
        for row, ast in enumerate(asts):
            out = _eval_many(ast, xs, ls, names, count, total)
            vals[:, row] = out.val
            jac[:, row] = out.der
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(jac))):
        raise NonFinite("expression evaluation produced a non-finite value or derivative")
    return vals, jac[:, :, :n], jac[:, :, n:]


def _seed(total: int, hot: int) -> np.ndarray:
    der = np.zeros(total)
    der[hot] = 1.0
    return der


def eval_values(
    asts: list[Node],
    x: np.ndarray,
    lam: np.ndarray = (),
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> np.ndarray:
    """Plain float evaluation of all components (no derivatives, kink-safe)."""
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    if names is None:
        names = default_names(x.size, lam.size)
    xs = [float(v) for v in x]
    ls = [float(v) for v in lam]
    vals = np.array([_eval(ast, xs, ls, dual=False, names=names) for ast in asts], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("expression evaluation produced a non-finite value")
    return vals
