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

Each component list is compiled once into closures over stacks of points
by one walker, `compile_tree`: it dispatches on the node kind and asks an
arithmetic table for each node's closure, built from its children's; what a
node computes, and where it raises or flags, is the table's own.
`compile_values` walks with the float table (`_Floats`): plain evaluation,
which is kink-safe, as the residuals and the closed-form override hooks
need. `compile_duals` walks with the dual table (`_Duals`): first-order dual
numbers, the component values together with both Jacobian blocks in one
pass; it rejects abs/min/max within 1e-12 of their kinks because the
derivative is not defined there. The interval module's table encloses both
Jacobian blocks over boxes (`interval.compile_boxes`); a DSL system compiles
it on first use (`system_from_expressions`), so building a model does not
load it.

Each row of the float and dual walks is bit for bit what a per-point walk
over Python floats gives: + - * / run vectorised, and powers and
one-argument functions make the per-point walk's own `math` call on each
element, mapped over the stack from C (PerElement). The dual table makes a
node's calls once per distinct bit pattern of its argument where at most
half of the elements are distinct, as in a sampled-L lattice chunk, whose
coordinates repeat, and gathers the results back (_distinct). That changes
no bit and no error: the checks that name an element (log, sqrt, abs) run
on the whole argument first, and a failing math call's NonFinite names only
its node. The float table maps every element. `eval_values`, `eval_dual`
(one point, row 0 of a one-point stack) and `eval_dual_many` compile and
evaluate in one call.

The dual and interval walks are demand-driven. `compile_duals` demands the
values at the roots; the Jacobian of a DSL system
(`system_from_expressions`) and `compile_boxes` demand none, and a node
then takes its value only where a derivative reads it. The walker passes
the demand down through + - and negation, and has every other node read
its operands' values; of the one-argument nodes, sqrt, sech and exp take
their own value, which their slopes use. In the dual table a skipped value
skips no check: log and sqrt check their domains, abs/min/max their kinks
and / its denominator, and each slope raises NonFinite naming its node
where its math call fails, as a value does, at the first failing element.
So the Jacobian walk gives the bits and the error text of the full walk,
except where a value alone fails: at x1 = 1e103, x2 - x1^3 has finite
Jacobian blocks but a value that overflows, and there the Jacobians are
returned while the residual still raises NonFinite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

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


# --- compiled evaluation ---------------------------------------------------


def sech_power(v: float, k: int) -> float:
    """1 / cosh(v)**k, or its limit 0.0 where cosh(v)**k overflows.

    That happens for |v| above about 710 / k, where the true value is below
    the smallest normal float.
    """
    try:
        return 1.0 / math.cosh(v) ** k
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class PerElement:
    """A float function taken at each element of a list, as per-point code takes it.

    `one` is the per-element function on a Python float. `mapped` makes the
    same math calls on the same floats over the list, from C (map into
    np.fromiter), so its results are one's bit for bit wherever none of
    those calls raises. Where one raises OverflowError or ValueError, the
    elements are replayed through `one`, which applies the limits, checks
    and error texts and raises at the first failing element. numpy's own
    tanh/cosh/exp/log/power ufuncs round differently and are never used.
    A caller converts an array to a list once and hands that list to every
    function it takes there. The dual walk may hand it a node's distinct
    arguments only; the same call on the same bits gives the same bits.
    """

    one: Callable[[float], float]
    mapped: Callable[[list], np.ndarray]

    def __call__(self, lst: list) -> np.ndarray:
        try:
            return self.mapped(lst)
        except (OverflowError, ValueError):
            return np.array([self.one(v) for v in lst], dtype=float)


def _mapped(f, *consts):
    """f(v, *consts) over a list of floats, each call made from C."""
    return lambda lst: np.fromiter(map(f, lst, *map(repeat, consts)), float, len(lst))


def _sech_powers(k: int):
    """sech_power(., k) over a list: the same cosh and libm pow calls; raises where they overflow.

    float ** int calls pow(c, float(k)) as math.pow does, and both raise
    OverflowError where it overflows; math.pow skips the int-to-float
    coercion of each call. (x^k nodes keep the builtin pow: at 0 with a
    negative exponent math.pow raises ValueError, not ZeroDivisionError.)
    """
    return lambda lst: 1.0 / np.fromiter(map(math.pow, map(math.cosh, lst), repeat(float(k))),
                                         float, len(lst))


_tanh, _sin, _sech = _mapped(math.tanh), _mapped(math.sin), _sech_powers(1)

# smooth one-argument functions: value and slope per element, through math;
# the slopes of sech and exp are taken from the node's own value instead
SMOOTH = {
    "tanh": (PerElement(math.tanh, _tanh), PerElement(lambda v: sech_power(v, 2), _sech_powers(2))),
    "sech": (PerElement(lambda v: sech_power(v, 1), _sech), None),
    "sin": (PerElement(math.sin, _sin), PerElement(math.cos, _mapped(math.cos))),
    "cos": (PerElement(math.cos, _mapped(math.cos)),
            PerElement(lambda v: -math.sin(v), lambda lst: -_sin(lst))),
    "exp": (PerElement(math.exp, _mapped(math.exp)), None),
}


def _domain_error(node: Node, names, head: str, tail: str = "") -> DomainError:
    return DomainError(f"{head} in '{to_source(node, *names)}'{tail}")


def _checked(nd: Pow | Func, names, fn: PerElement) -> PerElement:
    """fn with math's range errors raised as NonFinite naming the node.

    That is OverflowError past the float range, and ValueError for sin/cos
    of an argument that has already overflowed to inf, raised at the first
    failing element. Values and slopes both go through here, so a walk that
    skips a value fails with the same text where the slope fails.
    """
    def one(v: float) -> float:
        try:
            return fn.one(v)
        except (OverflowError, ValueError) as exc:
            raise NonFinite(f"overflow evaluating '{to_source(nd, *names)}'") from exc
    return PerElement(one, fn.mapped)


def _value_fn(nd: Pow | Func, names) -> PerElement:
    """The float function of a Pow or a one-argument Func, checked (_checked).

    It also checks the log and sqrt domains.
    """
    if isinstance(nd, Pow):
        k = nd.exponent
        fn = PerElement(lambda v: v**k, _mapped(pow, k))
    elif nd.name in SMOOTH:
        fn = SMOOTH[nd.name][0]
    elif nd.name == "abs":
        fn = PerElement(abs, _mapped(abs))
    elif nd.name == "log":
        def raw(v: float) -> float:
            if v <= 0.0:
                raise _domain_error(nd, names, f"log of non-positive value {v!r}")
            return math.log(v)
        # the mapped log raises ValueError exactly where raw checks
        fn = PerElement(raw, _mapped(math.log))
    else:
        def raw(v: float) -> float:
            if v < 0.0:
                raise _domain_error(nd, names, f"sqrt of negative value {v!r}")
            return math.sqrt(v)
        fn = PerElement(raw, _mapped(math.sqrt))
    return _checked(nd, names, fn)


def _variable(nd: StateVar | ParamVar):
    i = nd.index
    if isinstance(nd, StateVar):
        return lambda xs, ls: xs[i]
    return lambda xs, ls: ls[i]


def compile_tree(nd: Node, table, demand: bool = True):
    """`nd` as the closure that the arithmetic `table` builds from its children's closures.

    The table gives const(value), variable(node) and neg(f, demand); add
    (for + and -), mul, div and select (min, max) as (node, f, g, demand);
    and call (a power or a one-argument function) as (node, f, demand).
    `demand` says whether the caller reads the node's value.
    """
    if isinstance(nd, Const):
        return table.const(nd.value)
    if isinstance(nd, (StateVar, ParamVar)):
        return table.variable(nd)
    if isinstance(nd, Neg):
        return table.neg(compile_tree(nd.arg, table, demand), demand)
    if isinstance(nd, Binary):
        build = table.add if nd.op in "+-" else table.mul if nd.op == "*" else table.div
        inner = demand or nd.op in "*/"
        return build(nd, compile_tree(nd.left, table, inner), compile_tree(nd.right, table, inner),
                     demand)
    if isinstance(nd, Pow):
        return table.call(nd, compile_tree(nd.base, table), demand)
    args = [compile_tree(arg, table) for arg in nd.args]
    return (table.select if nd.name in BINARY_FUNCTIONS else table.call)(nd, *args, demand)


class _Floats:
    """The float table: closures f(xs, ls) over lists of (N,) arrays, one per variable; kink-safe."""

    def __init__(self, names):
        self.names = names

    def const(self, value):
        return lambda xs, ls: value

    variable = staticmethod(_variable)

    def neg(self, fa, demand):
        return lambda xs, ls: -fa(xs, ls)

    def add(self, nd, fa, fb, demand):
        if nd.op == "+":
            return lambda xs, ls: fa(xs, ls) + fb(xs, ls)
        return lambda xs, ls: fa(xs, ls) - fb(xs, ls)

    def mul(self, nd, fa, fb, demand):
        return lambda xs, ls: fa(xs, ls) * fb(xs, ls)

    def div(self, nd, fa, fb, demand):
        def divide(xs, ls):
            a, b = fa(xs, ls), fb(xs, ls)
            if np.any(b == 0.0):
                raise _domain_error(nd, self.names, "division by zero")
            return a / b
        return divide

    def select(self, nd, fa, fb, demand):
        # min(a, b) is b only where b < a, max(a, b) only where b > a
        beats = np.less if nd.name == "min" else np.greater

        def select(xs, ls):
            a, b = fa(xs, ls), fb(xs, ls)
            return np.where(beats(b, a), b, a)
        return select

    def call(self, nd, fa, demand):
        value = _value_fn(nd, self.names)
        return lambda xs, ls: value(np.atleast_1d(fa(xs, ls)).tolist())


class _Duals:
    """The dual table: closures f(xs, ls) over lists of (value, derivative) pairs.

    A pair holds N points: values (N,) and derivatives (N, n+m); constants
    and seeds hold (1,) and (1, n+m) arrays that broadcast. A value that is
    not demanded may be None (see the module docstring).
    """

    def __init__(self, names, zero):
        self.names, self.zero = names, zero

    def const(self, value):
        pair = (np.array([value]), self.zero)
        return lambda xs, ls: pair

    variable = staticmethod(_variable)

    def neg(self, fa, demand):
        def negate(xs, ls):
            v, d = fa(xs, ls)
            return (-v if demand else None), -d
        return negate

    def add(self, nd, fa, fb, demand):
        op = np.add if nd.op == "+" else np.subtract

        def add(xs, ls):
            (av, ad), (bv, bd) = fa(xs, ls), fb(xs, ls)
            return (op(av, bv) if demand else None), op(ad, bd)
        return add

    def mul(self, nd, fa, fb, demand):
        def multiply(xs, ls):
            (av, ad), (bv, bd) = fa(xs, ls), fb(xs, ls)
            return (av * bv if demand else None), ad * bv[:, None] + av[:, None] * bd
        return multiply

    def div(self, nd, fa, fb, demand):
        def divide(xs, ls):
            (av, ad), (bv, bd) = fa(xs, ls), fb(xs, ls)
            if (bv == 0.0).any():
                raise _domain_error(nd, self.names, "division by zero")
            q = av / bv
            return q, (ad - q[:, None] * bd) / bv[:, None]
        return divide

    def select(self, nd, fa, fb, demand):
        want_less = nd.name == "min"

        def select(xs, ls):
            (av, ad), (bv, bd) = fa(xs, ls), fb(xs, ls)
            if (np.abs(av - bv) <= KINK_TOL).any():
                raise _domain_error(nd, self.names, f"{nd.name} arguments tie within {KINK_TOL:g}",
                                    "; derivative undefined at the kink")
            pick_a = (av < bv) == want_less
            return (np.where(pick_a, av, bv) if demand else None), np.where(pick_a[:, None], ad, bd)
        return select

    def call(self, nd, fa, demand):
        names, zero = self.names, self.zero
        value, check, divide = _value_fn(nd, names), None, False
        # the slopes of sqrt, sech and exp read the node's own value
        own = demand or (isinstance(nd, Func) and nd.name in ("sqrt", "sech", "exp"))
        # slope(v, lst, out): per element, the factor that multiplies the
        # argument's derivative (divides it where `divide`), from the
        # argument's value v (also as the list lst) and the node's own value
        # out (None unless own)
        if isinstance(nd, Pow) and nd.exponent == 0:
            slope = None  # x^0 is 1 with derivative 0 wherever x is
        elif isinstance(nd, Pow):
            k, below = nd.exponent, _mapped(pow, nd.exponent - 1)
            power = _checked(nd, names, PerElement(lambda v: k * v ** (k - 1),
                                                   lambda lst: k * below(lst)))
            slope = lambda v, lst, out: power(lst)
        elif nd.name == "exp":
            slope = lambda v, lst, out: out
        elif nd.name == "sech":
            slope = lambda v, lst, out: -out * _tanh(lst)
        elif nd.name in SMOOTH:
            smooth = _checked(nd, names, SMOOTH[nd.name][1])
            slope = lambda v, lst, out: smooth(lst)
        elif nd.name == "abs":
            slope = lambda v, lst, out: np.copysign(1.0, v)

            def check(v):
                if (np.abs(v) <= KINK_TOL).any():
                    raise _domain_error(nd, names, f"abs argument within {KINK_TOL:g} of the kink",
                                        "; derivative undefined there")
        else:  # log and sqrt
            slope, divide = ((lambda v, lst, out: v) if nd.name == "log"
                             else (lambda v, lst, out: 2.0 * out)), True

            def check(v):
                if (v <= 0.0).any():
                    bad = v[v <= 0.0][0].item()
                    kind = ("non-positive value" if nd.name == "log" else "negative value" if bad < 0
                            else "zero (derivative singular)")
                    raise _domain_error(nd, names, f"{nd.name} of {kind} {bad!r}")
        # log, abs and x^0 make a math call per element only for a demanded value
        maps = own or not (slope is None or (isinstance(nd, Func) and nd.name in ("log", "abs")))

        def chain(xs, ls):
            v, d = fa(xs, ls)
            if check is not None:
                check(v)
            keys, back = _distinct(v) if maps else (v, None)
            lst = keys.tolist() if maps else None
            out = value(lst) if own else None
            if slope is None:
                return out if back is None else out[back], zero
            s = slope(keys, lst, out)
            if back is not None:
                out, s = (None if out is None else out[back]), s[back]
            return out, (d / s[:, None] if divide else d * s[:, None])
        return chain


def _distinct(v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct bit patterns of v, and where each element of v is among them.

    Returns (keys, back) with keys[back] equal to v bit for bit, or (v, None)
    where more than half of v is distinct and the gather would cost more
    than the math calls it saves. 0.0 and -0.0, and NaNs with different
    payloads, are different patterns, so a math call on keys gives each
    element of v the bits the call gives on v itself.
    """
    bits = v.view(np.int64)
    ordered = np.sort(bits)
    new = ordered[1:] != ordered[:-1]
    if 2 * (1 + np.count_nonzero(new)) > len(v):
        return v, None
    keys = np.concatenate((ordered[:1], ordered[1:][new]))
    return keys.view(np.float64), np.searchsorted(keys, bits)


def compile_values(asts: list[Node], names: tuple[tuple[str, ...], tuple[str, ...]]):
    """All components as one function values(X, Lam) over a stack of points.

    X (N, n) and Lam (N, m) are float arrays. Returns the (N, k) component
    values, each row bit for bit the per-point values; raises NonFinite if
    any is not finite. When several points fail, the error is that of the
    components in row order, then of the first failing node of the walk, at
    its first failing point, as compile_duals says.
    """
    table = _Floats(names)
    trees = [compile_tree(ast, table) for ast in asts]

    def values(X: np.ndarray, Lam: np.ndarray) -> np.ndarray:
        xs, ls = list(X.T), list(Lam.T)
        vals = np.empty((len(X), len(trees)))
        # overflow and NaN propagate as in float arithmetic and are caught below
        with np.errstate(all="ignore"):
            for row, tree in enumerate(trees):
                vals[:, row] = tree(xs, ls)
        if not np.isfinite(vals).all():
            raise NonFinite("expression evaluation produced a non-finite value")
        return vals

    return values


def compile_duals(asts: list[Node], n: int, m: int,
                  names: tuple[tuple[str, ...], tuple[str, ...]], with_values: bool = True):
    """All components and both Jacobian blocks as one function duals(X, Lam).

    X (N, n) and Lam (N, m) are float arrays. Returns (values, d_values/d_x,
    d_values/d_lambda) with shapes (N, k), (N, k, n), (N, k, m). When
    several points fail, the error is pinned: the components are walked in
    row order, each one node by node over all points, so the error is the
    first failing component's, at the first failing node of its walk, at
    that node's first failing point. An earlier point may fail only at a
    later node, or in a later component.

    With with_values=False no value is demanded at the roots: the walk
    computes a value only where a derivative reads it, and returns None in
    place of the values (see the module docstring for what that changes).
    """
    total = n + m
    seeds = np.eye(total)[:, None, :]  # seeds[i] is the (1, n+m) derivative of input i
    table = _Duals(names, np.zeros((1, total)))
    trees = [compile_tree(ast, table, with_values) for ast in asts]

    def duals(X: np.ndarray, Lam: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        xs = [(X[:, i], seeds[i]) for i in range(n)]
        ls = [(Lam[:, j], seeds[n + j]) for j in range(m)]
        vals = np.empty((len(X), len(trees))) if with_values else None
        jac = np.empty((len(X), len(trees), total))
        # overflow and NaN propagate as in float arithmetic and are caught below
        with np.errstate(all="ignore"):
            for row, tree in enumerate(trees):
                v, jac[:, row] = tree(xs, ls)
                if with_values:
                    vals[:, row] = v
        if not ((vals is None or np.isfinite(vals).all()) and np.isfinite(jac).all()):
            raise NonFinite("expression evaluation produced a non-finite value or derivative")
        return vals, jac[:, :, :n], jac[:, :, n:]

    return duals


def eval_dual(
    asts: list[Node],
    x: np.ndarray,
    lam: np.ndarray,
    n_state: int | None = None,
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate all components and both Jacobian blocks in one dual pass.

    Returns (values, d_values/d_x, d_values/d_lambda) with shapes
    (k,), (k, n), (k, m) for k components: row 0 of eval_dual_many.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    vals, jx, jl = eval_dual_many(asts, x[None], lam[None], n_state, names)
    return vals[0], jx[0], jl[0]


def eval_dual_many(
    asts: list[Node],
    X: np.ndarray,
    Lam: np.ndarray,
    n_state: int | None = None,
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eval_dual at each row of X (N, n) and Lam (N, m), in one walk of each tree.

    Returns (values, d_values/d_x, d_values/d_lambda) with shapes (N, k),
    (N, k, n), (N, k, m), as compile_duals describes.
    """
    X = np.asarray(X, dtype=float)
    Lam = np.asarray(Lam, dtype=float)
    n = X.shape[1] if n_state is None else n_state
    m = Lam.shape[1]
    return compile_duals(asts, n, m, names or default_names(n, m))(X, Lam)


def eval_values(
    asts: list[Node],
    x: np.ndarray,
    lam: np.ndarray = (),
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> np.ndarray:
    """Plain float evaluation of all components (no derivatives, kink-safe).

    Returns the (k,) component values: row 0 of compile_values on a one-point stack.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    values = compile_values(asts, names or default_names(x.size, lam.size))
    return values(x[None], lam[None])[0]
