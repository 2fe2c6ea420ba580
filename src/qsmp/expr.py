"""Small expression language for inline coefficient definitions.

Grammar (standard precedence, ^ binds tightest and right-associative,
then unary minus, then * and /, then + and -, all left-associative):

    source  := list | expr
    list    := '[' item (',' item)* ']'
    item    := row | expr
    row     := '[' expr (',' expr)* ']'
    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Variables are t, y, x1..xn, z1..zd, u1..uk (indices checked against the
declared dimensions); functions are exp, log, sqrt, abs, min, max, tanh.
Bracketed lists build vectors (one level) or matrices (two levels, one row
per inner list); the grammar admits them only at the top level of a
coefficient definition, never as an operand. Symbolic differentiation
covers the full operator set; min/max/abs differentiate through the
identity min(a,b) = (a + b - |a - b|)/2 and are undefined at ties, abs at
zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

MAX_DEPTH = 64

FUNCTIONS = {
    "exp": (1, np.exp),
    "log": (1, None),  # guarded evaluation
    "sqrt": (1, None),
    "abs": (1, np.abs),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "tanh": (1, np.tanh),
}

_VAR_RE = re.compile(r"^(x|z|u)([0-9]+)$")

_LIST_PLACEMENT = "bracketed lists are only allowed at the top level"


class ExpressionError(ValueError):
    """Parse or evaluation failure with a 1-based source location."""

    def __init__(self, message, line=1, column=1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class EvaluationError(ExpressionError):
    """Structured evaluation failure (division by zero, log domain, non-finite)."""


# --- AST nodes ---------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class ListLit:
    items: tuple


ExpressionAst = object  # Num | Var | Neg | BinOp | Call | ListLit


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),\[\]])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    column: int


def _location(source: str, pos: int) -> tuple:
    """1-based (line, column) of a character offset."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _tokenize(source: str) -> list:
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        where = _location(source, match.start())
        if kind == "bad":
            raise ExpressionError(f"unexpected character {match.group()!r}", *where)
        tokens.append(Token(kind, match.group(), *where))
    tokens.append(Token("end", "", *_location(source, len(source))))
    return tokens


# --- parser ------------------------------------------------------------------


def _nested(parse):
    """Counts a parse method's call against the nesting depth limit."""

    def counted(self, *args):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"expression nesting exceeds depth {MAX_DEPTH}")
        node = parse(self, *args)
        self.depth -= 1
        return node

    return counted


class _Parser:
    def __init__(self, tokens, dims):
        self.tokens = tokens
        self.pos = 0
        self.dims = dims
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, token=None):
        tok = token or self.peek()
        if tok.kind == "end" and self.pos > 0:
            prev = self.tokens[self.pos - 1]
            raise ExpressionError(f"{message} (input ended)", prev.line, prev.column)
        raise ExpressionError(message, tok.line, tok.column)

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the one-character operators."""
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect(self, text):
        if not self.at(text):
            self.error(f"expected {text!r}")
        return self.advance()

    def parse_items(self, item, close: str) -> tuple:
        """item (',' item)* close"""
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        self.expect(close)
        return tuple(items)

    @_nested
    def parse_expr(self):
        node = self.parse_term()
        while self.at("+-"):
            node = BinOp(self.advance().text, node, self.parse_term())
        return node

    @_nested
    def parse_term(self):
        node = self.parse_factor()
        while self.at("*/"):
            node = BinOp(self.advance().text, node, self.parse_factor())
        return node

    @_nested
    def parse_factor(self):
        if self.at("-"):
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    @_nested
    def parse_power(self):
        base = self.parse_atom()
        if self.at("^"):
            self.advance()
            return BinOp("^", base, self.parse_factor())
        return base

    @_nested
    def parse_atom(self):
        tok = self.peek()
        if tok.kind in ("num", "name"):
            self.advance()
            if tok.kind == "num":
                return Num(float(tok.text))
            return self.parse_call(tok) if self.at("(") else self.make_var(tok)
        if self.at("("):
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        self.error(_LIST_PLACEMENT if self.at("[") else "expected a number, variable, function, or parenthesis")

    def parse_call(self, name_tok):
        if name_tok.text not in FUNCTIONS:
            self.error(f"unknown function {name_tok.text!r}", name_tok)
        arity = FUNCTIONS[name_tok.text][0]
        self.expect("(")
        args = self.parse_items(self.parse_expr, ")")
        if len(args) != arity:
            self.error(
                f"function {name_tok.text} takes {arity} argument(s), got {len(args)}", name_tok
            )
        return Call(name_tok.text, args)

    def parse_list(self, rows: bool):
        """A bracketed list of expressions or, when ``rows`` is set, also of
        bracketed rows. A list stands alone: an operator after its ']' is an
        error located at its '['."""
        open_tok = self.expect("[")
        items = self.parse_items(lambda: self.parse_list(False) if rows and self.at("[") else self.parse_expr(), "]")
        if self.at("+-*/^"):
            self.error(_LIST_PLACEMENT, open_tok)
        return ListLit(items)

    def make_var(self, tok):
        name = tok.text
        if name in ("t", "y"):
            return Var(name)
        match = _VAR_RE.match(name)
        if match is None:
            self.error(f"unknown identifier {name!r}", tok)
        prefix, index = match.group(1), int(match.group(2))
        limits = {"x": self.dims[0], "z": self.dims[1], "u": self.dims[2]}
        if index < 1 or index > limits[prefix]:
            self.error(
                f"variable {name} is out of range (declared {prefix}-dimension is {limits[prefix]})",
                tok,
            )
        return Var(name)


def parse_expression(source: str, dims: tuple) -> ExpressionAst:
    """Parse a coefficient expression against declared dimensions (n, d, k).

    Raises :class:`ExpressionError` with a 1-based line/column on syntax
    errors, unknown identifiers, out-of-range variable indices, arity
    mismatches, and nesting beyond the depth limit.
    """
    parser = _Parser(_tokenize(source), dims)
    node = parser.parse_list(rows=True) if parser.at("[") else parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        parser.error(f"unexpected trailing input {tok.text!r}")
    return node


# --- evaluation --------------------------------------------------------------


def evaluate_expression(node: ExpressionAst, bindings: dict):
    """Evaluate with numpy broadcasting; bindings map variable names to
    scalars or arrays. Non-finite results and domain violations raise
    :class:`EvaluationError` rather than propagating silently."""
    result = _eval(node, bindings)
    if isinstance(result, list):
        return result
    _require_finite(result)
    return result


def _require_finite(value):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise EvaluationError("expression evaluated to a non-finite value")


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise EvaluationError(f"unbound variable {node.name}")
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(np.asarray(right) == 0):
                raise EvaluationError("division by zero")
            return left / right
        if node.op == "^":
            with np.errstate(invalid="ignore", over="ignore"):
                out = np.power(np.asarray(left, dtype=np.float64), right)
            _require_finite(out)
            return out
        raise EvaluationError(f"unknown operator {node.op}")
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        if node.fn == "log":
            if np.any(np.asarray(args[0]) <= 0):
                raise EvaluationError("log of a non-positive value")
            return np.log(args[0])
        if node.fn == "sqrt":
            if np.any(np.asarray(args[0]) < 0):
                raise EvaluationError("sqrt of a negative value")
            return np.sqrt(args[0])
        return FUNCTIONS[node.fn][1](*args)
    if isinstance(node, ListLit):
        return [_eval(item, env) for item in node.items]
    raise EvaluationError(f"unknown node type {type(node).__name__}")


def variables(node: ExpressionAst) -> set:
    """The names of the variables that occur in ``node``."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        children = (node.operand,)
    elif isinstance(node, BinOp):
        children = (node.left, node.right)
    elif isinstance(node, Call):
        children = node.args
    elif isinstance(node, ListLit):
        children = node.items
    else:
        children = ()
    return set().union(*map(variables, children))


# --- differentiation ---------------------------------------------------------


def differentiate(node: ExpressionAst, var: str) -> ExpressionAst:
    """Symbolic derivative with respect to a variable name; the result is a
    plain AST evaluable by :func:`evaluate_expression`."""
    return _simplify(_diff(node, var))


def _diff(node, var):
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.operand, var))
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da, db = _diff(a, var), _diff(b, var)
        if node.op == "+":
            return BinOp("+", da, db)
        if node.op == "-":
            return BinOp("-", da, db)
        if node.op == "*":
            return BinOp("+", BinOp("*", da, b), BinOp("*", a, db))
        if node.op == "/":
            num = BinOp("-", BinOp("*", da, b), BinOp("*", a, db))
            return BinOp("/", num, BinOp("^", b, Num(2.0)))
        if node.op == "^":
            if isinstance(b, Num):
                power = BinOp("^", a, Num(b.value - 1.0))
                return BinOp("*", BinOp("*", Num(b.value), power), da)
            # general a^b: a^b * (db * log a + b * da / a)
            term1 = BinOp("*", db, Call("log", (a,)))
            term2 = BinOp("/", BinOp("*", b, da), a)
            return BinOp("*", node, BinOp("+", term1, term2))
    if isinstance(node, Call):
        (arg,) = node.args if len(node.args) == 1 else (None,)
        if node.fn == "exp":
            return BinOp("*", node, _diff(arg, var))
        if node.fn == "log":
            return BinOp("/", _diff(arg, var), arg)
        if node.fn == "sqrt":
            return BinOp("/", _diff(arg, var), BinOp("*", Num(2.0), node))
        if node.fn == "tanh":
            sech2 = BinOp("-", Num(1.0), BinOp("^", node, Num(2.0)))
            return BinOp("*", sech2, _diff(arg, var))
        if node.fn == "abs":
            return BinOp("*", BinOp("/", arg, node), _diff(arg, var))
        if node.fn in ("min", "max"):
            # min(a,b) = (a + b - |a-b|)/2, max with +; differentiate through.
            a, b = node.args
            rewritten = _minmax_rewrite(node.fn, a, b)
            return _diff(rewritten, var)
    if isinstance(node, ListLit):
        return ListLit(tuple(_diff(item, var) for item in node.items))
    raise ValueError(f"cannot differentiate node {node!r}")


def _minmax_rewrite(fn, a, b):
    spread = Call("abs", (BinOp("-", a, b),))
    total = BinOp("+", a, b)
    combined = BinOp("-", total, spread) if fn == "min" else BinOp("+", total, spread)
    return BinOp("/", combined, Num(2.0))


def _simplify(node):
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        inner = _simplify(node.operand)
        if isinstance(inner, Num):
            return Num(-inner.value)
        return Neg(inner)
    if isinstance(node, BinOp):
        left = _simplify(node.left)
        right = _simplify(node.right)
        lz = isinstance(left, Num) and left.value == 0.0
        rz = isinstance(right, Num) and right.value == 0.0
        lo = isinstance(left, Num) and left.value == 1.0
        ro = isinstance(right, Num) and right.value == 1.0
        if node.op == "+":
            if lz:
                return right
            if rz:
                return left
        elif node.op == "-":
            if rz:
                return left
            if lz:
                return Neg(right) if not isinstance(right, Num) else Num(-right.value)
        elif node.op == "*":
            if lz or rz:
                return Num(0.0)
            if lo:
                return right
            if ro:
                return left
        elif node.op == "/":
            if lz:
                return Num(0.0)
            if ro:
                return left
        elif node.op == "^":
            if ro:
                return left
            if isinstance(right, Num) and right.value == 0.0:
                return Num(1.0)
        if isinstance(left, Num) and isinstance(right, Num) and node.op in "+-*":
            ops = {"+": left.value + right.value, "-": left.value - right.value, "*": left.value * right.value}
            return Num(ops[node.op])
        return BinOp(node.op, left, right)
    if isinstance(node, Call):
        return Call(node.fn, tuple(_simplify(a) for a in node.args))
    if isinstance(node, ListLit):
        return ListLit(tuple(_simplify(item) for item in node.items))
    return node


# --- pretty printing ---------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty_print(node: ExpressionAst) -> str:
    """Render an AST to a string that re-parses to an identical tree."""
    return _render(node, 0)


def _render(node, parent_prec):
    if isinstance(node, Num):
        if node.value < 0:
            text = repr(-node.value)
            return f"-{text}" if parent_prec <= _PRECEDENCE["neg"] else f"(-{text})"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _render(node.operand, _PRECEDENCE["neg"])
        text = f"-{inner}"
        return text if parent_prec <= _PRECEDENCE["neg"] else f"({text})"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        if node.op == "^":
            # right-associative; unary minus on the right re-parses fine
            left = _render(node.left, prec + 1)
            right = _render(node.right, prec)
            text = f"{left}^{right}"
        else:
            left = _render(node.left, prec)
            right = _render(node.right, prec + 1)
            text = f"{left} {node.op} {right}"
        return text if prec >= parent_prec else f"({text})"
    if isinstance(node, Call):
        args = ", ".join(_render(a, 0) for a in node.args)
        return f"{node.fn}({args})"
    if isinstance(node, ListLit):
        return "[" + ", ".join(_render(item, 0) for item in node.items) + "]"
    raise ValueError(f"cannot render {node!r}")


def list_shape(node: ExpressionAst):
    """(rows, cols) for matrix literals, (length,) for vectors, () otherwise."""
    if not isinstance(node, ListLit):
        return ()
    if node.items and all(isinstance(item, ListLit) for item in node.items):
        cols = {len(item.items) for item in node.items}
        if len(cols) != 1:
            raise ExpressionError("matrix rows have inconsistent lengths")
        return (len(node.items), cols.pop())
    if any(isinstance(item, ListLit) for item in node.items):
        raise ExpressionError("mixed scalar and list entries in a bracketed list")
    return (len(node.items),)
