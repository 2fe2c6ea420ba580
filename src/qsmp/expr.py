"""Small expression language for inline coefficient definitions.

Grammar (standard precedence, ^ binds tightest and right-associative,
then unary minus, then * and /, then + and -, all left-associative):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')'
             | '(' expr ')' | '[' expr (',' expr)* ']'

Variables are t, y, x1..xn, z1..zd, u1..uk (indices checked against the
declared dimensions); functions are exp, log, sqrt, abs, min, max, tanh.
Bracketed lists build vectors (one level) or matrices (two levels) and are
allowed only at the top level of a coefficient definition. Symbolic
differentiation covers the full operator set; min/max/abs differentiate
through the identity min(a,b) = (a + b - |a - b|)/2 and are undefined at
ties, abs at zero.
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
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),\[\]]))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        newline = source.rfind("\n", 0, pos + 1)
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(source) - len(stripped)
            line = source.count("\n", 0, bad_pos) + 1
            line_start = source.rfind("\n", 0, bad_pos) + 1
            raise ExpressionError(
                f"unexpected character {source[bad_pos]!r}", line, bad_pos - line_start + 1
            )
        pos_tok = match.start() + len(match.group(0)) - len(match.group(0).lstrip())
        tok_text = match.group("num") or match.group("name") or match.group("op")
        tok_start = match.end() - len(tok_text)
        line = source.count("\n", 0, tok_start) + 1
        line_start = source.rfind("\n", 0, tok_start) + 1
        kind = "num" if match.group("num") else ("name" if match.group("name") else "op")
        tokens.append(Token(kind, tok_text, line, tok_start - line_start + 1))
        pos = match.end()
    last_line = source.count("\n") + 1
    tokens.append(Token("end", "", last_line, len(source) - (source.rfind("\n") + 1) + 1))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, dims, allow_lists):
        self.tokens = tokens
        self.pos = 0
        self.dims = dims
        self.allow_lists = allow_lists
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

    def expect(self, text):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.error(f"expected {text!r}")
        return self.advance()

    def _enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"expression nesting exceeds depth {MAX_DEPTH}")

    def _leave(self):
        self.depth -= 1

    def parse_expr(self):
        self._enter()
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        self._leave()
        return node

    def parse_term(self):
        self._enter()
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        self._leave()
        return node

    def parse_factor(self):
        self._enter()
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            node = Neg(self.parse_factor())
        else:
            node = self.parse_power()
        self._leave()
        return node

    def parse_power(self):
        self._enter()
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            base = BinOp("^", base, self.parse_factor())
        self._leave()
        return base

    def parse_atom(self):
        self._enter()
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            node = Num(float(tok.text))
        elif tok.kind == "name":
            self.advance()
            if self.peek().kind == "op" and self.peek().text == "(":
                node = self.parse_call(tok)
            else:
                node = self.make_var(tok)
        elif tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
        elif tok.kind == "op" and tok.text == "[":
            node = self.parse_list(tok)
        else:
            self.error("expected a number, variable, function, or parenthesis")
        self._leave()
        return node

    def parse_call(self, name_tok):
        if name_tok.text not in FUNCTIONS:
            self.error(f"unknown function {name_tok.text!r}", name_tok)
        arity = FUNCTIONS[name_tok.text][0]
        self.expect("(")
        args = [self.parse_expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        if len(args) != arity:
            self.error(
                f"function {name_tok.text} takes {arity} argument(s), got {len(args)}", name_tok
            )
        return Call(name_tok.text, tuple(args))

    def parse_list(self, open_tok):
        if not self.allow_lists:
            self.error("bracketed lists are only allowed at the top level", open_tok)
        self.expect("[")
        items = [self.parse_expr() if not self._at_list() else self.parse_inner_list()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            items.append(self.parse_expr() if not self._at_list() else self.parse_inner_list())
        self.expect("]")
        return ListLit(tuple(items))

    def _at_list(self):
        return self.peek().kind == "op" and self.peek().text == "["

    def parse_inner_list(self):
        open_tok = self.peek()
        self.expect("[")
        items = [self.parse_expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            items.append(self.parse_expr())
        self.expect("]")
        return ListLit(tuple(items))

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
    tokens = _tokenize(source)
    parser = _Parser(tokens, dims, allow_lists=True)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        parser.error(f"unexpected trailing input {tok.text!r}")
    _check_inner_lists(node, top=True, parser=parser)
    return node


def _check_inner_lists(node, top, parser):
    if isinstance(node, ListLit):
        if not top:
            raise ExpressionError("bracketed lists are only allowed at the top level")
        for item in node.items:
            if isinstance(item, ListLit):
                for sub in item.items:
                    _check_inner_lists(sub, top=False, parser=parser)
            else:
                _check_inner_lists(item, top=False, parser=parser)
    elif isinstance(node, (Neg,)):
        _check_inner_lists(node.operand, False, parser)
    elif isinstance(node, BinOp):
        _check_inner_lists(node.left, False, parser)
        _check_inner_lists(node.right, False, parser)
    elif isinstance(node, Call):
        for arg in node.args:
            _check_inner_lists(arg, False, parser)


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
            right = _render(node.right, prec - 1 if not isinstance(node.right, BinOp) else prec)
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
