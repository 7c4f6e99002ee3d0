"""Bundled module tables: basis labels, coefficient grammar, parser.

A table file describes, for one diameter d, the 2^d basis labels (one line
per row block) and the action of the two generators on that basis.  Entries
look like

    lr2 : th1*lr2 + (y1 - eps0)*r2 + (beta+1)^-1*lr3

i.e. a sum of coefficient*label terms.  Coefficients are expressions over
integer literals, the named scalars th0..thd, ths0..thsd, y1..yd, beta,
eps0..eps(d-2), parentheses and + - * / ^ with integer (possibly negative)
exponents of absolute value at most MAX_EXPONENT.  Precedence, tightest
first: ^, unary -, * and /, binary + and -.  An entry's right-hand side
goes through the same parser, with basis labels as atoms outside
parentheses, and its top-level sum is split into terms.  Nesting is at most
MAX_EXPR_DEPTH deep, so no table can exhaust the recursion.

Parsing is loss-free: the printer in tests/test_tables.py re-serializes every
parsed bundled table byte for byte.  format_expr stays here for the
evaluator's error messages.  Labels, nodes and tables are NamedTuples.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

FORMAT_VERSION = "module-table v1"

MAX_TABLE_D = 5


class TableError(ValueError):
    pass


class ParseError(TableError):
    def __init__(self, msg: str, line: int = None, col: int = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(msg + where)


class EvaluationError(TableError):
    pass


def _int(digits: str, line: int = None, col: int = None) -> int:
    """int(digits); a run too long for int() is a ParseError at (line, col)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", line, col) from None


# ---------------------------------------------------------------------------
# Basis labels


class BasisLabel(NamedTuple):
    """A basis label: 'phi' or a word in l/r with positive exponents."""

    parts: Tuple[Tuple[str, int], ...]  # e.g. (('l',1),('r',2)) for "lr2"

    def __str__(self) -> str:
        if not self.parts:
            return "phi"
        return "".join(s + (str(e) if e > 1 else "") for s, e in self.parts)

    @property
    def row_index(self) -> int:
        """Row block: total r-degree minus total l-degree."""
        return sum(e if s == "r" else -e for s, e in self.parts)


PHI = BasisLabel(())

_LABEL_RE = re.compile(r"([lr])([0-9]*)")


def parse_label(text: str) -> BasisLabel:
    if text == "phi":
        return PHI
    parts = []
    pos = 0
    for m in _LABEL_RE.finditer(text):
        if m.start() != pos:
            raise TableError(f"bad basis label {text!r}")
        sym, digits = m.group(1), m.group(2)
        if digits == "":
            exp = 1
        else:
            exp = _int(digits)
            if exp < 2:
                raise TableError(f"bad basis label {text!r}: exponent {exp} not canonical")
        if parts and parts[-1][0] == sym:
            raise TableError(f"bad basis label {text!r}: repeated symbol run")
        parts.append((sym, exp))
        pos = m.end()
    if pos != len(text) or not parts:
        raise TableError(f"bad basis label {text!r}")
    return BasisLabel(tuple(parts))


def power_label(sym: str, exp: int) -> BasisLabel:
    """r^h (or l^h) as a label; exponent 0 gives phi."""
    if exp == 0:
        return PHI
    return BasisLabel(((sym, exp),))


def chain_label(lexp: int, rexp: int) -> BasisLabel:
    """l^a r^b with a >= 0 < b, the labels walked by the weight certificate."""
    if lexp == 0:
        return power_label("r", rexp)
    return BasisLabel((("l", lexp), ("r", rexp)))


# ---------------------------------------------------------------------------
# Coefficient expressions


class Num(NamedTuple):
    value: int  # nonnegative; negatives are wrapped in Neg


class Name(NamedTuple):
    text: str


class Neg(NamedTuple):
    child: "Expr"


class BinOp(NamedTuple):
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


class Pow(NamedTuple):
    base: "Expr"
    exp: int


Expr = Union[Num, Name, Neg, BinOp, Pow]
_NODES = (Num, Name, Neg, BinOp, Pow, BasisLabel)  # what an entry's tree holds

ONE = Num(1)

# Deepest parenthesis nesting and coefficient tree an entry may hold, and the
# largest |e| in base^e (evaluate multiplies |e| times); the bundled
# coefficients are at most 13 deep, with |e| at most 5.
MAX_EXPR_DEPTH = 64
MAX_EXPONENT = 64

_NAME_RE = re.compile(r"^(th|ths|y|eps)([0-9]+)$")


def check_scalar_name(text: str, d: int) -> None:
    """Reject identifiers that are not legal scalar names for diameter d."""
    if text == "beta":
        if d < 3:
            raise TableError(f"unknown scalar name {text!r}: beta needs d >= 3")
        return
    m = _NAME_RE.match(text)
    if not m:
        raise TableError(f"unknown scalar name {text!r}")
    prefix, idx = m.group(1), _int(m.group(2))
    ok = {
        "th": 0 <= idx <= d,
        "ths": 0 <= idx <= d,
        "y": 1 <= idx <= d,
        "eps": d >= 2 and 0 <= idx <= d - 2,
    }[prefix]
    if not ok:
        raise TableError(f"unknown scalar name {text!r} for d={d}")


_FIELD_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def evaluate(expr: Expr, env: Dict[str, object], field) -> object:
    """Evaluate an expression tree at concrete scalars."""
    if isinstance(expr, Num):
        return field.from_int(expr.value)
    if isinstance(expr, Name):
        try:
            return env[expr.text]
        except KeyError:
            raise EvaluationError(f"no value bound for {expr.text!r}") from None
    if isinstance(expr, Neg):
        return field.neg(evaluate(expr.child, env, field))
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, env, field)
        right = evaluate(expr.right, env, field)
        if expr.op == "/" and not right:
            raise EvaluationError(f"division by zero in {format_expr(expr)!r}")
        return getattr(field, _FIELD_OPS[expr.op])(left, right)
    if isinstance(expr, Pow):
        base = evaluate(expr.base, env, field)
        if expr.exp < 0:
            if not base:
                raise EvaluationError(f"zero base with negative power in {format_expr(expr)!r}")
            base = field.inv(base)
        acc = field.one
        for _ in range(abs(expr.exp)):
            acc = field.mul(acc, base)
        return acc
    raise TypeError(f"not an expression node: {expr!r}")


# Printer precedence; higher binds tighter.
_PREC_SUM, _PREC_PROD, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC_SUM if expr.op in "+-" else _PREC_PROD
    if isinstance(expr, Neg):
        return _PREC_NEG
    if isinstance(expr, Pow):
        return _PREC_POW
    return _PREC_ATOM


def format_expr(expr: Expr) -> str:
    """Canonical text with minimal parentheses."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.text
    if isinstance(expr, Neg):
        inner = format_expr(expr.child)
        if _prec(expr.child) < _PREC_NEG:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(expr, BinOp):
        prec = _prec(expr)
        left = format_expr(expr.left)
        if _prec(expr.left) < prec:
            left = f"({left})"
        right = format_expr(expr.right)
        if _prec(expr.right) <= prec:
            right = f"({right})"
        return left + expr.op + right
    if isinstance(expr, Pow):
        base = format_expr(expr.base)
        if _prec(expr.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{expr.exp}"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^():]))"
)


class _Tokens:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.toks: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ParseError(
                    f"unexpected character {rest[0]!r}", line_no, pos + 1
                )
            if m.group("num"):
                self.toks.append(("num", m.group("num"), m.start("num")))
            elif m.group("ident"):
                self.toks.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.toks.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of entry", self.line_no, len(self.text))
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t[0] != "op" or t[1] != op:
            raise ParseError(f"expected {op!r}, found {t[1]!r}", self.line_no, t[2] + 1)

    def error(self, msg: str, tok=None) -> ParseError:
        col = (tok[2] + 1) if tok else len(self.text)
        return ParseError(msg, self.line_no, col)


def _is_label_token(text: str) -> bool:
    return text == "phi" or re.fullmatch(r"(?:[lr][0-9]*)+", text) is not None


class _ExprParser:
    """Recursive descent over one entry line; d is needed for name checking.

    With a basis, a label token outside parentheses is an atom (BasisLabel),
    so an entry's right-hand side parses as one expression.
    """

    def __init__(self, toks: _Tokens, d: int, basis: Optional[set] = None):
        self.t = toks
        self.d = d
        self.basis = basis
        self.depth = 0  # parenthesis nesting at the current token

    # expr := prod (('+'|'-') prod)*
    def expr(self) -> Expr:
        node = self.prod()
        while True:
            nxt = self.t.peek()
            if nxt and nxt[0] == "op" and nxt[1] in "+-":
                self.t.next()
                node = BinOp(nxt[1], node, self.prod())
            else:
                return node

    # prod := factor (('*'|'/') factor)*
    def prod(self) -> Expr:
        node = self.factor()
        while True:
            nxt = self.t.peek()
            if nxt and nxt[0] == "op" and nxt[1] in "*/":
                self.t.next()
                node = BinOp(nxt[1], node, self.factor())
            else:
                return node

    # factor := ['-'] power; a leading minus applies to the first factor only
    def factor(self) -> Expr:
        nxt = self.t.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "-":
            self.t.next()
            return Neg(self.power())
        return self.power()

    # power := atom ['^' ['-'] int]
    def power(self) -> Expr:
        base = self.atom()
        nxt = self.t.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "^":
            self.t.next()
            sign = 1
            nxt = self.t.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "-":
                self.t.next()
                sign = -1
            tok = self.t.next()
            if tok[0] != "num":
                raise self.t.error("exponent must be an integer", tok)
            exp = _int(tok[1], self.t.line_no, tok[2] + 1)
            if exp > MAX_EXPONENT:
                raise self.t.error(f"exponent exceeds {MAX_EXPONENT} in absolute value", tok)
            return Pow(base, sign * exp)
        return base

    def atom(self):
        tok = self.t.next()
        kind, text, pos = tok
        if kind == "num":
            return Num(_int(text, self.t.line_no, pos + 1))
        if kind == "ident":
            if self.basis is not None and _is_label_token(text):
                if self.depth:
                    raise self.t.error("basis label inside parentheses", tok)
                try:
                    label = parse_label(text)
                except TableError as e:
                    raise self.t.error(str(e), tok) from None
                if label not in self.basis:
                    raise self.t.error(f"label {text!r} not in basis", tok)
                return label
            try:
                check_scalar_name(text, self.d)
            except TableError as e:
                raise self.t.error(str(e), tok) from None
            return Name(text)
        if kind == "op" and text == "(":
            if self.depth == MAX_EXPR_DEPTH:
                raise self.t.error(f"parentheses nest deeper than {MAX_EXPR_DEPTH}", tok)
            self.depth += 1
            node = self.expr()
            self.t.expect_op(")")
            self.depth -= 1
            return node
        raise self.t.error(f"unexpected token {text!r}", tok)


# ---------------------------------------------------------------------------
# Action entries: label : term + term - term ...
#
# The right-hand side is one expression whose top-level sum is split into
# [coeff*]LABEL terms; coefficients with top-level sums must be parenthesized.


def _term(node, fail) -> Tuple[Expr, BasisLabel]:
    """(coefficient, label) of one summand: label, -label or coeff*label."""
    if isinstance(node, BasisLabel):
        return ONE, node
    if isinstance(node, Neg) and isinstance(node.child, BasisLabel):
        return Neg(ONE), node.child
    coeff, label = node, None
    if isinstance(node, BinOp) and node.op == "*" and isinstance(node.right, BasisLabel):
        coeff, label = node.left, node.right
    stack = [(coeff, 1)]  # (node, depth), walked without recursion; a node is its fields
    while stack:
        sub, depth = stack.pop()
        if isinstance(sub, BasisLabel):
            raise fail("basis label must end its term")
        if depth > MAX_EXPR_DEPTH:
            raise fail(f"coefficient nests deeper than {MAX_EXPR_DEPTH}")
        stack += [(c, depth + 1) for c in sub if isinstance(c, _NODES)]
    if label is None:
        raise fail("entry term must end with a basis label")
    return coeff, label


def _parse_entry(
    line: str, line_no: int, d: int, basis: set
) -> Tuple[BasisLabel, List[Tuple[Expr, BasisLabel]]]:
    toks = _Tokens(line, line_no)
    p = _ExprParser(toks, d, basis)
    head = toks.peek()
    source = p.atom()
    if not isinstance(source, BasisLabel):
        raise toks.error("entry must start with a basis label", head)
    toks.expect_op(":")
    start = toks.peek()
    node = p.expr()
    nxt = toks.peek()
    if nxt is not None:
        raise toks.error(f"unexpected token {nxt[1]!r} after term", nxt)

    def fail(msg: str) -> ParseError:
        return toks.error(msg, start)

    # walk the left-leaning chain of top-level sums, last term first
    terms: List[Tuple[Expr, BasisLabel]] = []
    while isinstance(node, BinOp) and node.op in "+-":
        coeff, label = _term(node.right, fail)
        terms.append((Neg(coeff) if node.op == "-" else coeff, label))
        node = node.left
    terms.append(_term(node, fail))
    return source, terms[::-1]


# ---------------------------------------------------------------------------
# Module tables

Action = Dict[BasisLabel, List[Tuple[Expr, BasisLabel]]]


class ModuleTable(NamedTuple):
    d: int
    basis: List[BasisLabel]
    basis_rows: List[List[BasisLabel]]  # row blocks as laid out in the file
    a_action: Action
    astar_action: Action
    version: str = FORMAT_VERSION


def _validate_structure(table: ModuleTable):
    d = table.d
    if len(table.basis) != 2**d:
        raise TableError(f"basis has {len(table.basis)} labels, expected {2**d}")
    if len(table.basis_rows) != d + 1:
        raise TableError(f"basis has {len(table.basis_rows)} rows, expected {d + 1}")
    for j, row in enumerate(table.basis_rows):
        for label in row:
            if label.row_index != j:
                raise TableError(
                    f"label {label} sits in row {j} but has row index {label.row_index}"
                )
    for gen, action in (("a", table.a_action), ("astar", table.astar_action)):
        prefix = "th" if gen == "a" else "ths"
        for src, terms in action.items():
            diag_coeff, diag_label = terms[0]
            want = Name(f"{prefix}{src.row_index}")
            if diag_label != src or diag_coeff != want:
                raise TableError(
                    f"action {gen}: entry for {src} must start with {want.text}*{src}"
                )


def parse_table(text: str) -> ModuleTable:
    """Parse one table file; structural invariants are checked."""
    raw_lines = text.splitlines()
    # join continuation lines (indented) onto their entry line
    logical: List[Tuple[int, str]] = []
    for no, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if line[0] in " \t" and logical:
            logical[-1] = (logical[-1][0], logical[-1][1] + " " + line.strip())
        else:
            logical.append((no, line.rstrip()))
    if not logical or logical[0][1] != f"# {FORMAT_VERSION}":
        raise ParseError(f"missing format header '# {FORMAT_VERSION}'", 1)
    version = logical[0][1][2:]
    body = logical[1:]
    if not body or not re.fullmatch(r"d = [0-9]+", body[0][1]):
        raise ParseError("expected 'd = <int>' after the header", body[0][0] if body else 2)
    d = _int(body[0][1][4:], body[0][0], 5)
    if d > MAX_TABLE_D:
        raise ParseError(f"no module tables beyond d = {MAX_TABLE_D}", body[0][0])

    sections: Dict[str, List[Tuple[int, str]]] = {}
    current = None
    for no, line in body[1:]:
        if line.startswith("["):
            if line not in ("[basis]", "[action a]", "[action astar]"):
                raise ParseError(f"unknown section {line!r}", no)
            current = line[1:-1]
            sections[current] = []
        else:
            if current is None:
                raise ParseError("content before any section", no)
            sections[current].append((no, line))
    for wanted in ("basis", "action a", "action astar"):
        if wanted not in sections:
            raise ParseError(f"missing section [{wanted}]")

    basis_rows: List[List[BasisLabel]] = []
    basis: List[BasisLabel] = []
    for no, line in sections["basis"]:
        row = []
        for word in line.split():
            try:
                label = parse_label(word)
            except TableError as e:
                raise ParseError(str(e), no) from None
            row.append(label)
            basis.append(label)
        basis_rows.append(row)
    basis_set = set(basis)

    def parse_action(key: str) -> Action:
        action: Action = {}
        order: List[BasisLabel] = []
        for no, line in sections[key]:
            src, terms = _parse_entry(line, no, d, basis_set)
            if src in action:
                raise ParseError(f"duplicate entry for {src}", no)
            action[src] = terms
            order.append(src)
        if order != basis:
            raise ParseError(f"[{key}] entries must follow basis order exactly")
        return action

    table = ModuleTable(
        d=d,
        basis=basis,
        basis_rows=basis_rows,
        a_action=parse_action("action a"),
        astar_action=parse_action("action astar"),
        version=version,
    )
    _validate_structure(table)
    return table


def bundled_table_text(d: int, assets: Optional[Path] = None) -> str:
    if not 0 <= d <= MAX_TABLE_D:
        raise TableError(f"no module table for d = {d}")
    folder = Path(__file__).parent / "data" if assets is None else Path(assets)
    return (folder / f"d{d}.txt").read_text()


def load_table(d: int, assets: Optional[Path] = None) -> ModuleTable:
    """Parse the bundled (or overridden) table for diameter d."""
    table = parse_table(bundled_table_text(d, assets))
    if table.d != d:
        raise TableError(f"asset for d={d} declares d={table.d}")
    return table
