"""Bundled module tables: basis labels, coefficient grammar, parser.

A table file describes, for one diameter d, the 2^d basis labels (one line
per row block) and the action of the two generators on that basis.  Entries
look like

    lr2 : th1*lr2 + (y1 - eps0)*r2 + (beta+1)^-1*lr3

i.e. a sum of coefficient*label terms.  Coefficients are expressions over
integer literals, the named scalars th0..thd, ths0..thsd, y1..yd, beta,
eps0..eps(d-2) (indices without leading zeros), parentheses and + - * / ^ with integer (possibly negative)
exponents of absolute value at most MAX_EXPONENT.  Precedence, tightest
first: ^, unary -, * and /, binary + and -.  Each entry line is cut into
tokens by one regex and read by one recursive-descent parser (_Entry), with
basis labels as atoms outside parentheses; its top-level sum is split into
terms as it is read.  Nesting is at most MAX_EXPR_DEPTH deep, so no table
can exhaust the recursion.  parse_table checks the header, the sections and
the block structure in the same pass, then the split grading
(check_grading); a ModuleTable holds only d, the basis (in file order) and
the two actions.

Parsing is loss-free: the printer in tests/test_tables.py re-serializes every
parsed bundled table byte for byte.  format_expr stays here for the
evaluator's error messages.  Labels, nodes and tables are NamedTuples.

Within one table, identical coefficient subtrees are one shared node
(_Entry.share), and realize passes one memo keyed by node identity through
both operators' assemblies, so `evaluate` computes each distinct subtree once
per trial (411 distinct operator nodes of 1,455 at d = 5).
"""

from __future__ import annotations

import re
from collections import Counter
from math import comb
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
    prefix, digits = m.groups()
    if digits[0] == "0" and digits != "0":
        raise TableError(f"unknown scalar name {text!r}: index {digits} has a leading zero")
    idx = _int(digits)
    ok = {
        "th": 0 <= idx <= d,
        "ths": 0 <= idx <= d,
        "y": 1 <= idx <= d,
        "eps": d >= 2 and 0 <= idx <= d - 2,
    }[prefix]
    if not ok:
        raise TableError(f"unknown scalar name {text!r} for d={d}")


_FIELD_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def evaluate(expr: Expr, env: Dict[str, object], field, memo: dict) -> object:
    """Evaluate an expression tree at concrete scalars.  memo maps id(node)
    to the value of each operator node evaluated so far (the caller keeps the
    nodes alive while it lives); only values are kept, so every error is
    raised as without it."""
    if isinstance(expr, Num):
        return field.from_int(expr.value)
    if isinstance(expr, Name):
        try:
            return env[expr.text]
        except KeyError:
            raise EvaluationError(f"no value bound for {expr.text!r}") from None
    if id(expr) in memo:
        return memo[id(expr)]
    if isinstance(expr, Neg):
        val = field.neg(evaluate(expr.child, env, field, memo))
    elif isinstance(expr, BinOp):
        left = evaluate(expr.left, env, field, memo)
        right = evaluate(expr.right, env, field, memo)
        if expr.op == "/" and not right:
            raise EvaluationError(f"division by zero in {format_expr(expr)!r}")
        val = getattr(field, _FIELD_OPS[expr.op])(left, right)
    elif isinstance(expr, Pow):
        base = evaluate(expr.base, env, field, memo)
        if expr.exp < 0:
            if not base:
                raise EvaluationError(f"zero base with negative power in {format_expr(expr)!r}")
            base = field.inv(base)
        val = field.one
        for _ in range(abs(expr.exp)):
            val = field.mul(val, base)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    memo[id(expr)] = val
    return val


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
# Action entries: label : term + term - term ..., each term [coeff*]LABEL
#
# One recursive-descent parser per entry line.  Basis labels are atoms outside
# parentheses; coefficients with top-level sums must be parenthesized.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^():])|(?P<bad>\S))"
)
_LABEL_TOKEN_RE = re.compile(r"phi|(?:[lr][0-9]*)+")


class _Entry:
    """The tokens of one entry line, the read position, the parenthesis depth
    and `shared`, the nodes of the table read so far; once read, `cols` holds
    the column at which each term starts."""

    def __init__(self, text: str, line_no: int, d: int, basis: set, shared: dict):
        self.text = text
        self.line_no = line_no
        self.d = d
        self.basis = basis
        self.shared = shared
        self.toks: List[Tuple[str, str, int]] = []  # (kind, text, offset)
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group(kind)!r}", line_no,
                                 m.start(kind) + 1)
            self.toks.append((kind, m.group(kind), m.start(kind)))
        self.i = 0
        self.depth = 0  # parenthesis nesting at the current token

    def share(self, node):
        """The table's one operator node equal to node, keyed on its type (nodes
        of different types compare as plain tuples) and its children's
        identity (they are shared already; `shared` keeps them, so no id is
        reused).  A number or scalar name is keyed by its text in atom."""
        kind = type(node)
        if kind is BinOp:
            key = (kind, node.op, id(node.left), id(node.right))
        elif kind is Pow:
            key = (kind, id(node.base), node.exp)
        else:
            key = (kind, id(node.child))
        return self.shared.setdefault(key, node)

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str, int]:
        if self.i == len(self.toks):
            raise self.error("unexpected end of entry")
        self.i += 1
        return self.toks[self.i - 1]

    def accept(self, ops: str) -> Optional[str]:
        """Consume the next token if it is one of the operator characters in ops."""
        if self.i < len(self.toks):
            kind, text, _ = self.toks[self.i]
            if kind == "op" and text in ops:
                self.i += 1
                return text
        return None

    def expect(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise self.error(f"expected {op!r}, found {tok[1]!r}", tok)

    def error(self, msg: str, tok=None) -> ParseError:
        return ParseError(msg, self.line_no, tok[2] + 1 if tok else len(self.text))

    # entry := LABEL ':' term (('+'|'-') term)*
    def read(self) -> Tuple[BasisLabel, List[Tuple[Expr, BasisLabel]]]:
        head = self.peek()
        source = self.atom()
        if not isinstance(source, BasisLabel):
            raise self.error("entry must start with a basis label", head)
        self.expect(":")
        summands = [(None, self.peek(), self.binary("*/"))]  # (sign, first token, node)
        while op := self.accept("+-"):
            summands.append((op, self.peek(), self.binary("*/")))
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected token {tok[1]!r} after term", tok)
        terms = []  # checked once the line is read: a syntax error anywhere comes first
        for op, start, node in summands:
            coeff, label = self.term(node, start)
            terms.append((self.share(Neg(coeff)) if op == "-" else coeff, label))
        self.cols = [start[2] + 1 for _, start, _ in summands]
        return source, terms

    def term(self, node, start) -> Tuple[Expr, BasisLabel]:
        """(coefficient, label) of one summand: label, -label or coeff*label."""
        if isinstance(node, BasisLabel):
            return ONE, node
        if isinstance(node, Neg) and isinstance(node.child, BasisLabel):
            return self.share(Neg(ONE)), node.child
        coeff, label = node, None
        if isinstance(node, BinOp) and node.op == "*" and isinstance(node.right, BasisLabel):
            coeff, label = node.left, node.right
        stack = [(coeff, 1)]  # (node, depth), walked without recursion; a node is its fields
        while stack:
            sub, depth = stack.pop()
            if isinstance(sub, BasisLabel):
                raise self.error("basis label must end its term", start)
            if depth > MAX_EXPR_DEPTH:
                raise self.error(f"coefficient nests deeper than {MAX_EXPR_DEPTH}", start)
            stack += [(c, depth + 1) for c in sub if isinstance(c, _NODES)]
        if label is None:
            raise self.error("entry term must end with a basis label", start)
        return coeff, label

    # sum := prod (('+'|'-') prod)*, prod := factor (('*'|'/') factor)*
    def binary(self, ops: str) -> Expr:
        operand = self.factor if ops == "*/" else lambda: self.binary("*/")
        node = operand()
        while op := self.accept(ops):
            node = self.share(BinOp(op, node, operand()))
        return node

    # factor := ['-'] power; a leading minus applies to the first factor only
    def factor(self) -> Expr:
        if self.accept("-"):
            return self.share(Neg(self.power()))
        return self.power()

    # power := atom ['^' ['-'] int]
    def power(self) -> Expr:
        base = self.atom()
        if not self.accept("^"):
            return base
        sign = -1 if self.accept("-") else 1
        tok = self.next()
        if tok[0] != "num":
            raise self.error("exponent must be an integer", tok)
        exp = _int(tok[1], self.line_no, tok[2] + 1)
        if exp > MAX_EXPONENT:
            raise self.error(f"exponent exceeds {MAX_EXPONENT} in absolute value", tok)
        return self.share(Pow(base, sign * exp))

    def atom(self):
        tok = self.next()
        kind, text, pos = tok
        if text in self.shared:  # a number or scalar name read before, checked then
            return self.shared[text]
        if kind == "num":
            return self.shared.setdefault(text, Num(_int(text, self.line_no, pos + 1)))
        if kind == "ident":
            is_label = _LABEL_TOKEN_RE.fullmatch(text)
            if is_label and self.depth:
                raise self.error("basis label inside parentheses", tok)
            try:
                if not is_label:
                    check_scalar_name(text, self.d)
                    return self.shared.setdefault(text, Name(text))
                label = parse_label(text)
            except TableError as e:
                raise self.error(str(e), tok) from None
            if label not in self.basis:
                raise self.error(f"label {text!r} not in basis", tok)
            return label
        if text == "(":
            if self.depth == MAX_EXPR_DEPTH:
                raise self.error(f"parentheses nest deeper than {MAX_EXPR_DEPTH}", tok)
            self.depth += 1
            node = self.binary("+-")
            self.expect(")")
            self.depth -= 1
            return node
        raise self.error(f"unexpected token {text!r}", tok)


# ---------------------------------------------------------------------------
# Module tables

Action = Dict[BasisLabel, List[Tuple[Expr, BasisLabel]]]


class ModuleTable(NamedTuple):
    d: int
    basis: List[BasisLabel]  # in file order; row block j holds the labels of row_index j
    a_action: Action
    astar_action: Action


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

    rows: List[List[BasisLabel]] = []  # row blocks as laid out in the file
    for no, line in sections["basis"]:
        try:
            rows.append([parse_label(word) for word in line.split()])
        except TableError as e:
            raise ParseError(str(e), no) from None
    basis = [label for row in rows for label in row]
    basis_set = set(basis)

    actions: List[Action] = []
    shared: dict = {}  # identical coefficient subtrees are one node
    places: dict = {}  # (generator, source) -> (line, each term's column)
    for key in ("action a", "action astar"):
        action: Action = {}
        for no, line in sections[key]:
            entry = _Entry(line, no, d, basis_set, shared)
            src, terms = entry.read()
            if src in action:
                raise ParseError(f"duplicate entry for {src}", no)
            action[src] = terms
            places[key[7:], src] = (no, entry.cols)
        if list(action) != basis:
            raise ParseError(f"[{key}] entries must follow basis order exactly")
        actions.append(action)

    if len(basis) != 2**d:
        raise TableError(f"basis has {len(basis)} labels, expected {2**d}")
    if len(rows) != d + 1:
        raise TableError(f"basis has {len(rows)} rows, expected {d + 1}")
    for j, label in ((j, label) for j, row in enumerate(rows) for label in row):
        if label.row_index != j:
            raise TableError(f"label {label} sits in row {j} but has row index {label.row_index}")
    table = ModuleTable(d, basis, *actions)
    check_grading(table, places)
    return table


def check_grading(table: ModuleTable, places: Optional[dict] = None) -> None:
    """Reject a table that is not split-graded: row block j holds C(d, j)
    labels, and each entry is its diagonal term (th j or ths j times the
    label), then terms that move one row block, up under a, down under astar:
    the split decomposition of a TD system (Ito, Tanabe and Terwilliger, Linear
    Algebra Appl. 330, 2001) that realize reads its rank factors off.  places
    maps (generator, source) to the entry's line and its terms' columns."""
    d, sizes = table.d, Counter(label.row_index for label in table.basis)
    for j, size in enumerate(comb(d, j) for j in range(d + 1)):
        if sizes[j] != size:
            raise TableError(f"row {j} holds {sizes[j]} labels, expected C({d},{j}) = {size}")
    for gen, prefix, step, action in (("a", "th", 1, table.a_action),
                                      ("astar", "ths", -1, table.astar_action)):
        for src, terms in action.items():
            j = src.row_index
            want = Name(f"{prefix}{j}")
            if terms[:1] != [(want, src)]:
                raise TableError(f"action {gen}: entry for {src} must start with {want.text}*{src}")
            for k, (_, label) in enumerate(terms[1:], 1):
                if label.row_index != j + step:
                    line, cols = places[gen, src] if places else (None, [None] * len(terms))
                    raise ParseError(
                        f"action {gen}: term {label} of {src} must move one row block"
                        f" {'up' if step > 0 else 'down'}, from row {j} to row {j + step}",
                        line, cols[k])


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
