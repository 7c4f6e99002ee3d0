from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcheck.fields import Rationals
from tdcheck.tables import (
    _PREC_PROD,
    ONE,
    BinOp,
    EvaluationError,
    Name,
    Neg,
    Num,
    ParseError,
    Pow,
    TableError,
    _prec,
    bundled_table_text,
    evaluate,
    format_expr,
    load_table,
    parse_label,
    parse_table,
)

from support import coefficient_slots, with_negated_coefficient

QQ = Rationals()


# ---------------------------------------------------------------------------
# the printer: canonical table text, against which parsing is loss-free

_WRAP_WIDTH = 100


def _format_term(coeff, label):
    """(sign, body) with sign '+' or '-'; Neg coefficients print as '- body'."""
    sign = "+"
    if isinstance(coeff, Neg):
        sign = "-"
        coeff = coeff.child
    if coeff == ONE:
        return sign, str(label)
    body = format_expr(coeff)
    if _prec(coeff) < _PREC_PROD:
        body = f"({body})"
    return sign, f"{body}*{label}"


def _format_entry(source, terms):
    pieces = [_format_term(c, l) for c, l in terms]
    sign0, body0 = pieces[0]
    lines = [f"{source} : " + (body0 if sign0 == "+" else f"-{body0}")]
    for sign, body in pieces[1:]:
        chunk = f" {sign} {body}"
        if len(lines[-1]) + len(chunk) > _WRAP_WIDTH and len(lines[-1]) > 4:
            lines.append("    " + chunk.lstrip())
        else:
            lines[-1] += chunk
    return lines


def serialize_table(table):
    out = [f"# {table.version}", f"d = {table.d}", "", "[basis]"]
    out.extend(" ".join(str(l) for l in row) for row in table.basis_rows)
    for key, action in (("action a", table.a_action), ("action astar", table.astar_action)):
        out += ["", f"[{key}]"]
        for src in table.basis:
            out.extend(_format_entry(src, action[src]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# labels


def test_label_parse_and_canonical_text():
    for text in ("phi", "r", "lr2", "l2r3", "rl2r3l4r5", "lr2l3r4"):
        assert str(parse_label(text)) == text


def test_label_row_index():
    assert parse_label("phi").row_index == 0
    assert parse_label("r").row_index == 1
    assert parse_label("lr2").row_index == 1
    assert parse_label("rl2r3").row_index == 2
    assert parse_label("lr2l3r4").row_index == 2
    assert parse_label("rl2r3l4r5").row_index == 3


def test_label_rejects_noncanonical_forms():
    for bad in ("l1", "r0", "", "xyz", "phi2", "ll", "l2l3"):
        with pytest.raises(TableError):
            parse_label(bad)


# ---------------------------------------------------------------------------
# bundled assets


def test_d1_table_matches_hand_content():
    t = load_table(1)
    assert [str(l) for l in t.basis] == ["phi", "r"]
    phi, r = t.basis
    assert t.a_action[phi] == [(Name("th0"), phi), (Num(1), r)]
    assert t.a_action[r] == [(Name("th1"), r)]
    assert t.astar_action[r] == [(Name("ths1"), r), (Name("y1"), phi)]


def test_d2_lr2_entry_matches_hand_content():
    t = load_table(2)
    lr2 = parse_label("lr2")
    r2 = parse_label("r2")
    coeffs = t.a_action[lr2]
    assert coeffs[0] == (Name("th1"), lr2)
    assert coeffs[1] == (BinOp("-", Name("y1"), Name("eps0")), r2)


@pytest.mark.parametrize("d", range(6))
def test_bundled_tables_roundtrip_byte_identical(d):
    text = bundled_table_text(d)
    table = parse_table(text)
    assert serialize_table(table) == text
    assert len(table.basis) == 2**d
    assert len(table.basis_rows) == d + 1


@pytest.mark.parametrize("d", range(6))
def test_bundled_tables_block_structure(d):
    table = load_table(d)
    for j, row in enumerate(table.basis_rows):
        for label in row:
            assert label.row_index == j
            assert table.a_action[label][0] == (Name(f"th{j}"), label)
            assert table.astar_action[label][0] == (Name(f"ths{j}"), label)


def test_unknown_scalar_name_is_rejected_with_position():
    text = bundled_table_text(5).replace("y4*beta^-1*lr2", "y6*beta^-1*lr2", 1)
    with pytest.raises(ParseError, match="y6"):
        parse_table(text)


def test_label_not_in_basis_is_rejected():
    text = bundled_table_text(1).replace("th1*r", "th1*lr2", 1)
    with pytest.raises(ParseError, match="not in basis"):
        parse_table(text)


def test_syntax_error_reports_line():
    text = bundled_table_text(1).replace("r : th1*r", "r : th1*&r", 1)
    with pytest.raises(ParseError, match="line"):
        parse_table(text)


def test_missing_header_is_rejected():
    with pytest.raises(ParseError, match="header"):
        parse_table("d = 1\n[basis]\nphi\n")


def test_entry_must_end_with_label():
    text = bundled_table_text(1).replace("r : th1*r", "r : th1*th0", 1)
    with pytest.raises(ParseError):
        parse_table(text)


def test_negated_label_term_has_coefficient_minus_one():
    table = parse_table(bundled_table_text(2).replace("r2 : ths2*r2 + lr2", "r2 : ths2*r2 - lr2"))
    assert table.astar_action[parse_label("r2")][1] == (Neg(Num(1)), parse_label("lr2"))


def test_later_negated_term_negates_its_whole_coefficient():
    text = bundled_table_text(1).replace("phi : th0*phi + r", "phi : th0*phi - 2*th1*r")
    coeff, label = parse_table(text).a_action[parse_label("phi")][1]
    assert coeff == Neg(BinOp("*", Num(2), Name("th1")))
    assert label == parse_label("r")


@pytest.mark.parametrize(
    "term",
    ["r*th1*r2", "r^2*r2", "th1/r*r2", "th1*r2*th0", "-r2*th1", "(r2)", "(th1*r2)", "th1*(r2)"],
)
def test_label_must_end_its_term_outside_parentheses(term):
    text = bundled_table_text(2).replace("r : th1*r + r2", f"r : th1*r + {term}")
    with pytest.raises(ParseError, match="line 11"):
        parse_table(text)


def _d1_with_y1_as(coeff: str) -> str:
    return bundled_table_text(1).replace("+ y1*phi", f"+ {coeff}*phi")


def test_parenthesis_depth_is_bounded():
    assert parse_table(_d1_with_y1_as("(" * 64 + "y1" + ")" * 64)) == load_table(1)
    with pytest.raises(ParseError, match="parentheses nest deeper than 64 at line 14"):
        parse_table(_d1_with_y1_as("(" * 300 + "y1" + ")" * 300))


def test_coefficient_depth_is_bounded():
    # k additions give a left-leaning chain of depth k + 1
    assert parse_table(_d1_with_y1_as("(y1" + "+0" * 63 + ")"))
    for k in (64, 5000):
        with pytest.raises(ParseError, match="nests deeper than 64 at line 14"):
            parse_table(_d1_with_y1_as("(y1" + "+0" * k + ")"))


def test_number_of_terms_is_not_bounded():
    text = bundled_table_text(1).replace("+ y1*phi", "+ y1*phi" + " + 0*phi" * 5000)
    assert len(parse_table(text).astar_action[parse_label("r")]) == 5002


def test_mutation_flips_exactly_one_coefficient():
    table = load_table(2)
    slots = coefficient_slots(table)
    assert len(slots) == 14  # 7 entries per action for the 4 basis labels
    action, src, k = slots[3]
    mutated = with_negated_coefficient(table, action, src, k)
    orig = (table.a_action if action == "a" else table.astar_action)[src][k]
    new = (mutated.a_action if action == "a" else mutated.astar_action)[src][k]
    assert new[0] == Neg(orig[0]) and new[1] == orig[1]
    assert serialize_table(mutated) != serialize_table(table)


# ---------------------------------------------------------------------------
# expressions


def test_evaluate_simple_tree():
    env = {"beta": Fraction(3), "y1": Fraction(5)}
    inv = Pow(BinOp("+", Name("beta"), Num(1)), -1)
    expr = BinOp("+", BinOp("*", Name("y1"), inv), Num(2))
    assert evaluate(expr, env, QQ) == Fraction(5, 4) + 2


def test_evaluate_reports_missing_name_and_zero_division():
    with pytest.raises(EvaluationError):
        evaluate(Name("y1"), {}, QQ)
    with pytest.raises(EvaluationError):
        evaluate(BinOp("/", Num(1), Name("beta")), {"beta": Fraction(0)}, QQ)
    with pytest.raises(EvaluationError):
        evaluate(Pow(Name("beta"), -2), {"beta": Fraction(0)}, QQ)


def test_format_expr_minimal_parentheses():
    assert format_expr(Pow(BinOp("+", Name("beta"), Num(1)), -1)) == "(beta+1)^-1"
    neg_sum = Neg(BinOp("+", Name("beta"), Num(1)))
    assert format_expr(BinOp("*", neg_sum, Name("eps0"))) == "-(beta+1)*eps0"
    assert (
        format_expr(BinOp("/", Name("y5"), BinOp("*", Name("beta"), Name("eps0"))))
        == "y5/(beta*eps0)"
    )
    assert format_expr(BinOp("-", Num(1), BinOp("+", Num(2), Num(3)))) == "1-(2+3)"


# random canonical expression trees: parse(format(tree)) == tree

_names = st.sampled_from(["beta", "eps0", "eps1", "y1", "y5", "th0", "ths3"])


def _atoms():
    return st.one_of(st.integers(min_value=0, max_value=99).map(Num), _names.map(Name))


def _exprs(depth: int):
    if depth == 0:
        return _atoms()
    sub = _exprs(depth - 1)
    pow_base = st.one_of(_atoms(), sub.map(lambda e: e))
    return st.one_of(
        _atoms(),
        st.tuples(sub, sub).map(lambda t: BinOp("+", *t)),
        # canonical sums never carry a Neg right operand
        st.tuples(sub, sub).filter(lambda t: not isinstance(t[1], Neg)).map(
            lambda t: BinOp("-", *t)
        ),
        st.tuples(sub, sub).filter(lambda t: not isinstance(t[1], Neg)).map(
            lambda t: BinOp("*", *t)
        ),
        st.tuples(sub, sub).filter(lambda t: not isinstance(t[1], Neg)).map(
            lambda t: BinOp("/", *t)
        ),
        st.tuples(pow_base, st.sampled_from([-3, -1, 2, 3, 4])).map(
            lambda t: Pow(*t)
        ),
        sub.filter(lambda e: not isinstance(e, Neg)).map(Neg),
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(3))
def test_expression_print_parse_roundtrip(tree):
    from tdcheck.tables import _ExprParser, _Tokens

    text = format_expr(tree)
    parser = _ExprParser(_Tokens(text, 1), 5)
    back = parser.expr()
    assert parser.t.peek() is None
    assert back == tree


# ---------------------------------------------------------------------------
# fuzzing: short random edits to the bundled tables

EDIT_ALPHABET = " \t\n#[]=:+-*/^()0123459abcdehilnoprsty"


@st.composite
def _edited_table_text(draw):
    text = bundled_table_text(draw(st.integers(0, 5)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        text = text[:at] + draw(st.text(EDIT_ALPHABET, max_size=4)) + text[at + cut:]
    return text


@settings(max_examples=400, deadline=None)
@given(_edited_table_text())
def test_edited_table_parses_to_a_fixed_point_or_is_rejected(text):
    try:
        table = parse_table(text)
    except TableError:
        return
    assert parse_table(serialize_table(table)) == table

