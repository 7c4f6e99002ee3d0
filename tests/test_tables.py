import re
import sys
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcheck.fields import PrimeField, Rationals
from tdcheck.params import random_admissible_context
from tdcheck.realization import context_env
from tdcheck.tables import (
    _PREC_PROD,
    FORMAT_VERSION,
    ONE,
    PHI,
    BinOp,
    EvaluationError,
    Name,
    Neg,
    Num,
    ParseError,
    Pow,
    TableError,
    _Entry,
    _prec,
    bundled_table_text,
    check_grading,
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
    out = [f"# {FORMAT_VERSION}", f"d = {table.d}", "", "[basis]"]
    # one line per row block: the labels of one row_index, in basis order
    out.extend(" ".join(map(str, row)) for _, row in groupby(table.basis, attrgetter("row_index")))
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
    assert len({label.row_index for label in table.basis}) == d + 1  # row blocks


@pytest.mark.parametrize("d", range(6))
def test_bundled_tables_block_structure(d):
    # the file's row blocks are row_index groups: the printer above lays them out so
    table = load_table(d)
    for label in table.basis:
        j = label.row_index
        assert table.a_action[label][0] == (Name(f"th{j}"), label)
        assert table.astar_action[label][0] == (Name(f"ths{j}"), label)


@pytest.mark.parametrize(
    "old,new,error",
    [
        ("r : th1*r\n", "", r"\[action a\] entries must follow basis order exactly$"),
        ("r : ths1*r + y1*phi\n", "r : ths1*r + y1*phi\n" * 2,
         "duplicate entry for r at line 15$"),
        ("phi : th0*phi + r", "phi :", "unexpected end of entry at line 9, column 5$"),
        ("phi : th0*phi + r", "phi : th0*phi + r2",
         "label 'r2' not in basis at line 9, column 17$"),
        ("phi\nr\n", "phi\nr r\n", r"\[action a\] entries must follow basis order exactly$"),
        ("r\n\n[action a]\nphi : th0*phi + r\nr : th1*r\n",
         "r r\n\n[action a]\nphi : th0*phi + r\nr : th1*r\nr : th1*r\n",
         "duplicate entry for r at line 11$"),
    ],
    ids=["missing-entry", "repeated-entry", "empty-entry", "target-not-in-basis",
         "repeated-label", "repeated-label-and-entry"],
)
def test_actions_cover_the_basis_with_nonempty_entries_over_basis_labels(old, new, error):
    text = bundled_table_text(1)
    assert old in text
    with pytest.raises(ParseError, match=error):
        parse_table(text.replace(old, new, 1))


# int() refuses digit strings longer than sys.get_int_max_str_digits() (3.11+)
_LONG = "7" * 5000
_needs_int_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(_LONG),
    reason="int() accepts 5,000 digits on this interpreter",
)
_MIN_D1 = "# module-table v1\nd = 1\n\n[basis]\nphi\n\n[action a]\nphi : th0*phi\n\n[action astar]\nphi : ths0*phi\n"
# d = 2 with lr (row index 0) in place of lr2: rows of 2, 1 and 1 labels
_ROW_SIZES_D2 = (
    "# module-table v1\nd = 2\n\n[basis]\nphi lr\nr\nr2\n\n"
    "[action a]\nphi : th0*phi + r\nlr : th0*lr\nr : th1*r + r2\nr2 : th2*r2\n\n"
    "[action astar]\nphi : ths0*phi\nlr : ths0*lr\nr : ths1*r + y1*phi\nr2 : ths2*r2 + r\n"
)


def _error_case(case_id, d, old, new, error, marks=()):
    return pytest.param(d, old, new, error, id=case_id, marks=marks)


@pytest.mark.parametrize(
    "d,old,new,error",
    [
        # in an entry
        _error_case("unexpected-character", 1, "r : th1*r", "r : th1*&r",
                    "unexpected character '&' at line 10, column 9"),
        _error_case("unexpected-character-after-spaces", 1, "r : th1*r", "r : th1*   &r",
                    "unexpected character '&' at line 10, column 12"),
        _error_case("end-of-entry", 1, "phi : th0*phi + r", "phi : th0*phi +",
                    "unexpected end of entry at line 9, column 15"),
        _error_case("expected-colon", 1, "phi : th0*phi + r", "phi th0*phi + r",
                    "expected ':', found 'th0' at line 9, column 5"),
        _error_case("expected-close-paren", 1, "+ y1*phi", "+ (y1 y1)*phi",
                    "expected ')', found 'y1' at line 14, column 18"),
        _error_case("exponent-not-integer", 1, "+ y1*phi", "+ y1^th0*phi",
                    "exponent must be an integer at line 14, column 17"),
        _error_case("exponent-too-large", 1, "+ y1*phi", "+ y1^65*phi",
                    "exponent exceeds 64 in absolute value at line 14, column 17"),
        _error_case("integer-too-long", 1, "+ y1*phi", f"+ {_LONG}*phi",
                    "integer of 5000 digits is too long at line 14, column 14",
                    _needs_int_limit),
        _error_case("exponent-too-long", 1, "+ y1*phi", f"+ y1^{_LONG}*phi",
                    "integer of 5000 digits is too long at line 14, column 17",
                    _needs_int_limit),
        _error_case("label-exponent-too-long", 1, "+ y1*phi", f"+ y1*r{_LONG}",
                    "integer of 5000 digits is too long at line 14, column 17",
                    _needs_int_limit),
        _error_case("name-index-too-long", 1, "+ y1*phi", f"+ y{_LONG}*phi",
                    "integer of 5000 digits is too long at line 14, column 14",
                    _needs_int_limit),
        _error_case("label-in-parentheses", 1, "+ y1*phi", "+ y1*(phi)",
                    "basis label inside parentheses at line 14, column 18"),
        _error_case("label-not-in-basis", 1, "+ y1*phi", "+ y1*r2",
                    "label 'r2' not in basis at line 14, column 17"),
        _error_case("label-not-in-basis-first-term", 1, "r : th1*r", "r : th1*lr2",
                    "label 'lr2' not in basis at line 10, column 9"),
        _error_case("bad-label-in-entry", 1, "+ y1*phi", "+ y1*r1",
                    "bad basis label 'r1': exponent 1 not canonical at line 14, column 17"),
        _error_case("repeated-symbol-in-entry", 1, "+ y1*phi", "+ y1*rr",
                    "bad basis label 'rr': repeated symbol run at line 14, column 17"),
        _error_case("beta-below-d3", 1, "+ y1*phi", "+ beta*phi",
                    "unknown scalar name 'beta': beta needs d >= 3 at line 14, column 14"),
        _error_case("unknown-name", 1, "+ y1*phi", "+ x1*phi",
                    "unknown scalar name 'x1' at line 14, column 14"),
        _error_case("name-out-of-range", 1, "+ y1*phi", "+ y2*phi",
                    "unknown scalar name 'y2' for d=1 at line 14, column 14"),
        _error_case("name-out-of-range-continued", 5, "y4*beta^-1*lr2", "y6*beta^-1*lr2",
                    "unknown scalar name 'y6' for d=5 at line 86, column 7"),
        _error_case("end-of-entry-continued", 5, "(beta^2*(beta^2+beta-1)))*l4r5\n",
                    "(beta^2*(beta^2+beta-1)))*l4r5 +\n",
                    "unexpected end of entry at line 88, column 106"),
        _error_case("parentheses-too-deep", 1, "+ y1*phi", "+ " + "(" * 65 + "y1" + ")" * 65 + "*phi",
                    "parentheses nest deeper than 64 at line 14, column 78"),
        _error_case("unexpected-token", 1, "+ y1*phi", "+ y1*)phi",
                    "unexpected token ')' at line 14, column 17"),
        _error_case("label-must-end-term", 2, "r : th1*r + r2", "r : th1*r + r*th1*r2",
                    "basis label must end its term at line 11, column 13"),
        _error_case("coefficient-too-deep", 1, "+ y1*phi", "+ (y1" + "+0" * 64 + ")*phi",
                    "coefficient nests deeper than 64 at line 14, column 14"),
        _error_case("term-must-end-with-label", 1, "+ y1*phi", "+ y1*th0",
                    "entry term must end with a basis label at line 14, column 14"),
        _error_case("first-term-must-end-with-label", 1, "r : th1*r", "r : th1*th0",
                    "entry term must end with a basis label at line 10, column 5"),
        _error_case("entry-must-start-with-label", 1, "phi : th0*phi + r", "th0 : th0*phi + r",
                    "entry must start with a basis label at line 9, column 1"),
        _error_case("token-after-term", 1, "r : th1*r", "r : th1*r r",
                    "unexpected token 'r' after term at line 10, column 11"),
        # in the file and its sections
        _error_case("missing-header", 1, "# module-table v1\n", "# module-table v2\n",
                    "missing format header '# module-table v1' at line 1"),
        _error_case("no-header-line", 1, "# module-table v1\n", "",
                    "missing format header '# module-table v1' at line 1"),
        _error_case("d-line", 1, "d = 1", "d = one",
                    "expected 'd = <int>' after the header at line 2"),
        _error_case("d-too-long", 1, "d = 1", f"d = {_LONG}",
                    "integer of 5000 digits is too long at line 2, column 5", _needs_int_limit),
        _error_case("beyond-d5", 1, "d = 1", "d = 6", "no module tables beyond d = 5 at line 2"),
        _error_case("unknown-section", 1, "[action astar]", "[action b]",
                    "unknown section '[action b]' at line 12"),
        _error_case("content-before-section", 1, "d = 1\n", "d = 1\nphi\n",
                    "content before any section at line 3"),
        _error_case("missing-section", 1, "[action astar]\nphi : ths0*phi\nr : ths1*r + y1*phi\n",
                    "", "missing section [action astar]"),
        _error_case("bad-label-in-basis", 1, "phi\nr\n", "phi\nr1\n",
                    "bad basis label 'r1': exponent 1 not canonical at line 6"),
        _error_case("duplicate-entry", 1, "r : th1*r\n", "r : th1*r\nr : th1*r\n",
                    "duplicate entry for r at line 11"),
        _error_case("basis-order", 1, "phi : th0*phi + r\nr : th1*r\n",
                    "r : th1*r\nphi : th0*phi + r\n",
                    "[action a] entries must follow basis order exactly"),
        # in the structure
        _error_case("label-count", 0, bundled_table_text(0), _MIN_D1,
                    "basis has 1 labels, expected 2"),
        _error_case("row-count", 1, "phi\nr\n", "phi r\n", "basis has 1 rows, expected 2"),
        _error_case("row-index", 2, "phi\nr lr2\n", "phi r\nlr2\n",
                    "label r sits in row 0 but has row index 1"),
        _error_case("diagonal-coefficient", 1, "phi : th0*phi", "phi : th1*phi",
                    "action a: entry for phi must start with th0*phi"),
        _error_case("diagonal-coefficient-astar", 1, "r : ths1*r", "r : ths0*r",
                    "action astar: entry for r must start with ths1*r"),
        _error_case("row-size", 2, bundled_table_text(2), _ROW_SIZES_D2,
                    "row 0 holds 2 labels, expected C(2,0) = 1"),
        _error_case("term-not-one-block-up", 1, "r : th1*r\n", "r : th1*r + phi\n",
                    "action a: term phi of r must move one row block up, from row 1 to row 2"
                    " at line 10, column 13"),
        _error_case("term-not-one-block-down", 2, "r2 : ths2*r2 + lr2", "r2 : ths2*r2 + phi",
                    "action astar: term phi of r2 must move one row block down, from row 2 to"
                    " row 1 at line 19, column 16"),
        _error_case("term-not-one-block-down-continued", 5, "+ y4*beta^-1*lr2", "+ y4*beta^-1*phi",
                    "action astar: term phi of lr2l3r4 must move one row block down, from row 2"
                    " to row 1 at line 86, column 7"),
    ],
)
def test_each_table_error_has_its_pinned_message(d, old, new, error):
    text = bundled_table_text(d)
    assert old in text
    with pytest.raises(TableError, match="^" + re.escape(error) + "$") as err:
        parse_table(text.replace(old, new, 1))
    if " at line " in error:  # the parser's own errors carry their place
        assert isinstance(err.value, ParseError)


def test_a_table_built_past_the_parser_is_graded_without_a_position():
    table = load_table(1)
    r = parse_label("r")
    check_grading(table)
    lowered = table._replace(a_action={**table.a_action, r: table.a_action[r] + [(ONE, PHI)]})
    with pytest.raises(ParseError, match="^action a: term phi of r must move one row block up,"
                                         " from row 1 to row 2$"):
        check_grading(lowered)
    emptied = table._replace(astar_action={**table.astar_action, PHI: []})
    with pytest.raises(TableError, match="^action astar: entry for phi must start with ths0\\*phi$"):
        check_grading(emptied)


@pytest.mark.parametrize("name", ["y01", "th00", "ths01", "eps00"])
def test_scalar_index_with_a_leading_zero_is_rejected_with_position(name):
    # only the canonical spelling (y1, th0, ...) is ever bound to a value
    text = bundled_table_text(2).replace("r : ths1*r + y1*phi", f"r : ths1*r + {name}*phi")
    index = name.lstrip("thsyep")
    error = f"unknown scalar name {name!r}: index {index} has a leading zero at line 17, column 14"
    with pytest.raises(ParseError, match="^" + re.escape(error) + "$"):
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


def test_term_error_points_at_the_first_bad_term():
    text = bundled_table_text(2).replace("r : th1*r + r2", "r : th1*r + y1 + r*th1*r2")
    error = "entry term must end with a basis label at line 11, column 13"
    with pytest.raises(ParseError, match="^" + re.escape(error) + "$"):
        parse_table(text)


def _d1_with_y1_as(coeff: str) -> str:
    return bundled_table_text(1).replace("+ y1*phi", f"+ {coeff}*phi")


def test_parenthesis_depth_is_bounded():
    assert parse_table(_d1_with_y1_as("(" * 64 + "y1" + ")" * 64)) == load_table(1)
    with pytest.raises(ParseError, match="parentheses nest deeper than 64 at line 14"):
        parse_table(_d1_with_y1_as("(" * 300 + "y1" + ")" * 300))


def test_exponent_is_bounded():
    assert parse_table(_d1_with_y1_as("y1^64*y1^-64*y1"))
    for exp in ("65", "-65", "3000000"):
        text = _d1_with_y1_as(f"th0^{exp}")
        with pytest.raises(ParseError, match="exceeds 64 in absolute value at line 14") as err:
            parse_table(text)
        line = text.splitlines()[13]
        assert err.value.col == line.index(exp.lstrip("-")) + 1  # at the exponent


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
    assert evaluate(expr, env, QQ, {}) == Fraction(5, 4) + 2


def test_evaluate_reports_missing_name_and_zero_division():
    with pytest.raises(EvaluationError):
        evaluate(Name("y1"), {}, QQ, {})
    with pytest.raises(EvaluationError):
        evaluate(BinOp("/", Num(1), Name("beta")), {"beta": Fraction(0)}, QQ, {})
    with pytest.raises(EvaluationError):
        evaluate(Pow(Name("beta"), -2), {"beta": Fraction(0)}, QQ, {})


def operator_nodes(table):
    """Every BinOp, Neg and Pow in the table's coefficients, once per occurrence."""
    stack = [c for action in (table.a_action, table.astar_action)
             for terms in action.values() for c, _ in terms]
    out = []
    while stack:
        node = stack.pop()
        if isinstance(node, (BinOp, Neg, Pow)):
            out.append(node)
            stack += [c for c in node if isinstance(c, tuple)]
    return out


@pytest.mark.parametrize("d,distinct,total", [(3, 31, 49), (4, 89, 182), (5, 411, 1455)])
def test_identical_subtrees_are_one_node_evaluated_once_per_memo(d, distinct, total):
    table = load_table(d)
    nodes = operator_nodes(table)
    assert (len({id(n) for n in nodes}), len(nodes)) == (distinct, total)
    assert len(set(nodes)) == distinct  # equal subtrees are the same object
    env = context_env(random_admissible_context(d, PrimeField(), 7), PrimeField())
    coeffs = [c for action in (table.a_action, table.astar_action)
              for terms in action.values() for c, _ in terms]
    memo = {}
    values = [evaluate(c, env, PrimeField(), memo) for c in coeffs]
    assert len(memo) == distinct
    assert values == [evaluate(c, env, PrimeField(), {}) for c in coeffs]


def test_a_negated_bare_label_term_is_a_minus_term():
    # "+ -r" reads as "- r": the same table, with the table's one Neg(ONE) node
    text = bundled_table_text(1).replace("ths1*r + y1*phi", "ths1*r - phi")
    minus = parse_table(text.replace("th0*phi + r", "th0*phi - r"))
    plus_neg = parse_table(text.replace("th0*phi + r", "th0*phi + -r"))
    assert plus_neg == minus
    for table in (minus, plus_neg):
        (_, _), (a_coeff, _) = table.a_action[PHI]
        (_, _), (astar_coeff, _) = table.astar_action[parse_label("r")]
        assert a_coeff == Neg(ONE) and a_coeff is astar_coeff


def test_a_memo_keeps_only_values_and_changes_no_error():
    # (beta+1) is one node in both terms; at beta = -1 it evaluates to 0 and
    # each division fails with its own text, with or without the memo
    _, terms = _Entry([(1, "phi : (y1/(beta+1))*phi + (y2/(beta+1))*phi")], 5, {PHI}, {}).read()
    (a, _), (b, _) = terms
    assert a.rhs is b.rhs
    env = {"y1": Fraction(1), "y2": Fraction(2), "beta": Fraction(-1)}
    memo = {}
    for coeff in (a, b):
        for m in (memo, {}):
            with pytest.raises(EvaluationError) as err:
                evaluate(coeff, env, QQ, m)
            assert str(err.value) == f"division by zero in {format_expr(coeff)!r}"
    assert memo == {id(a.rhs): 0}  # the failed divisions are not kept


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
    entry = _Entry([(1, f"phi : ({format_expr(tree)})*phi")], 5, {PHI}, {})
    assert entry.read() == (PHI, [(tree, PHI)])


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

