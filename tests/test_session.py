import pytest
from oracle import print_session

from formcone import FieldSpec, ParseError, ValidationError, parse_session
from formcone.criterion import CriterionParams

CURVE_TEXT = """\
# coordinate ring of the monomial curve (t^4, t^5, t^11)
field QQ
vars X, Y, Z
base: X^4 - Y*Z, Y^3 - X*Z, Z^2 - X^3*Y^2
module: 0           # M = A
q: X, Y, Z
a: X @ 1
set n_max = 10
"""


def test_parse_curve_session():
    spec = parse_session(CURVE_TEXT)
    assert spec.field == FieldSpec(0)
    assert spec.variables == ("X", "Y", "Z")
    assert len(spec.base) == 3 and not spec.module
    assert len(spec.system) == 1 and spec.system[0][1] == 1
    assert spec.params.n_max == 10
    ctx = spec.context()
    assert ctx.system[0].degree == 1


def test_prime_field_session():
    spec = parse_session("field FP 5\nvars x\nbase: 0\nmodule: 0\nq: x\na: x\n")
    assert spec.field == FieldSpec(5)
    assert spec.context().ring.field.characteristic == 5


def test_claimed_degree_mismatch_is_an_error():
    text = "field QQ\nvars x, y\nbase: 0\nmodule: 0\nq: x, y\na: x @ 3\n"
    spec = parse_session(text)
    with pytest.raises(ValidationError):
        spec.context()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_session("field QQ\nvars x, y\nq: x + w\n")
    assert err.value.line == 3
    assert err.value.column == 8
    assert "x" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse_session("field FP 6\nvars x\nq: x\n")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_session("field QQ\nvars x\nset bogus = 3\nq: x\n")
    assert err.value.line == 3

    with pytest.raises(ParseError):
        parse_session("field QQ\nvars x\n")  # missing q

    with pytest.raises(ParseError) as err:
        parse_session("vars x\nbase: x\n")  # expressions before the field
    assert err.value.line == 2


def test_expressions_must_follow_declarations():
    with pytest.raises(ParseError):
        parse_session("base: x\nfield QQ\nvars x\nq: x\n")


def test_round_trip_print_parse():
    spec = parse_session(CURVE_TEXT)
    assert parse_session(print_session(spec)) == spec

    other = parse_session(
        "field FP 7\nvars a, b\nbase: a^2 - b^3\nmodule: b^2\nq: a, b\n"
        "a: a @ 1, a*b\nset l_max = 9\nset window = 3\n"
    )
    assert parse_session(print_session(other)) == other


def test_set_directives_override_defaults():
    spec = parse_session("field QQ\nvars x\nq: x\nset n_max = 4\nset degree_cap = 5\n")
    assert spec.params == CriterionParams(n_max=4, degree_cap=5)


def test_duplicate_sections_rejected():
    """Each list section comes at most once, also after an empty "0" list."""
    for section in ("base", "module", "q"):
        with pytest.raises(ParseError) as err:
            parse_session(f"field QQ\nvars x\n{section}: 0\n  {section}: x\nq: x\n")
        assert (err.value.line, err.value.column) == (4, 3)
        assert f"duplicate {section} section" in str(err.value)


def test_directives_are_whole_words():
    # a section whose name starts with a directive is not that directive
    with pytest.raises(ParseError) as err:
        parse_session("field QQ\nvars x\nq: x\nsettings: 3\n")
    assert (err.value.line, err.value.column) == (4, 1)
    assert "unknown section 'settings'" in str(err.value)
    for text in ("fields QQ\nvars x\nq: x\n", "field QQ\nvarsity x\nq: x\n"):
        with pytest.raises(ParseError) as err:
            parse_session(text)
        assert "unrecognized directive" in str(err.value)


@pytest.mark.parametrize("text,line,column", [
    ("field QQ\nfield FP 3\nvars x\nq: x\n", 2, 1),
    ("field QQ\nvars x\n  vars x, y\nq: x\n", 3, 3),
    ("field QQ\nvars x\nq: x\nfield FP 3\n", 4, 1),  # after expressions
    ("field QQ\nvars x\nq: x\nvars x, y\n", 4, 1),
], ids=["field", "indented-vars", "field-after-expressions", "vars-after-expressions"])
def test_repeated_declarations_rejected(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("names,message", [
    ("x, 1y", "bad variable name '1y'"),
    ("x, y, x", "duplicate variable name 'x'"),
], ids=["bad-name", "duplicate-name"])
@pytest.mark.parametrize("field_first", [True, False], ids=["field-first", "vars-first"])
def test_variable_names_are_checked_at_the_vars_line(names, message, field_first):
    """A bad or repeated name is a parse error at the vars line, whether the
    field comes before or after it."""
    lines = ["field QQ", f"  vars {names}"]
    if not field_first:
        lines.reverse()
    text = "\n".join(lines) + "\nq: x\n"
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert (err.value.line, err.value.column) == (2 if field_first else 1, 3)
    assert message in str(err.value)
