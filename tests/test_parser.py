import random

import pytest

from conftest import CASES, random_poly
from polygram.parser import MAX_NESTING, ParseError, parse_grammar, parse_poly
from polygram.poly import MultiPoly


def test_parse_simple():
    f, g = MultiPoly.variables("f g")
    assert parse_poly("f*g^2 + 4*f^3", "f g") == f * g**2 + 4 * f**3


def test_parse_signs_and_parens():
    u, = MultiPoly.variables("u")
    assert parse_poly("-(u - 2)^2 + 3*u", "u") == -(u - 2)**2 + 3 * u
    assert parse_poly("- u + (+u)", "u").is_zero


def test_parse_infers_alphabet_in_order():
    p = parse_poly("y*x + x^2")
    assert p.letters == ("y", "x")


def test_whitespace_insignificant():
    assert parse_poly("u *  v\t+ 1", "u v") == parse_poly("u*v+1", "u v")


def test_unknown_letter_reported_with_position():
    with pytest.raises(ParseError) as err:
        parse_poly("u*w", "u v")
    assert "undeclared letter 'w'" in str(err.value)
    assert (err.value.line, err.value.col) == (1, 3)


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("u + * v", "u v")
    assert (err.value.line, err.value.col) == (1, 5)


def test_bad_exponent():
    with pytest.raises(ParseError):
        parse_poly("u^-2", "u")
    with pytest.raises(ParseError):
        parse_poly("u^v", "u v")


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("u u", "u")


def test_parse_grammar_g1():
    g = parse_grammar("u -> u*v; v -> 4*u^2")
    u, v = MultiPoly.variables("u v")
    assert g.letters == ("u", "v")
    assert g.rules["u"] == u * v
    assert g.rules["v"] == 4 * u**2


def test_parse_grammar_g2_newline_separated():
    g = parse_grammar("u -> u^2*v\nv -> 4*u^3\n")
    assert str(g) == "u -> u^2*v; v -> 4*u^3"


def test_parse_grammar_undeclared_letter():
    with pytest.raises(ParseError) as err:
        parse_grammar("u -> w")
    assert "undeclared letter 'w'" in str(err.value)


def test_parse_grammar_duplicate_rule():
    with pytest.raises(ParseError) as err:
        parse_grammar("u -> u; u -> u^2")
    assert "duplicate rule" in str(err.value)
    assert err.value.col == 9


def test_parse_grammar_forward_reference():
    g = parse_grammar("u -> v; v -> u")
    assert g.letters == ("u", "v")


def test_parse_grammar_missing_arrow():
    with pytest.raises(ParseError) as err:
        parse_grammar("u v")
    assert "'->'" in str(err.value)


def test_parse_grammar_empty():
    with pytest.raises(ParseError):
        parse_grammar("  \n ; \n")


def test_print_parse_roundtrip_random():
    rng = random.Random(4242)
    letters = ("a", "b", "c")
    for _ in range(CASES):
        p = random_poly(rng, letters)
        assert parse_poly(str(p), letters) == p


def test_long_sums_and_products_parse_without_recursion():
    u, = MultiPoly.variables("u")
    assert parse_poly("+".join(["u"] * 3000), "u") == 3000 * u
    assert parse_poly("*".join(["u"] * 3000), "u") == u ** 3000
    assert parse_poly("-".join(["u"] * 3000)) == -2998 * u
    g = parse_grammar("u -> " + "+".join(["u*v"] * 3000) + "; v -> u")
    assert g.rules["u"] == 3000 * u.with_letters("u v") * MultiPoly.variable("u v", "v")


def test_nesting_limit():
    u, = MultiPoly.variables("u")
    deepest = "(" * MAX_NESTING + "u+1" + ")" * MAX_NESTING
    assert parse_poly(deepest, "u") == u + 1
    with pytest.raises(ParseError) as err:
        parse_poly("(" + deepest + ")", "u")
    assert f"limit of {MAX_NESTING}" in str(err.value)
    assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)
    # The limit is on depth, not on the number of parentheses.
    assert parse_poly("*".join(["(u)"] * 500), "u") == u ** 500


def test_first_error_in_reading_order_is_reported():
    with pytest.raises(ParseError) as err:
        parse_grammar("u -> w; u -> u")
    assert "undeclared letter 'w'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_poly("u + (v", "u")
    assert "undeclared letter 'v'" in str(err.value)


@pytest.mark.parametrize("parse, text, line, col, message", [
    (parse_grammar, "u -> v\r\n\tv -> u*é", 2, 9, "unexpected character 'é'"),
    (parse_grammar, "u -> u\nv ->", 2, 5, "unexpected end of input"),
    (parse_poly, "u + 2²", 1, 6, "unexpected character '²'"),
    (parse_grammar, "u --> u", 1, 3, "expected '->' after the rule letter"),
    (parse_grammar, "u -> u\n\n  v -> u +\n", 3, 11, "expected a value, found ';'"),
])
def test_error_positions_count_tabs_carriage_returns_and_newlines(parse, text, line, col,
                                                                   message):
    # A tab or a carriage return is one column; a newline starts the next line at col 1.
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
