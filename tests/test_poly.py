import random

import pytest

from conftest import CASES, random_poly
from polygram.poly import AlphabetMismatch, MultiPoly
from test_kernel import partial_derivative


def test_add_doubles():
    f, g = MultiPoly.variables("f g")
    assert f * g + f * g == 2 * f * g


def test_add_zero_identity():
    f, g = MultiPoly.variables("f g")
    p = f * g**2 + 4 * f**3
    assert p + MultiPoly("f g") == p


def test_add_inverse_gives_empty_term_map():
    f, g = MultiPoly.variables("f g")
    p = f * g
    total = p + (-1) * p
    assert total.is_zero and total.terms == {}


def test_mul_examples():
    f, g = MultiPoly.variables("f g")
    assert f * g == MultiPoly("f g", {(1, 1): 1})
    u, v = MultiPoly.variables("u v")
    assert (u + v) * (u - v) == u**2 - v**2
    assert f * (f * g**2 + 4 * f**3) == f**2 * g**2 + 4 * f**4


def test_alphabet_mismatch():
    f, g = MultiPoly.variables("f g")
    u, v = MultiPoly.variables("u v")
    with pytest.raises(AlphabetMismatch):
        f + u
    # one-term operands on either side, and an alphabet that differs only in order
    swapped = MultiPoly.variable("g f", "f")
    for a, b in ((f, u), (f + g, u), (u, f + g), (f + g, u + v), (f, swapped),
                 (f + g, swapped), (swapped, f + g)):
        with pytest.raises(AlphabetMismatch):
            a * b


def _naive_product(a, b):
    # The product by definition: every term pair summed, zero sums dropped.
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_one_term_products_match_the_naive_product():
    rng = random.Random(31)
    for letters in (("f", "g"), ("f", "g", "h")):
        one_terms = [MultiPoly(letters, {tuple(rng.randint(0, 4) for _ in letters): c})
                     for c in (-7, -1, 1, 3, -2, 5)]
        one_terms += [MultiPoly.const(letters, -3), MultiPoly.const(letters, 1)]
        others = [random_poly(rng, letters, max_terms=8) for _ in range(40)]
        others += [MultiPoly(letters), MultiPoly.const(letters, -4), *one_terms]
        for m in one_terms:
            assert len(m.terms) == 1
            for p in others:
                want = _naive_product(p, m)
                assert (p * m).terms == want
                assert (m * p).terms == want


def test_products_do_not_share_terms_with_an_operand():
    f, g, h = MultiPoly.variables("f g h")
    one = MultiPoly.const("f g h", 1)
    p = f * g - 2 * h
    for a, b in ((p, one), (one, p), (p, f), (f, p), (f, g), (p, p)):
        before = (dict(a.terms), dict(b.terms))
        product = a * b
        assert product.terms is not a.terms and product.terms is not b.terms
        product.terms[(9, 9, 9)] = 1
        assert (a.terms, b.terms) == before


def test_letter_validation():
    with pytest.raises(ValueError):
        MultiPoly.variables("2x y")
    with pytest.raises(ValueError):
        MultiPoly.variables("x x")
    with pytest.raises(ValueError):
        MultiPoly.variable("x y", "z")


@pytest.mark.parametrize("build, error", [
    (lambda: MultiPoly(("u",), {(1,): True}), TypeError),
    (lambda: MultiPoly.const(("u",), True), TypeError),
    (lambda: MultiPoly(("u",), {(1,): 2.0}), TypeError),
    (lambda: MultiPoly(("u",), {(1.5,): 2}), TypeError),
    (lambda: MultiPoly(("u",), {(True,): 3}), TypeError),
    (lambda: MultiPoly(("u",), {(-1,): 3}), ValueError),
], ids=["bool-coeff", "bool-const", "float-coeff", "float-exponent", "bool-exponent",
        "negative-exponent"])
def test_values_are_checked_where_they_enter(build, error):
    with pytest.raises(error):
        build()


def test_partial_derivative_examples():
    u, v = MultiPoly.variables("u v")
    assert partial_derivative(u**3 * v, "u") == 3 * u**2 * v
    assert partial_derivative(v**2, "u").is_zero
    assert partial_derivative(1 + u**2, "u") == 2 * u
    with pytest.raises(ValueError):
        partial_derivative(u, "w")


def test_canonical_text_form():
    f, g = MultiPoly.variables("f g")
    assert str(f * g**2 + 4 * f**3) == "f*g^2 + 4*f^3"
    assert str(MultiPoly("f g")) == "0"
    assert str(-f + 3) == "3 - f"
    assert str(-3 * f**2) == "-3*f^2"
    assert str(MultiPoly.const("f g", -7)) == "-7"
    # derive's line: the same text with its newline, built in one join
    for p in (f * g**2 + 4 * f**3, MultiPoly("f g"), -f + 3, MultiPoly.const("f g", -7)):
        assert p._text("\n") == str(p) + "\n"


def test_json_roundtrip():
    f, g = MultiPoly.variables("f g")
    p = f * g**2 - 4 * f**3 + 12345678901234567890 * g
    data = p.to_json_dict()
    assert data == {"letters": ["f", "g"],
                    "terms": [{"coeff": "12345678901234567890", "exps": [0, 1]},
                              {"coeff": "1", "exps": [1, 2]},
                              {"coeff": "-4", "exps": [3, 0]}]}
    terms = {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]}
    assert MultiPoly(data["letters"], terms) == p


def test_degree_and_support():
    f, g = MultiPoly.variables("f g")
    assert (f * g**2).degree() == 3
    assert MultiPoly("f g").degree() == -1


def test_with_letters_cannot_drop_used():
    f, g = MultiPoly.variables("f g")
    with pytest.raises(ValueError):
        (f * g).with_letters("f")


def test_a_constant_hashes_as_its_int():
    u, v = MultiPoly.variables("u v")
    three = MultiPoly.const(("u",), 3)
    assert three == 3 and hash(three) == hash(3) and three in {3}
    assert MultiPoly(("u",)) == 0 and MultiPoly(("u",)) in {0}
    assert (u * v - v * u) in {0} and (u - u + 3) in {3}
    assert MultiPoly.variable(("u",), "u") not in {1}


def test_equal_values_built_two_ways_hash_equal():
    u, v = MultiPoly.variables("u v")
    for a, b in [((u + v) * (u - v), u**2 - v**2),
                 (u * v, MultiPoly(("u", "v"), {(1, 1): 1})),
                 (MultiPoly.variable(("u",), "u").with_letters(("u", "v")), u)]:
        assert a == b and hash(a) == hash(b)


def test_ring_axioms_random():
    rng = random.Random(20260810)
    letters = tuple("abcde")
    one = MultiPoly.const(letters, 1)
    for _ in range(CASES):
        a = random_poly(rng, letters)
        b = random_poly(rng, letters)
        c = random_poly(rng, letters)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + 0 == a


def test_leibniz_rule_random():
    rng = random.Random(7)
    letters = ("u", "v", "w")
    for _ in range(CASES):
        a = random_poly(rng, letters)
        b = random_poly(rng, letters)
        x = rng.choice(letters)
        assert partial_derivative(a * b, x) == \
            a * partial_derivative(b, x) + b * partial_derivative(a, x)
