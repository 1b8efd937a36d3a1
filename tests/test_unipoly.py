import random
from fractions import Fraction

import pytest

from polygram.poly import MultiPoly
from polygram.unipoly import UniPoly, _mac


def _fresh(p: UniPoly) -> UniPoly:
    """The same value built again through the validating constructor."""
    return UniPoly(p.var, list(p.coeffs))


def _assert_normal(p: UniPoly) -> None:
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    fresh = _fresh(p)
    assert p == fresh
    assert hash(p) == hash(fresh)
    assert p.coeffs == fresh.coeffs


def test_cancellation_drops_trailing_zeros():
    a = UniPoly("x", (1, 5, 2))
    b = UniPoly("x", (1, 4, 2))
    diff = a - b
    assert diff.coeffs == (0, 1)
    _assert_normal(diff)
    assert (a - a).coeffs == ()
    assert (a * 0).is_zero
    assert UniPoly("x", (5,)).derivative().coeffs == ()


def test_constructor_still_validates():
    with pytest.raises(TypeError):
        UniPoly("x", (1, True))
    with pytest.raises(TypeError):
        UniPoly("x", (1.5,))
    with pytest.raises(TypeError):
        UniPoly("x", (Fraction(4, 2),))
    with pytest.raises(ValueError):
        UniPoly("1x", (1,))
    assert UniPoly("x", (2, 0, 0)).coeffs == (2,)
    x = UniPoly.variable("x")
    for op in (lambda p: p + Fraction(1), lambda p: Fraction(1) + p,
               lambda p: p * Fraction(2), lambda p: Fraction(2) * p, lambda p: p * True):
        with pytest.raises(TypeError):
            op(x)
    assert UniPoly("x", (1,)) != Fraction(1)


def test_power_matches_repeated_products():
    x = UniPoly.variable("x")
    p = x - 3
    m = MultiPoly("u v", {(1, 0): 1, (0, 1): -2})
    for value, one in ((p, UniPoly.constant("x", 1)), (m, MultiPoly.const("u v", 1))):
        product = one
        for k in range(21):
            assert value ** k == product
            product = product * value


def test_reversed_subtraction_on_every_ring_type():
    x = UniPoly.variable("x")
    values = (
        MultiPoly("u v", {(1, 0): 3, (0, 2): -1}),
        x * x - 3 * x + 5,
    )
    for p in values:
        assert 1 - p == -(p - 1)
        assert p - p == 0 * p
        assert (1 - p) + p == p ** 0


def test_power_keeps_each_exponent_check():
    x = UniPoly.variable("x")
    for value in (x, MultiPoly.variable("u", "u")):
        for bad in (-1, 1.0, "2"):
            with pytest.raises(ValueError, match="exponent must be a nonnegative int"):
                value ** bad


def test_str_pins_signs_and_leading_minus():
    p = UniPoly("x", (-2, -1, 0, 3, 1, -7))
    assert str(p) == "-2 - x + 3*x^3 + x^4 - 7*x^5"
    assert str(UniPoly("x", (0, -1))) == "-x"
    assert str(UniPoly("x")) == "0"
    f, g = MultiPoly.variables("f g")
    assert str(-3 * f * g**2 + 2 * f - 1 + g) == "-1 + g + 2*f - 3*f*g^2"
    assert str(-f**2 + g) == "g - f^2"
    assert str(-g) == "-g"
    assert str(MultiPoly("f g")) == "0"


def _naive_product(p: UniPoly, q: UniPoly) -> UniPoly:
    """Reference product: every coefficient pair, no shortcut."""
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UniPoly(p.var, out)


def test_one_term_products_match_the_double_loop():
    one_term = [UniPoly("x", (0,) * e + (c,)) for e in (0, 1, 5, 30)
                for c in (1, -3, 2, -7)]
    others = [
        UniPoly("x"),
        UniPoly("x", (7,)),
        UniPoly("x", (1, -1, 0, 2)),
        UniPoly("x", (2, -4, 0, 6)),
        # one-term only from degree 40 up: zeros below, then one coefficient
        UniPoly("x", (0,) * 40 + (5,)),
        UniPoly("x", (0,) * 39 + (1, 5)),
        UniPoly("x", list(range(-20, 21))),
    ]
    for p in one_term:
        for q in others:
            for got in (p * q, q * p):
                want = _naive_product(p, q)
                assert got == want, (p, q)
                assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_product_shares_no_coefficient_tuple_with_an_operand():
    one = UniPoly("x", (1,))
    for p in (UniPoly("x", (1, 2, 3)), UniPoly("x", (0, 0, 4))):
        for got in (p * one, one * p):
            assert got == p
            assert got.coeffs is not p.coeffs


def _mac_reference(out, a, b, w, shift):
    # The double loop _mac replaced, on a copy; out grows only when a term is added.
    out = list(out)
    if a and b and w:
        out += [0] * (shift + len(a) + len(b) - 1 - len(out))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[shift + i + j] += w * x * y
    return out


def _random_coeff(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 3:
        return rng.choice((-1, 1)) * rng.randrange(10 ** 199, 10 ** 200)
    return rng.randint(-9, 9)


@pytest.mark.parametrize("w", [0, 1, -3, 10 ** 50])
def test_mac_matches_a_double_loop(w):
    rng = random.Random(f"mac-{w}")
    cases = [((), (), 0), ((), (1, 2), 3), ((5, 0, -1), (), 0)]
    for _ in range(200):
        a = tuple(_random_coeff(rng) for _ in range(rng.randint(0, 7)))
        b = tuple(_random_coeff(rng) for _ in range(rng.randint(0, 7)))
        cases.append((a, b, rng.randint(0, 5)))
    for a, b, shift in cases:
        span = shift + len(a) + len(b) - 1 if a and b else 0
        # out shorter than, as long as and longer than the product
        for out_len in (max(span - 2, 0), span, span + 3):
            out = [_random_coeff(rng) for _ in range(out_len)]
            want = _mac_reference(out, a, b, w, shift)
            a_list, b_list = list(a), list(b)
            _mac(out, a_list, b_list, w, shift)
            assert out == want
            assert (a_list, b_list) == (list(a), list(b))
