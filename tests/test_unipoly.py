from fractions import Fraction

import pytest

from polygram.classical import TruncSeries
from polygram.poly import MultiPoly
from polygram.quadratic import QuadraticRing
from polygram.unipoly import UniPoly


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


def test_arithmetic_results_reduce_integral_fractions():
    half = Fraction(1, 2)
    a = UniPoly("x", (half, Fraction(3, 2), half))
    b = UniPoly("x", (half, -Fraction(3, 2), -half))
    cases = {
        "add": a + b,
        "radd": Fraction(1, 2) + a - Fraction(1, 2) * UniPoly("x", (2, 3, 1)),
        "sub": a - UniPoly("x", (Fraction(-3, 2), Fraction(1, 2), half)),
        "scalar-mul": a * 2,
        "scalar-rmul": Fraction(4) * a,
        "mul": UniPoly("x", (half, half)) * UniPoly("x", (2, -2)),
        "derivative": UniPoly("x", (7, half, Fraction(1, 4), Fraction(1, 3))).derivative(),
    }
    want = {
        "add": UniPoly("x", (1,)),
        "radd": UniPoly("x", ()),
        "sub": UniPoly("x", (2, 1)),
        "scalar-mul": UniPoly("x", (1, 3, 1)),
        "scalar-rmul": UniPoly("x", (2, 6, 2)),
        "mul": UniPoly("x", (1, 0, -1)),
        "derivative": UniPoly("x", (Fraction(1, 2), Fraction(1, 2), 1)),
    }
    for name, got in cases.items():
        assert got == want[name], name
        if name == "derivative":
            assert type(got.coeffs[-1]) is int
            assert [type(c) for c in got.coeffs] == [Fraction, Fraction, int]
            continue
        _assert_normal(got)


def test_cancellation_drops_trailing_zeros():
    a = UniPoly("x", (1, Fraction(5, 3), Fraction(2, 3)))
    b = UniPoly("x", (1, Fraction(2, 3), Fraction(2, 3)))
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
    with pytest.raises(ValueError):
        UniPoly("1x", (1,))
    assert UniPoly("x", (Fraction(4, 2), 0, 0)).coeffs == (2,)
    assert type(UniPoly("x", (Fraction(4, 2),)).coeffs[0]) is int


def test_power_matches_repeated_products():
    x = UniPoly.variable("x")
    p = x + Fraction(1, 2)
    ring = QuadraticRing(x * x - 1)
    e = ring.of(x) + ring.root()
    m = MultiPoly("u v", {(1, 0): 1, (0, 1): -2})
    s = TruncSeries(6, "x", (1, x, Fraction(-1, 3), 2))
    for value, one in ((p, UniPoly.constant("x", 1)), (e, ring.one()),
                       (m, MultiPoly.const("u v", 1)), (s, TruncSeries.constant(6, "x", 1))):
        product = one
        for k in range(21):
            assert value ** k == product
            product = product * value


def test_reversed_subtraction_on_every_ring_type():
    x = UniPoly.variable("x")
    ring = QuadraticRing(x * x - 1)
    values = (
        MultiPoly("u v", {(1, 0): 3, (0, 2): -1}),
        x * x - Fraction(1, 2) * x + 5,
        ring.of(x + 2, x),
        TruncSeries(4, "x", (2, x, Fraction(1, 3))),
    )
    for p in values:
        assert 1 - p == -(p - 1)
        assert p - p == 0 * p
        assert (1 - p) + p == p ** 0


def test_power_keeps_each_exponent_check():
    x = UniPoly.variable("x")
    ring = QuadraticRing(x * x - 1)
    for value in (x, ring.root(), MultiPoly.variable("u", "u"),
                  TruncSeries.constant(3, "x", 2)):
        for bad in (-1, 1.0, "2"):
            with pytest.raises(ValueError, match="exponent must be a nonnegative int"):
                value ** bad


def test_str_pins_signs_fractions_and_leading_minus():
    p = UniPoly("x", (Fraction(-1, 2), -1, 0, Fraction(3, 4), 1, -7))
    assert str(p) == "-1/2 - x + 3/4*x^3 + x^4 - 7*x^5"
    assert str(UniPoly("x", (0, -1))) == "-x"
    assert str(UniPoly("x")) == "0"
    f, g = MultiPoly.variables("f g")
    assert str(-3 * f * g**2 + 2 * f - 1 + g) == "-1 + g + 2*f - 3*f*g^2"
    assert str(-f**2 + g) == "g - f^2"
    assert str(-g) == "-g"
    assert str(MultiPoly.zero("f g")) == "0"


def _naive_product(p: UniPoly, q: UniPoly) -> UniPoly:
    """Reference product: every coefficient pair, no shortcut."""
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UniPoly(p.var, out)


def test_one_term_products_match_the_double_loop():
    half = Fraction(1, 2)
    one_term = [UniPoly("x", (0,) * e + (c,)) for e in (0, 1, 5, 30)
                for c in (1, -3, half, Fraction(2, 3))]
    others = [
        UniPoly("x"),
        UniPoly("x", (7,)),
        UniPoly("x", (1, -1, 0, 2)),
        UniPoly("x", (2, Fraction(4, 3), 0, 6)),
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


def test_one_term_product_normalizes_integral_fractions():
    got = UniPoly("x", (0, Fraction(3, 2))) * UniPoly("x", (Fraction(2, 3), 0, Fraction(4, 3)))
    assert got.coeffs == (0, 1, 0, 2)
    _assert_normal(got)
    got = UniPoly("x", (Fraction(1, 2), Fraction(3, 2))) * UniPoly("x", (2,))
    assert got.coeffs == (1, 3)
    _assert_normal(got)


def test_product_shares_no_coefficient_tuple_with_an_operand():
    one = UniPoly("x", (1,))
    for p in (UniPoly("x", (1, 2, 3)), UniPoly("x", (0, 0, 4))):
        for got in (p * one, one * p):
            assert got == p
            assert got.coeffs is not p.coeffs
