import random
from fractions import Fraction

import pytest

from conftest import random_poly
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


def test_a_constant_hashes_as_its_int():
    three = UniPoly("x", (3,))
    assert three == 3 and hash(three) == hash(3) and three in {3}
    assert UniPoly("x") == 0 and UniPoly("x") in {0}
    a = UniPoly("x", (1, 5, 2))
    assert (a - a) in {0} and (a - a + 3) in {3} and a - UniPoly("x", (1, 5, 2)) + 3 == 3
    assert UniPoly("x", (0, 1)) not in {1}


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


def test_subtraction_is_the_signed_add_on_every_ring_type():
    # a - b is one signed add: it must equal a + (-b) and -(b - a), with ints
    # on either side, and come out normalized.
    rng = random.Random("signed-add")
    letters = ("u", "v")
    values = {
        UniPoly: [UniPoly("x"), UniPoly("x", (7,)), UniPoly("x", (0, 1)),
                  *(UniPoly("x", [_random_coeff(rng) for _ in range(rng.randint(0, 9))])
                    for _ in range(30))],
        MultiPoly: [MultiPoly(letters), MultiPoly.const(letters, -4),
                    MultiPoly(letters, {(1, 0): 1}),
                    *(random_poly(rng, letters, max_terms=6) for _ in range(30))],
    }
    ints = (0, 1, -1, 7, -(10 ** 30))
    for cls, polys in values.items():
        for a in polys:
            pairs = [(a, b) for b in polys] + [(a, k) for k in ints] + [(k, a) for k in ints]
            for x, y in pairs:
                diff = x - y
                assert type(diff) is cls
                assert diff == x + (-y) == -(y - x)
                assert diff + y == x
                if cls is UniPoly:
                    _assert_normal(diff)
                else:
                    assert all(diff.terms.values()) and diff == MultiPoly(letters, diff.terms)
            assert (a - a).is_zero


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


def _mac_reference(out, a, b, w, shift, step=1):
    # The double loop _mac replaced, on a copy; out grows only when a term is added.
    out = list(out)
    if a and b and w:
        out += [0] * (shift + step * (len(a) + len(b) - 2) + 1 - len(out))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[shift + step * (i + j)] += w * x * y
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
    for step in (1, 2, 3):
        for a, b, shift in cases:
            span = shift + step * (len(a) + len(b) - 2) + 1 if a and b else 0
            # out shorter than, as long as and longer than the product
            for out_len in (max(span - 2, 0), span, span + 3):
                out = [_random_coeff(rng) for _ in range(out_len)]
                want = _mac_reference(out, a, b, w, shift, step)
                a_list, b_list = list(a), list(b)
                _mac(out, a_list, b_list, w, shift, step)
                assert out == want, (a, b, shift, step)
                assert (a_list, b_list) == (list(a), list(b))


def _random_with_parity(rng, kind):
    # A random polynomial that is even, odd, mixed (both parities nonzero) or one-term.
    n = rng.randint(1, 12)
    coeffs = [_random_coeff(rng) or rng.choice((-1, 1)) for _ in range(n)]
    if kind == "one-term":
        coeffs = [0] * (n - 1) + coeffs[-1:]
    elif kind != "mixed":
        keep = 0 if kind == "even" else 1
        coeffs = [c if i % 2 == keep else 0 for i, c in enumerate(coeffs)]
        if not any(coeffs):
            coeffs = [0] * keep + [5]
    return UniPoly("x", coeffs)


def test_products_of_every_parity_match_the_double_loop():
    # Two operands that each have a parity multiply their nonzero slots only;
    # the result must be the plain product, with no tuple shared.
    rng = random.Random("parity-products")
    kinds = ("even", "odd", "mixed", "one-term")
    for _ in range(60):
        for k1 in kinds:
            for k2 in kinds:
                p, q = _random_with_parity(rng, k1), _random_with_parity(rng, k2)
                want = _naive_product(p, q)
                for got in (p * q, q * p):
                    assert got == want, (p, q)
                    _assert_normal(got)
                    assert got.coeffs is not p.coeffs and got.coeffs is not q.coeffs
    # x^2 - 1 squared: both even, deflated to (-1, 1) * (-1, 1) at step 2
    square = UniPoly("x", (-1, 0, 1)) * UniPoly("x", (-1, 0, 1))
    assert square.coeffs == (1, 0, -2, 0, 1)
