import math
import random
from fractions import Fraction

import pytest

from polygram import classical
from polygram.classical import (_series_invert, _series_mul, chebyshev_t, chebyshev_u,
                                closed_form_series, legendre_like, narayana_like,
                                secant_derivative_poly, tangent_derivative_poly)
from polygram.triangles import factorial
from polygram.unipoly import UniPoly
from polygram.verify import check_alternating_counts, run_target


def test_tangent_and_secant_polys_small():
    assert tangent_derivative_poly(0) == UniPoly("u", (0, 1))
    assert tangent_derivative_poly(1) == UniPoly("u", (1, 0, 1))
    assert secant_derivative_poly(0) == 1
    assert secant_derivative_poly(1) == UniPoly("u", (0, 1))
    assert secant_derivative_poly(2) == UniPoly("u", (1, 0, 2))


def test_degrees():
    for n in range(16):
        assert tangent_derivative_poly(n).degree == n + 1
        assert secant_derivative_poly(n).degree == n


def test_parity_random_points():
    rng = random.Random(55)
    for _ in range(1000):
        n = rng.randint(0, 15)
        r = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        p = tangent_derivative_poly(n)
        q = secant_derivative_poly(n)
        assert p(-r) == (-1) ** (n + 1) * p(r)
        assert q(-r) == (-1) ** n * q(r)


def test_legendre_like_values():
    x = UniPoly.variable("x")
    assert legendre_like(1) == 2 * x
    assert legendre_like(2) == UniPoly("x", (-2, 0, 6))
    for n in range(1, 13):
        poly = legendre_like(n)
        assert poly(1) == 2 ** n
        reflected = UniPoly("x", [c if i % 2 == 0 else -c for i, c in enumerate(poly.coeffs)])
        assert reflected == (-1) ** n * poly


def test_narayana_like_values():
    x = UniPoly.variable("x")
    assert narayana_like(1) == 1
    assert narayana_like(2) == 2 * x


def _naive_binomial_sum(weights, var="x"):
    # The definition with one power per term, as a reference:
    # sum_k weights[k] (x+1)^k (x-1)^(m-k) with m = len(weights) - 1.
    x = UniPoly.variable(var)
    m = len(weights) - 1
    total = UniPoly(var)
    for k, w in enumerate(weights):
        total = total + w * (x + 1) ** k * (x - 1) ** (m - k)
    return total


def _naive_legendre_like(n, var="x"):
    return _naive_binomial_sum([math.comb(n, k) ** 2 for k in range(n + 1)], var)


def _naive_narayana_like(n, var="x"):
    total = _naive_binomial_sum([math.comb(n, k) * math.comb(n, k + 1) for k in range(n)], var)
    return UniPoly(var, [c // n for c in total.coeffs])


def test_legendre_and_narayana_match_the_naive_sums():
    for n in range(1, 31):
        assert legendre_like(n, "h") == _naive_legendre_like(n, "h")
        assert narayana_like(n) == _naive_narayana_like(n)


def test_taylor_shift_witness_sum_matches_the_naive_sum():
    # Two Taylor shifts and a 2^j shift between them, against products of
    # powers of x+1 and x-1, for random signed weights (zeros included) and
    # every m = 0..25; no weights at all is the zero sum.
    rng = random.Random("taylor-shift")
    assert classical._horner_binomial_sum([], "x") == UniPoly("x")
    for m in range(26):
        for _ in range(4):
            weights = [rng.choice((0, rng.randint(-10 ** 9, 10 ** 9))) for _ in range(m + 1)]
            assert (classical._horner_binomial_sum(weights, "h")
                    == _naive_binomial_sum(weights, "h")), weights
    # p(t + 1), highest degree first
    assert classical._taylor_shift([1, 0, 0, 0]) == [1, 3, 3, 1]
    assert classical._taylor_shift([2, -1]) == [2, 1]
    assert classical._taylor_shift([]) == []


def test_chebyshev_values():
    x = UniPoly.variable("x")
    assert chebyshev_t(2) == 2 * x**2 - 1
    assert chebyshev_t(3) == 4 * x**3 - 3 * x
    assert chebyshev_u(2) == 4 * x**2 - 1
    for n in range(11):
        assert chebyshev_t(n)(1) == 1
        assert chebyshev_u(n)(1) == n + 1


def _sine_cosine(order):
    # n! [t^n] of sin and cos: 0, 1, 0, -1 and 1, 0, -1, 0, repeating.
    return ([[(0, 1, 0, -1)[m % 4]] for m in range(order + 1)],
            [[(1, 0, -1, 0)[m % 4]] for m in range(order + 1)])


def _values(series):
    """Each coefficient list as a UniPoly in u, trailing zeros dropped."""
    return [UniPoly("u", c) for c in series]


def test_series_expansions():
    # Exponential coefficients: the tangent and secant numbers themselves.
    sine, cosine = _sine_cosine(7)
    sec = _series_invert(cosine)
    assert _values(sec) == [1, 0, 1, 0, 5, 0, 61, 0]
    assert _values(_series_mul(sine, sec)) == [0, 1, 0, 2, 0, 16, 0, 272]
    tan_side, sec_side = closed_form_series(7)
    assert _values(tan_side) == [tangent_derivative_poly(n) for n in range(8)]
    assert _values(sec_side) == [secant_derivative_poly(n) for n in range(8)]


def _random_series(rng, order, c0=None):
    """Integer coefficient lists; some zero, some constant, some of degree 3."""
    coeffs = [[rng.randint(-9, 9) for _ in range(rng.choice((0, 1, 4)))]
              for _ in range(order + 1)]
    if c0 is not None:
        coeffs[0] = [c0]
    return coeffs


def _reference_product(a, b, order):
    """n! sum_k a_k/k! b_(n-k)/(n-k)!, in Fractions, coefficient by coefficient of u."""
    out = []
    for n in range(order + 1):
        acc = [Fraction(0)] * 9
        for k in range(n + 1):
            w = factorial(n) * Fraction(1, factorial(k)) * Fraction(1, factorial(n - k))
            for i, x in enumerate(a[k]):
                for j, y in enumerate(b[n - k]):
                    acc[i + j] += w * x * y
        assert all(c.denominator == 1 for c in acc)
        out.append(UniPoly("u", [int(c) for c in acc]))
    return out


def test_series_product_is_the_binomial_convolution():
    rng = random.Random(8)
    for _ in range(40):
        order = rng.randint(0, 9)
        a, b = _random_series(rng, order), _random_series(rng, order)
        before = [list(c) for c in a + b]
        assert _values(_series_mul(a, b)) == _reference_product(a, b, order)
        assert a + b == before
    # Truncated at the shorter order.
    assert _series_mul([[1], [2]], [[3]]) == [[3]]


def test_series_inverse_times_series_is_one():
    rng = random.Random(9)
    for _ in range(40):
        order = rng.randint(0, 9)
        s = _random_series(rng, order, c0=rng.choice((1, -1)))
        one = [1] + [0] * order
        assert _values(_series_mul(s, _series_invert(s))) == one
        assert _values(_series_mul(_series_invert(s), s)) == one


def test_series_inversion_is_exact():
    sine, cosine = _sine_cosine(10)
    assert _values(_series_mul(cosine, _series_invert(cosine))) == [1] + [0] * 10
    with pytest.raises(ArithmeticError):
        _series_invert(sine)
    # A t^0 term with trailing zeros is still the constant 1.
    assert _values(_series_invert([[1, 0], [0, 1]])) == [1, UniPoly("u", (0, -1))]


@pytest.mark.parametrize("c0", [0, 2, -2, [0, 1], [1, 1], []])
def test_series_inversion_refuses_other_constant_terms(c0):
    # A broken invariant, not bad input: ArithmeticError (exit 3), not ValueError.
    head = [c0] if isinstance(c0, int) else c0
    with pytest.raises(ArithmeticError, match="t\\^0 coefficient of 1 or -1"):
        _series_invert([head, [1], [3]])


@pytest.mark.parametrize("name", ["tangent_derivative_poly", "secant_derivative_poly"])
def test_generating_functions_catch_a_wrong_coefficient(monkeypatch, name):
    real = getattr(classical, name)

    def bumped(n, *args):
        p = real(n, *args)
        if n != 5:
            return p
        return UniPoly(p.var, p.coeffs[:-1] + (p.coeffs[-1] + 1,))

    monkeypatch.setattr(classical, name, bumped)
    report = run_target("egf", 8)
    assert not report.ok
    assert [c.n for c in report.checks if not c.ok] == [5]


def test_scaled_tan_sec_reduction():
    report = run_target("prop12", 12)
    assert report.ok
    assert len(report.checks) == 24


def test_generating_function_coefficients():
    report = run_target("egf", 12)
    assert report.ok
    names = {c.name for c in report.checks}
    assert names == {"tan-side", "sec-side"}


def test_alternating_counts():
    report = check_alternating_counts(8, 6)
    assert report.ok
    values = [tangent_derivative_poly(n)(0) + secant_derivative_poly(n)(0)
              for n in range(1, 9)]
    assert values == [1, 1, 2, 5, 16, 61, 272, 1385]


def test_recurrences_run_past_the_recursion_limit():
    assert chebyshev_t(1200)(1) == 1
    assert chebyshev_u(1200)(1) == 1201
    assert tangent_derivative_poly(700).degree == 701
    assert secant_derivative_poly(700).degree == 700


def test_recurrence_rows_do_not_depend_on_call_order():
    # Fresh letters, so no earlier call has cached these rows.
    x = UniPoly.variable("w")
    want_t = [UniPoly.constant("w", 1), x]
    want_u = [UniPoly.constant("w", 1), 2 * x]
    for _ in range(2, 40):
        want_t.append(2 * x * want_t[-1] - want_t[-2])
        want_u.append(2 * x * want_u[-1] - want_u[-2])
    order = list(range(40))
    random.Random(3).shuffle(order)
    for n in order:
        assert chebyshev_t(n, "w") == want_t[n]
        assert chebyshev_u(n, "w") == want_u[n]
    for n in reversed(range(25)):
        p, q = tangent_derivative_poly(n, "z"), secant_derivative_poly(n, "z")
        assert p == UniPoly("z", tangent_derivative_poly(n).coeffs)
        assert q == UniPoly("z", secant_derivative_poly(n).coeffs)
    for f in (tangent_derivative_poly, secant_derivative_poly, chebyshev_t, chebyshev_u):
        with pytest.raises(ValueError, match="n must be >= 0"):
            f(-1)


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_recurrences_refuse_a_non_int_n(n):
    # tangent_derivative_poly(2.5) used to return P_3; a cached P_3 or T_3
    # must not answer for 3.0 either, with the letter passed or not.
    for f in (tangent_derivative_poly, secant_derivative_poly, chebyshev_t, chebyshev_u):
        for args in ((), ("q",)):
            f(3, *args)
            f(1, *args)
            with pytest.raises(TypeError, match="n must be an int"):
                f(n, *args)
