import random
from fractions import Fraction

import pytest

from polygram.classical import (TruncSeries, check_alternating_counts,
                                check_generating_functions, check_scaled_tan_sec,
                                chebyshev_t, chebyshev_u, cosine_series,
                                legendre_like, narayana_like, secant_derivative_poly,
                                secant_series, sine_series, tangent_derivative_poly,
                                tangent_series)
from polygram.triangles import binomial
from polygram.unipoly import UniPoly


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


def _naive_legendre_like(n, var="x"):
    # The definition with one power per term, as a reference.
    x = UniPoly.variable(var)
    total = UniPoly(var)
    for k in range(n + 1):
        total = total + binomial(n, k) ** 2 * (x + 1) ** k * (x - 1) ** (n - k)
    return total


def _naive_narayana_like(n, var="x"):
    x = UniPoly.variable(var)
    total = UniPoly(var)
    for k in range(n):
        total = total + binomial(n, k) * binomial(n, k + 1) * (x + 1) ** k * (x - 1) ** (n - 1 - k)
    return UniPoly(var, [c // n for c in total.coeffs])


def test_legendre_and_narayana_match_the_naive_sums():
    for n in range(1, 31):
        assert legendre_like(n, "h") == _naive_legendre_like(n, "h")
        assert narayana_like(n) == _naive_narayana_like(n)


def test_chebyshev_values():
    x = UniPoly.variable("x")
    assert chebyshev_t(2) == 2 * x**2 - 1
    assert chebyshev_t(3) == 4 * x**3 - 3 * x
    assert chebyshev_u(2) == 4 * x**2 - 1
    for n in range(11):
        assert chebyshev_t(n)(1) == 1
        assert chebyshev_u(n)(1) == n + 1


def test_series_expansions():
    tan = tangent_series(7)
    assert tan.coefficient(0) == 0
    assert tan.coefficient(1) == 1
    assert tan.coefficient(3) == Fraction(1, 3)
    assert tan.coefficient(5) == Fraction(2, 15)
    assert tan.coefficient(7) == Fraction(17, 315)
    sec = secant_series(6)
    assert sec.coefficient(0) == 1
    assert sec.coefficient(2) == Fraction(1, 2)
    assert sec.coefficient(4) == Fraction(5, 24)
    assert sec.coefficient(6) == Fraction(61, 720)


def test_series_inversion_is_exact():
    cos = cosine_series(10)
    assert cos * cos.invert() == TruncSeries.constant(10, "u", 1)
    with pytest.raises(ValueError):
        sine_series(5).invert()


def test_series_mixed_arithmetic():
    one = TruncSeries.constant(4, "u", 1)
    u = TruncSeries.coefficient_variable(4, "u")
    s = 1 - u * one
    assert s.coefficient(0) == UniPoly("u", (1, -1))


def test_scaled_tan_sec_reduction():
    report = check_scaled_tan_sec(12)
    assert report.ok
    assert len(report.checks) == 24


def test_generating_function_coefficients():
    report = check_generating_functions(12)
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
