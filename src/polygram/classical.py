"""Derivative polynomials of tangent and secant, their classical relatives
(Legendre-type, Narayana-type, Chebyshev), and exact truncated series.

The series never consult the polynomial recurrences: tangent and secant
are rebuilt from the sine and cosine series by exact series inversion, so
``verify`` can compare their generating functions with the recurrences as a
genuinely independent second path.  A series is a plain list: item n is n!
times its t^n coefficient, itself an int coefficient list in u.  So the
series are exponential with integer coefficients, products are binomial
convolutions through ``unipoly._mac``, and no fraction is ever formed.
One scaled Taylor shift, ``_affine``, builds the Legendre/Narayana sums and
thm31's got side in ``verify``, in additions and shifts only.

The four recurrence caches key on the argument types too, so a non-int n
such as 3.0 is refused even after P_3 or T_3 is cached.  Stepping between
the rows asked for keeps only the recurrence tip in ``triangles._TIPS``,
which also holds the one binomial row the sums read, but the
``lru_cache``s keep every P_n, Q_n, T_n and U_n asked for, so a sweep
such as ``verify --target thm31`` holds all of its rows until the process
ends.  One ``classical`` command asks for one.  The caches stay while
perfbench's tracer counts their hits.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .triangles import _recurrence_row, binomial_row
from .unipoly import UniPoly, _mac, _trimmed

__all__ = [
    "chebyshev_t",
    "chebyshev_u",
    "closed_form_series",
    "legendre_like",
    "narayana_like",
    "secant_derivative_poly",
    "tangent_derivative_poly",
]


@lru_cache(maxsize=None, typed=True)
def tangent_derivative_poly(n: int, var: str = "u") -> UniPoly:
    """P_n with (d/dx)^n tan = P_n(tan): P_0 = u, P_(n+1) = (1+u^2) P_n'."""
    grow = UniPoly(var, (1, 0, 1))
    return _recurrence_row(("P", var), n, [UniPoly.variable(var)],
                           lambda m, rows: grow * rows[-1].derivative())


@lru_cache(maxsize=None, typed=True)
def secant_derivative_poly(n: int, var: str = "u") -> UniPoly:
    """Q_n with (d/dx)^n sec = sec * Q_n(tan): Q_0 = 1, Q_(n+1) = (1+u^2) Q_n' + u Q_n."""
    grow = UniPoly(var, (1, 0, 1))
    u = UniPoly.variable(var)
    return _recurrence_row(("Q", var), n, [UniPoly.constant(var, 1)],
                           lambda m, rows: grow * rows[-1].derivative() + u * rows[-1])


def _taylor_shift(desc: list[int]) -> list[int]:
    """p(t+1) from p(t) in place, highest degree first: one prefix running sum per degree."""
    for end in range(len(desc), 1, -1):
        desc[:end] = accumulate(desc[:end])
    return desc


def _affine(asc: list[int], sign: int, bits: int) -> list[int]:
    """Ascending coefficients of p(sign + 2^bits t), sign = +/-1, from those of p.

    A Taylor shift gives p(1 + z), with signs alternated before and after it
    for sign -1 (p(-1 + z) is p(-t) at t = 1 - z); coefficient j is then
    shifted left by bits*j (von zur Gathen and Gerhard, ISSAC 1997).
    """
    if sign < 0:
        asc = [-c if j % 2 else c for j, c in enumerate(asc)]
    shifted = _taylor_shift(asc[::-1])[::-1]
    return [(-c if sign < 0 and j % 2 else c) << bits * j for j, c in enumerate(shifted)]


def _horner_binomial_sum(weights: list[int], var: str) -> UniPoly:
    """sum_k weights[k] (x+1)^k (x-1)^(m-k) with m = len(weights) - 1.

    With y = x - 1 the sum is y^m W(1 + 2/y), W(t) = sum_k weights[k] t^k:
    W(1 + 2z) read backwards is the sum in y, and y = -1 + x."""
    return _trimmed(var, _affine(_affine(weights, 1, 1)[::-1], -1, 0))


def legendre_like(n: int, var: str = "x") -> UniPoly:
    """Sum of squared binomials against (x+1)^k (x-1)^(n-k).

    Dividing by 2^n gives the degree-n Legendre polynomial.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _horner_binomial_sum([c * c for c in binomial_row(n)], var)


def narayana_like(n: int, var: str = "x") -> UniPoly:
    """Narayana-weighted analog of legendre_like; the 1/n factor must divide exactly."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    row = binomial_row(n)
    total = _horner_binomial_sum([a * b for a, b in zip(row, row[1:])], var)
    for c in total.coeffs:
        if c % n:
            raise ArithmeticError(f"coefficient {c} of the weighted sum is not divisible by {n}")
    return _trimmed(var, [c // n for c in total.coeffs])


@lru_cache(maxsize=None, typed=True)
def chebyshev_t(n: int, var: str = "x") -> UniPoly:
    """First-kind Chebyshev polynomial via the three-term recurrence."""
    x2 = UniPoly(var, (0, 2))
    return _recurrence_row(("T", var), n, [UniPoly.constant(var, 1), UniPoly.variable(var)],
                           lambda m, rows: x2 * rows[-1] - rows[-2])


@lru_cache(maxsize=None, typed=True)
def chebyshev_u(n: int, var: str = "x") -> UniPoly:
    """Second-kind Chebyshev polynomial via the three-term recurrence."""
    x2 = UniPoly(var, (0, 2))
    return _recurrence_row(("U", var), n, [UniPoly.constant(var, 1), x2],
                           lambda m, rows: x2 * rows[-1] - rows[-2])


def _series_mul(a: list, b: list) -> list[list[int]]:
    """Exponential product c_n = sum_i C(n, i) a_i b_(n-i), to the shorter order."""
    out = []
    for n in range(min(len(a), len(b))):
        acc: list[int] = []
        for i, weight in enumerate(binomial_row(n)):
            _mac(acc, a[i], b[n - i], weight)
        out.append(acc)
    return out


def _series_invert(a: list) -> list[list[int]]:
    """Inverse of a series whose t^0 coefficient is the constant 1 or -1.

    Then 1/a_0 = a_0, and b_m = -a_0 * sum_(j=1..m) C(m, j) a_j b_(m-j)
    stays integral; any other constant would need a division.  Every caller
    builds its t^0 term, so another one is a broken invariant, not bad input.
    """
    head, *rest = a[0] or [0]
    if head not in (1, -1) or any(rest):
        raise ArithmeticError(f"series inversion needs a t^0 coefficient of 1 or -1, got {a[0]}")
    out = [[head]]
    for m in range(1, len(a)):
        row = binomial_row(m)
        acc: list[int] = []
        for j in range(1, m + 1):
            _mac(acc, a[j], out[m - j], -head * row[j])
        out.append(acc)
    return out


def closed_form_series(order: int) -> tuple[list[list[int]], list[list[int]]]:
    """(u + tan t) / (1 - u tan t) and sec t / (1 - u tan t), up to t^order.

    Item n of each is the coefficient list of P_n or Q_n in u, ascending and
    possibly with trailing zeros.  Tangent and secant come from the sine and
    cosine series by inversion, never from the recurrences.
    """
    sine = [[(0, 1, 0, -1)[m % 4]] for m in range(order + 1)]
    sec = _series_invert([[(1, 0, -1, 0)[m % 4]] for m in range(order + 1)])
    tan = _series_mul(sine, sec)
    # u is a t^0 constant and tan has no t^0 term: the t^0 terms of 1 - u tan
    # and u + tan are 1 and u, and each later term is -u tan_n or tan_n.
    denom = _series_invert([[1]] + [[0] + [-c for c in t] for t in tan[1:]])
    return _series_mul([[0, 1]] + tan[1:], denom), _series_mul(sec, denom)
