"""Derivative polynomials of tangent and secant, their classical relatives
(Legendre-type, Narayana-type, Chebyshev), and exact truncated series.

The series never consult the polynomial recurrences: tangent and secant
are rebuilt from the sine and cosine series by exact series inversion, so
``verify`` can compare their generating functions with the recurrences as a
genuinely independent second path.  The series are exponential, with
integer coefficients: coefficient n of a ``TruncSeries`` is n! times its
t^n coefficient, so products are binomial convolutions and no fraction is
ever formed.

The four recurrence caches key on the argument types too, so a non-int n
such as 3.0 is refused even after P_3 or T_3 is cached.  Stepping between
the rows asked for keeps only the recurrence tip (``triangles._TIPS``), but
the ``lru_cache``s keep every P_n, Q_n, T_n and U_n asked for, so a sweep
such as ``verify --target thm31`` holds all of its rows until the process
ends.  One ``classical`` command asks for one.  The caches stay while
perfbench's tracer counts their hits.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import Sequence

from .poly import _Ring
from .triangles import _recurrence_row, binomial, binomial_row
from .unipoly import UniPoly, _mac, _trimmed

__all__ = [
    "DOUBLE_ANGLE_RULES",
    "TruncSeries",
    "chebyshev_t",
    "chebyshev_u",
    "cosine_series",
    "legendre_like",
    "narayana_like",
    "secant_derivative_poly",
    "secant_series",
    "sine_series",
    "tangent_derivative_poly",
    "tangent_series",
]

# f ~ sec(2x), g ~ 2 tan(2x): D f = f g and D g = 4 f^2.
DOUBLE_ANGLE_RULES = "f -> f*g; g -> 4*f^2"


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


def _horner_binomial_sum(weights: list[int], var: str) -> UniPoly:
    """sum_k weights[k] (x+1)^k (x-1)^(m-k) with m = len(weights) - 1.

    Homogeneous Horner: total = total*(x+1) + weights[k] (x-1)^(m-k) for k
    from m down to 0, with one running power of x-1, stepped after each
    term, so memory holds one row rather than all m of them.  Everything
    runs on int lists, trimmed once at the end.
    """
    total: list[int] = []
    power = [1]
    for k in reversed(range(len(weights))):
        total = list(map(add, [0] + total, total + [0]))
        _mac(total, power, (weights[k],))
        if k:
            power = list(map(sub, [0] + power, power + [0]))
    return _trimmed(var, total)


def legendre_like(n: int, var: str = "x") -> UniPoly:
    """Sum of squared binomials against (x+1)^k (x-1)^(n-k).

    Dividing by 2^n gives the degree-n Legendre polynomial.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _horner_binomial_sum([binomial(n, k) ** 2 for k in range(n + 1)], var)


def narayana_like(n: int, var: str = "x") -> UniPoly:
    """Narayana-weighted analog of legendre_like; the 1/n factor must divide exactly."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = _horner_binomial_sum([binomial(n, k) * binomial(n, k + 1) for k in range(n)], var)
    out = []
    for c in total.coeffs:
        if c % n:
            raise ArithmeticError(f"coefficient {c} of the weighted sum is not divisible by {n}")
        out.append(c // n)
    return UniPoly(var, out)


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


class TruncSeries(_Ring):
    """Exponential power series in t, truncated at a fixed order, with UniPoly
    coefficients.

    Coefficient n is n! times the t^n coefficient, so the series of tangent
    and secant, and of the closed forms built from them, have integer
    coefficients.  Products are binomial convolutions, truncated at the
    carried order.
    """

    __slots__ = ("order", "var", "coeffs")

    def __init__(self, order: int, var: str, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        given = list(coeffs)
        if len(given) > order + 1:
            raise ValueError(f"{len(given)} coefficients exceed truncation order {order}")
        self.order = order
        self.var = var
        padded: list[UniPoly] = []
        for c in given + [0] * (order + 1 - len(given)):
            if isinstance(c, int):
                c = UniPoly.constant(var, c)
            if not isinstance(c, UniPoly) or c.var != var:
                raise ValueError(f"coefficient {c!r} does not live in the {var!r} ring")
            padded.append(c)
        self.coeffs = tuple(padded)

    @classmethod
    def constant(cls, order: int, var: str, value: int) -> "TruncSeries":
        return cls(order, var, (value,))

    @classmethod
    def coefficient_variable(cls, order: int, var: str) -> "TruncSeries":
        """The series whose t^0 coefficient is the polynomial variable itself."""
        return cls(order, var, (UniPoly.variable(var),))

    def coefficient(self, i: int) -> UniPoly:
        if not 0 <= i <= self.order:
            raise IndexError(f"order {i} outside truncation {self.order}")
        return self.coeffs[i]

    def _coerced(self, other):
        if isinstance(other, (int, UniPoly)):
            return TruncSeries(self.order, self.var, (other,))
        if isinstance(other, TruncSeries):
            if other.order != self.order or other.var != self.var:
                raise ValueError("series orders or coefficient rings differ")
            return other
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return TruncSeries(self.order, self.var,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, self.var, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out = []
        for n in range(self.order + 1):
            acc: list[int] = []
            for i, weight in enumerate(binomial_row(n)):
                _mac(acc, self.coeffs[i].coeffs, other.coeffs[n - i].coeffs, weight)
            out.append(_trimmed(self.var, acc))
        return TruncSeries(self.order, self.var, out)

    __rmul__ = __mul__

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; the t^0 coefficient must be the constant 1 or -1.

        Then 1/c0 = c0, and b_m = -c0 * sum_(j=1..m) C(m, j) a_j b_(m-j)
        stays integral; any other constant would need a division.
        """
        c0 = self.coeffs[0]
        if c0.coeffs not in ((1,), (-1,)):
            raise ValueError(f"series inversion needs a t^0 coefficient of 1 or -1, got {c0}")
        sign = c0.coeffs[0]
        out = [c0]
        for m in range(1, self.order + 1):
            row = binomial_row(m)
            acc: list[int] = []
            for j in range(1, m + 1):
                _mac(acc, self.coeffs[j].coeffs, out[m - j].coeffs, -sign * row[j])
            out.append(_trimmed(self.var, acc))
        return TruncSeries(self.order, self.var, out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.order == other.order and self.var == other.var
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.var, self.coeffs))

    def __repr__(self):
        body = " + ".join(f"({c})*t^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero)
        return f"TruncSeries[{body or '0'}]"


def sine_series(order: int, var: str = "u") -> TruncSeries:
    """n! [t^n] sin t: 0, 1, 0, -1, repeating."""
    return TruncSeries(order, var, [(0, 1, 0, -1)[m % 4] for m in range(order + 1)])


def cosine_series(order: int, var: str = "u") -> TruncSeries:
    """n! [t^n] cos t: 1, 0, -1, 0, repeating."""
    return TruncSeries(order, var, [(1, 0, -1, 0)[m % 4] for m in range(order + 1)])


def tangent_series(order: int, var: str = "u") -> TruncSeries:
    return sine_series(order, var) * cosine_series(order, var).invert()


def secant_series(order: int, var: str = "u") -> TruncSeries:
    return cosine_series(order, var).invert()
