"""h-polynomials and their gamma expansions, as plain int tuples.

A palindromic h-polynomial h_0..h_d of structural degree d expands uniquely
in the basis x^i (1+x)^(d-2i); the coefficient vector gamma_0..gamma_(d//2)
of that expansion is the gamma vector.  ``gamma_to_h(gammas, d)`` takes d
with the gammas because the basis depends on d, not on the polynomial's
actual degree (trailing zeros are legitimate); ``h_to_gamma(h)`` reads d
from the length of h.  Each checks its input where it comes in: int entries
only, then d >= 0 and d//2 + 1 gammas, or a nonempty palindromic h.

``FAMILIES`` pairs each of the four families (the type A and B Coxeter
complexes and associahedra) with its h triangle and its gamma triangle:
row n of the one is gamma_to_h of row n of the other.

Both directions of the basis change run on one addition-only kernel and
build no binomial row.  With m = d // 2, sum_i gamma_i x^i (1+x)^(2m-2i) is
Horner in i, acc <- acc (1+x)^2 + gamma_i x^i, times one more 1+x when d is
odd.  Each acc is palindromic about i, so only its lower half is stored and
stepped: a product by 1+x is c[j] = a[j] + a[j-1], and the entry just past
the half is a[i] = a[i-2].  The full row is mirrored once, at the end.

The inverse reads the steps backwards on the lower half.  For a palindromic
S of degree 2i, S(-1) = (-1)^i gamma_i, and R = S - gamma_i x^i has R(-1) = 0.
R is palindromic too, R(x) = x^(2i) R(1/x), and differentiating that at -1
gives R'(-1) = -i R(-1) = 0; so (1+x)^2 divides R exactly, the quotient is
palindromic about i-1, and division from the low end, q[j] = a[j] - q[j-1],
reads only entries below i.  Two such alternating prefix sums per step are
the whole peel.  An odd d first divides by 1+x, which is exact because
h(-1) = -h(-1) for odd palindromic h; its one leftover entry and the value
h(1) = sum_i gamma_i 2^(d-2i) are checked, so a wrong division cannot pass
unseen.

Memory holds one half row per call; nothing is cached.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import add

from .triangles import (ASSOC_GAMMA_A, ASSOC_GAMMA_B, ASSOC_H_A, ASSOC_H_B,
                        EULERIAN_A, EULERIAN_B, GAMMA_A, GAMMA_B)

__all__ = ["FAMILIES", "gamma_to_h", "h_to_gamma"]

# Each family's h triangle and gamma triangle: the Eulerian polynomials of
# type A and B are the h-polynomials of the Coxeter complexes.
FAMILIES = {
    "coxeter-a": (EULERIAN_A, GAMMA_A),
    "coxeter-b": (EULERIAN_B, GAMMA_B),
    "assoc-a": (ASSOC_H_A, ASSOC_GAMMA_A),
    "assoc-b": (ASSOC_H_B, ASSOC_GAMMA_B),
}


def _check_ints(values, what: str) -> None:
    # Exactly int: a float would be carried through silently, and bool is
    # no coefficient.
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise TypeError(f"{what} {bad!r} must be an int")


def _times_one_plus_x(a: list[int]) -> list[int]:
    """The first len(a) coefficients of (1+x) a: c[j] = a[j] + a[j-1]."""
    return list(map(add, a, chain((0,), a)))


def _over_one_plus_x(a) -> list[int]:
    """The first len(a) coefficients of a / (1+x): q[j] = a[j] - q[j-1]."""
    return list(accumulate(a, lambda q, c: c - q))


def gamma_to_h(gammas, d: int) -> tuple[int, ...]:
    """Expand sum_i gamma_i x^i (1+x)^(d-2i) into h_0..h_d, by Horner in i
    on lower halves (see the module docstring)."""
    _check_ints((d,), "degree bound")
    _check_ints(gammas, "gamma entry")
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    if len(gammas) != d // 2 + 1:
        raise ValueError(f"need {d // 2 + 1} entries for d={d}, got {len(gammas)}")
    half: list[int] = []
    for gi in gammas:
        # acc is palindromic about i-1, so a[i] = a[i-2]
        half.append(half[-2] if len(half) > 1 else 0)
        half = _times_one_plus_x(_times_one_plus_x(half))
        half[-1] += gi
    if d % 2:
        half = _times_one_plus_x(half)
        return tuple(half + half[::-1])
    return tuple(half + half[-2::-1])


def h_to_gamma(h) -> tuple[int, ...]:
    """Invert gamma_to_h by peeling; only palindromic input has an expansion.

    One division by 1+x when d is odd, then for i = m down to 1: read
    gamma_i off the lower half, take gamma_i x^i away and divide by (1+x)^2.
    """
    c = tuple(h)
    if not c:
        raise ValueError("an h-polynomial needs at least h_0")
    _check_ints(c, "coefficient")
    if c != c[::-1]:
        raise ValueError(f"h-polynomial {list(c)} is not palindromic")
    d = len(c) - 1
    m = d // 2
    if d % 2:
        # The quotient is palindromic about m, so its entry m+1 repeats entry
        # m-1; anything else is a nonzero remainder.
        half = _over_one_plus_x(c[:m + 2])
        if half.pop() != (half[m - 1] if m else 0):
            raise AssertionError("palindromic peel left a nonzero residual")
    else:
        half = list(c[:m + 1])
    gammas = []
    for i in range(m, 0, -1):
        # S = T (1+x)^2 + gamma_i x^i.  Entries below i are those of
        # S - gamma_i x^i, whose quotient q by 1+x is palindromic about
        # i - 1/2: q[i] = q[i-1] = s[i] - gamma_i - q[i-1].
        q = _over_one_plus_x(half[:i])
        gammas.append(half[i] - q[-1] - q[-1])
        half = _over_one_plus_x(q)
    gammas.append(half[0])
    gammas.reverse()
    # h(1) = sum_i gamma_i 2^(d-2i), by Horner in 4.
    at_one = 0
    for gi in gammas:
        at_one = (at_one << 2) + gi
    if at_one << (d % 2) != sum(c):
        raise AssertionError("palindromic peel left a nonzero residual")
    return tuple(gammas)
