"""Integer triangles: gamma rows of the Coxeter complexes and associahedra of
types A and B, Eulerian numbers of both types, Motzkin-path counts and the
cube face counts.

Every triangle is a Triangle record holding the function that builds row n
as a whole; an entry is read off its row, and entries off the row are zero.
Most closed forms build a row from one binomial row, each binomial stepped
from the last: a binomial row is one Pascal step from the row before it
when that is held, and the central binomials C(2k, k), the Catalan numbers
and the Motzkin rows' C(m, m // 2) step by their ratios; the cube rows
shift the binomials.  Recurrence-backed rows step forward in a loop from
the last row asked for and keep only that row, so sweeping over n is
linear; a factorial is one product from the last one asked for when n is
one past it.  Where a closed form and a recurrence both exist (the
associahedron gamma rows) they are implemented separately and
cross-checked in the tests.

Memory grows with one row, not with the number of rows asked for.
``_TIPS`` holds, per recurrence, only the last rows its step reads (one or
two); ``_BINOMIAL_ROW`` holds the last binomial row built, ``_FACTORIAL``
the last factorial, and ``_CENTRAL`` the C(m, m // 2) up to the largest m
asked for.  A caller gets a copy of a held row.  ``table`` writes every
format row by row as it builds it.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, floordiv, index, lshift, mod, mul
from typing import Callable, Iterator, Sequence

__all__ = [
    "Triangle",
    "TRIANGLES",
    "OEIS_ALIASES",
    "binomial",
    "binomial_row",
    "factorial",
    "plain_triangle",
    "lookup_triangle",
    "bfile_rows",
    "triangle_json_text",
]


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


# Per recurrence, the index and rows of the furthest point reached, so that
# asking for n after m costs n - m steps.  Only the last rows the recurrence
# needs are kept.
_TIPS: dict[object, tuple[int, list]] = {}


def _recurrence_row(key, n: int, first: list, step, first_n: int = 0):
    """Row n of a recurrence whose rows first_n, first_n + 1, ... open with
    ``first``, stepping forward in a loop.

    ``step(m, rows)`` builds row m from the last ``len(first)`` rows.  Asking
    for a row below the tip steps again from the start.  Only an exact int n
    is taken: the loop would step a float or a bool to the next whole row.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if n < first_n:
        raise ValueError(f"n must be >= {first_n}, got {n}")
    seeded = first_n + len(first) - 1
    if n <= seeded:
        return first[n - first_n]
    top, rows = _TIPS.get(key, (seeded, first))
    if top > n:
        top, rows = seeded, first
    while top < n:
        top += 1
        rows = [*rows[1:], step(top, rows)]
    _TIPS[key] = (top, rows)
    return rows[-1]


# The last factorial asked for, as (m, m!).
_FACTORIAL = (0, 1)


def factorial(n: int) -> int:
    """n!: the one held, one product past it when n is one above it, and
    ``math.factorial`` for any other n.  Only an exact int n is taken."""
    global _FACTORIAL
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    m, value = _FACTORIAL
    if n != m:
        value = value * n if n == m + 1 else math.factorial(n)
        _FACTORIAL = (n, value)
    return value


def _triangle_rows(name: str, first_row: tuple[int, ...], row_len: Callable[[int], int],
                   keep: Callable[[int], tuple[int, int]],
                   shift: Callable[[int], tuple[int, int]],
                   lead: Callable[[int], int] | None = None):
    """Row function, from n = 1, for t(n,k) = keep(n,k) t(n-1,k) + shift(n,k) t(n-1,k-1).

    ``keep(n)`` and ``shift(n)`` give their coefficient as an affine pair
    (a, b), meaning a + b*k with b nonzero, so each step multiplies the last
    row by two ranges in C.  With lead given, the combination is divided by
    lead(n); these triangles are integral, so a non-exact division means the
    recurrence was mistyped, and it raises naming n and the first bad k.
    """

    def step(n: int, rows: list) -> tuple[int, ...]:
        # t(n-1, k) and t(n-1, k-1), zero off the row; the ranges stop the maps at k = m - 1.
        last, m = rows[-1], row_len(n)
        a, b = keep(n)
        c, d = shift(n)
        row = tuple(map(add, map(mul, range(a, a + b * m, b), (*last, 0)),
                        map(mul, range(c, c + d * m, d), (0, *last))))
        if lead is None:
            return row
        div = lead(n)
        if any(map(mod, row, repeat(div))):
            k = next(k for k, r in enumerate(map(mod, row, repeat(div))) if r)
            raise ArithmeticError(f"non-exact division at n={n}, k={k}")
        return tuple(map(floordiv, row, repeat(div)))

    first = [first_row]
    return lambda n: _recurrence_row(name, n, first, step, first_n=1)


_gamma_a_rows = _triangle_rows(
    "gamma-a", (1,), lambda n: (n - 1) // 2 + 1,
    lambda n: (1, 1), lambda n: (2 * n, -4))

_gamma_b_rows = _triangle_rows(
    "gamma-b", (1,), lambda n: n // 2 + 1,
    lambda n: (1, 2), lambda n: (4 * (n + 1), -8))

_eulerian_a_rows = _triangle_rows(
    "eulerian-a", (1,), lambda n: n,
    lambda n: (1, 1), lambda n: (n, -1))

_eulerian_b_rows = _triangle_rows(
    "eulerian-b", (1, 1), lambda n: n + 1,
    lambda n: (1, 2), lambda n: (2 * n + 1, -2))

_assoc_gamma_a_rows = _triangle_rows(
    "assoc-gamma-a", (1,), lambda n: (n - 1) // 2 + 1,
    lambda n: (n + 1, 2), lambda n: (4 * n, -8),
    lead=lambda n: n + 1)

_assoc_gamma_b_rows = _triangle_rows(
    "assoc-gamma-b", (1,), lambda n: n // 2 + 1,
    lambda n: (n, 2), lambda n: (4 * (n + 1), -8),
    lead=lambda n: n)


# The last binomial row built, as (m, row).
_BINOMIAL_ROW = (0, [1])


def binomial_row(m: int) -> list[int]:
    """C(m, 0), ..., C(m, m), as a list of the caller's own.

    The row held is copied, and the row after it is one Pascal step from
    it, additions only; any other row is built with each entry stepped from
    the one before.  So a sweep asking for m, or for m - 1 and m, at each m
    costs one step per row.
    """
    global _BINOMIAL_ROW
    m = index(m)
    k, row = _BINOMIAL_ROW
    if m != k:
        if m > 0 and m == k + 1:
            row = [1, *map(add, row, row[1:]), 1]
        else:
            row = [1]
            for j in range(m):
                row.append(row[-1] * (m - j) // (j + 1))
        _BINOMIAL_ROW = (m, row)
    return row[:]


# C(m, m // 2) for m = 0, 1, ..., as far as any row has asked.
_CENTRAL = [1]


def _central_binomials(n: int) -> list[int]:
    """C(m, m // 2) for m = 0..n, each stepped from the one before: times
    (m + 1) / (m // 2 + 1) from an even m, times 2 from an odd one.  The
    entries are kept across calls, so each is stepped once."""
    for m in range(len(_CENTRAL) - 1, n):
        _CENTRAL.append(_CENTRAL[-1] * (m + 1) // (m // 2 + 1) if m % 2 == 0 else _CENTRAL[-1] * 2)
    return _CENTRAL[:n + 1]


def _narayana_h_a_row(n: int) -> list[int]:
    # h-vector of the type A associahedron: binom(n,k) binom(n,k+1) / n.
    c = binomial_row(n)
    row = [a * b for a, b in zip(c, c[1:])]
    for k, val in enumerate(row):
        if val % n:
            raise ArithmeticError(f"Narayana division failed at n={n}, k={k}")
    return [val // n for val in row]


def _assoc_gamma_row(m: int, lift: int) -> list[int]:
    # w(k) binom(m, 2k), with w(k) = w(k-1) 2(2k-1) / (k + lift) stepped along
    # the row from w(0) = 1: the Catalan numbers for lift 1 (type A, m = n - 1)
    # and binom(2k, k) for lift 0 (type B, m = n).
    row, w = [], 1
    for k, c in enumerate(binomial_row(m)[::2]):
        if k:
            w = w * 2 * (2 * k - 1) // (k + lift)
        row.append(w * c)
    return row


class Triangle:
    """A named integer triangle, given by the function that builds row n."""

    # No __slots__: perfbench/tracer.py rebinds ``value`` on each instance.

    def __init__(self, name: str, row_fn: Callable[[int], Sequence[int]], first_n: int = 1,
                 oeis: str | None = None):
        self.name = name
        self.row_fn = row_fn
        self.first_n = first_n
        self.oeis = oeis

    def __repr__(self):
        return f"Triangle(name={self.name!r}, first_n={self.first_n!r}, oeis={self.oeis!r})"

    def row(self, n: int) -> list[int]:
        if n < self.first_n:
            raise ValueError(f"{self.name} rows start at n={self.first_n}")
        return list(self.row_fn(n))

    def first_rows(self, count: int) -> Iterator[list[int]]:
        """The first ``count`` rows, from row ``first_n`` on, built one at a time."""
        return map(self.row, range(self.first_n, self.first_n + count))

    def value(self, n: int, k: int) -> int:
        """Entry k of row n; zero off the row."""
        r = self.row(n)
        return r[k] if 0 <= k < len(r) else 0


def plain_triangle(name: str, row_fn: Callable[[int], Sequence[int]]) -> Triangle:
    """Ad hoc triangle wrapper, mainly for one-off expected rows."""
    return Triangle(name, row_fn)


GAMMA_A = Triangle("gamma-a", _gamma_a_rows, oeis="A101280")
GAMMA_B = Triangle("gamma-b", _gamma_b_rows)
EULERIAN_A = Triangle("eulerian-a", _eulerian_a_rows, oeis="A008292")
EULERIAN_B = Triangle("eulerian-b", _eulerian_b_rows, oeis="A060187")
ASSOC_H_A = Triangle("assoc-h-a", _narayana_h_a_row)
ASSOC_H_B = Triangle("assoc-h-b", lambda n: [c * c for c in binomial_row(n)])
ASSOC_GAMMA_A = Triangle("assoc-gamma-a", lambda n: _assoc_gamma_row(n - 1, 1), oeis="A055151")
ASSOC_GAMMA_A_REC = Triangle("assoc-gamma-a", _assoc_gamma_a_rows)
ASSOC_GAMMA_B = Triangle("assoc-gamma-b", lambda n: _assoc_gamma_row(n, 0), oeis="A089627")
ASSOC_GAMMA_B_REC = Triangle("assoc-gamma-b", _assoc_gamma_b_rows)
MOTZKIN_T = Triangle(
    "motzkin-T", lambda n: map(mul, binomial_row(n), reversed(_central_binomials(n))),
    first_n=0, oeis="A107230")
CUBE_F = Triangle(
    "cube-f", lambda n: map(lshift, binomial_row(n), range(n, -1, -1)),
    first_n=0, oeis="A038207")

TRIANGLES: dict[str, Triangle] = {
    t.name: t
    for t in (GAMMA_A, GAMMA_B, EULERIAN_A, EULERIAN_B, ASSOC_H_A, ASSOC_H_B,
              ASSOC_GAMMA_A, ASSOC_GAMMA_B, MOTZKIN_T, CUBE_F)
}

OEIS_ALIASES: dict[str, str] = {t.oeis: t.name for t in TRIANGLES.values() if t.oeis}


def lookup_triangle(name: str) -> Triangle:
    key = OEIS_ALIASES.get(name, name)
    try:
        return TRIANGLES[key]
    except KeyError:
        raise ValueError(
            f"unknown triangle {name!r}; known: {', '.join(sorted(TRIANGLES))}") from None


def bfile_rows(triangle: Triangle, rows: int) -> Iterator[list[str]]:
    """OEIS-style b-file: one 'index value' line per entry, reading row-major.

    Rows and indices both start at the triangle's first row, as OEIS
    offsets do.  The header line comes as a list of its own, then the lines
    of each row as one list, yielded as that row is built.
    """
    first = triangle.first_n
    yield [f"# {triangle.name} read by rows (rows {first}..{first + rows - 1}), offset {first}"]
    idx = first
    for row in triangle.first_rows(rows):
        yield [f"{i} {v}" for i, v in enumerate(row, idx)]
        idx += len(row)


def triangle_json_text(triangle: Triangle, rows: int) -> Iterator[str]:
    """Compact JSON {"name", "oeis", "offset", "rows"}, entries as decimal
    strings, yielded in pieces as each row is built.

    The pieces join to json.dumps of that object with separators (",", ":").
    """
    import json

    yield (f'{{"name":{json.dumps(triangle.name)},"oeis":{json.dumps(triangle.oeis)},'
           f'"offset":{triangle.first_n},"rows":[')
    sep = ""
    for row in triangle.first_rows(rows):
        yield sep + "[" + ",".join(f'"{v}"' for v in row) + "]"
        sep = ","
    yield "]}"
