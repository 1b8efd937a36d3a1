"""Integer triangles: gamma rows of the Coxeter complexes and associahedra of
types A and B, Eulerian numbers of both types, Motzkin-path counts and the
cube face counts.

Every triangle is a Triangle record holding the function that builds row n
as a whole; an entry is read off its row, and entries off the row are zero.
Most closed forms build a row from one binomial row, each binomial stepped
from the last.  Recurrence-backed rows step forward in a loop from the last
row asked for and keep only that row, so sweeping over n is linear.  Where a
closed form and a recurrence both exist (the associahedron gamma rows) they
are implemented separately and cross-checked in the tests.

Memory grows with one row, not with the number of rows asked for.
``_TIPS`` holds, per recurrence, only the last rows its step reads (one or
two), and ``table`` writes every format row by row as it builds it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

__all__ = [
    "Triangle",
    "TRIANGLES",
    "OEIS_ALIASES",
    "binomial",
    "binomial_row",
    "catalan",
    "factorial",
    "plain_triangle",
    "lookup_triangle",
    "bfile_lines",
    "triangle_json_text",
]


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    return math.factorial(n)


def catalan(k: int) -> int:
    return binomial(2 * k, k) // (k + 1)


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


def _triangle_rows(name: str, first_row: tuple[int, ...], row_len: Callable[[int], int],
                   keep: Callable[[int, int], int], shift: Callable[[int, int], int],
                   lead: Callable[[int], int] | None = None):
    """Row function, from n = 1, for t(n,k) = keep(n,k) t(n-1,k) + shift(n,k) t(n-1,k-1).

    With lead given, the combination is divided by lead(n); these triangles
    are integral, so a non-exact division means the recurrence was mistyped.
    """

    def step(n: int, rows: list) -> tuple[int, ...]:
        # t(n-1, k) is padded[k + 1] and t(n-1, k-1) is padded[k], zero off the row.
        padded = (0, *rows[-1], 0)
        row = [keep(n, k) * padded[k + 1] + shift(n, k) * padded[k]
               for k in range(row_len(n))]
        if lead is None:
            return tuple(row)
        div = lead(n)
        for k, val in enumerate(row):
            if val % div:
                raise ArithmeticError(f"non-exact division at n={n}, k={k}")
        return tuple([val // div for val in row])

    first = [first_row]
    return lambda n: _recurrence_row(name, n, first, step, first_n=1)


_gamma_a_rows = _triangle_rows(
    "gamma-a", (1,), lambda n: (n - 1) // 2 + 1,
    lambda n, k: k + 1, lambda n, k: 2 * n - 4 * k)

_gamma_b_rows = _triangle_rows(
    "gamma-b", (1,), lambda n: n // 2 + 1,
    lambda n, k: 2 * k + 1, lambda n, k: 4 * (n + 1 - 2 * k))

_eulerian_a_rows = _triangle_rows(
    "eulerian-a", (1,), lambda n: n,
    lambda n, k: k + 1, lambda n, k: n - k)

_eulerian_b_rows = _triangle_rows(
    "eulerian-b", (1, 1), lambda n: n + 1,
    lambda n, k: 2 * k + 1, lambda n, k: 2 * (n - k) + 1)

_assoc_gamma_a_rows = _triangle_rows(
    "assoc-gamma-a", (1,), lambda n: (n - 1) // 2 + 1,
    lambda n, k: n + 2 * k + 1, lambda n, k: 4 * (n - 2 * k),
    lead=lambda n: n + 1)

_assoc_gamma_b_rows = _triangle_rows(
    "assoc-gamma-b", (1,), lambda n: n // 2 + 1,
    lambda n, k: n + 2 * k, lambda n, k: 4 * (n - 2 * k + 1),
    lead=lambda n: n)


def binomial_row(m: int) -> list[int]:
    """C(m, 0), ..., C(m, m), each entry stepped from the one before."""
    row = [1]
    for j in range(m):
        row.append(row[-1] * (m - j) // (j + 1))
    return row


def _narayana_h_a_row(n: int) -> list[int]:
    # h-vector of the type A associahedron: binom(n,k) binom(n,k+1) / n.
    c = binomial_row(n)
    row = [a * b for a, b in zip(c, c[1:])]
    for k, val in enumerate(row):
        if val % n:
            raise ArithmeticError(f"Narayana division failed at n={n}, k={k}")
    return [val // n for val in row]


def _assoc_gamma_a_row(n: int) -> list[int]:
    # gamma row of the type A associahedron: Catalan(k) binom(n-1, 2k), with
    # Catalan(k) = Catalan(k-1) 2(2k-1) / (k+1) stepped along the row.
    row, cat = [], 1
    for k, c in enumerate(binomial_row(n - 1)[::2]):
        if k:
            cat = cat * 2 * (2 * k - 1) // (k + 1)
        row.append(cat * c)
    return row


class Triangle:
    """A named integer triangle, given by the function that builds row n."""

    # No __slots__: perfbench/tracer.py rebinds ``value`` on each instance.

    def __init__(self, name: str, row_fn: Callable[[int], Sequence[int]], first_n: int = 1,
                 oeis: str | None = None, description: str = ""):
        self.name = name
        self.row_fn = row_fn
        self.first_n = first_n
        self.oeis = oeis
        self.description = description

    def _key(self):
        return self.name, self.row_fn, self.first_n, self.oeis, self.description

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


GAMMA_A = Triangle(
    "gamma-a", _gamma_a_rows,
    oeis="A101280", description="gamma rows of the type A Coxeter complex")
GAMMA_B = Triangle(
    "gamma-b", _gamma_b_rows,
    description="gamma rows of the type B Coxeter complex")
EULERIAN_A = Triangle(
    "eulerian-a", _eulerian_a_rows,
    oeis="A008292", description="descent counts over permutations")
EULERIAN_B = Triangle(
    "eulerian-b", _eulerian_b_rows,
    oeis="A060187", description="descent counts over signed permutations")
ASSOC_H_A = Triangle(
    "assoc-h-a", _narayana_h_a_row,
    description="h rows of the type A associahedron (Narayana numbers)")
ASSOC_H_B = Triangle(
    "assoc-h-b", lambda n: [c * c for c in binomial_row(n)],
    description="h rows of the type B associahedron (squared binomials)")
ASSOC_GAMMA_A = Triangle(
    "assoc-gamma-a", _assoc_gamma_a_row,
    oeis="A055151", description="gamma rows of the type A associahedron (Motzkin paths by up steps)")
ASSOC_GAMMA_A_REC = Triangle("assoc-gamma-a", _assoc_gamma_a_rows)
ASSOC_GAMMA_B = Triangle(
    "assoc-gamma-b",
    lambda n: [binomial(2 * k, k) * c for k, c in enumerate(binomial_row(n)[::2])],
    oeis="A089627", description="gamma rows of the type B associahedron")
ASSOC_GAMMA_B_REC = Triangle("assoc-gamma-b", _assoc_gamma_b_rows)
MOTZKIN_T = Triangle(
    "motzkin-T",
    lambda n: [c * binomial(n - k, (n - k) // 2) for k, c in enumerate(binomial_row(n))],
    first_n=0, oeis="A107230", description="Motzkin left factors of length n by flat steps")
CUBE_F = Triangle(
    "cube-f", lambda n: [c * 2 ** (n - k) for k, c in enumerate(binomial_row(n))],
    first_n=0, oeis="A038207", description="face counts of the n-cube")

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


def bfile_lines(triangle: Triangle, rows: int) -> Iterator[str]:
    """OEIS-style b-file: one 'index value' line per entry, reading row-major.

    Rows and indices both start at the triangle's first row, as OEIS
    offsets do.  Lines are yielded as each row is built.
    """
    first = triangle.first_n
    yield f"# {triangle.name} read by rows (rows {first}..{first + rows - 1}), offset {first}"
    idx = first
    for row in triangle.first_rows(rows):
        for v in row:
            yield f"{idx} {v}"
            idx += 1


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
