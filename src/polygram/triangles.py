"""Integer triangles: gamma rows of the Coxeter complexes and associahedra of
types A and B, Eulerian numbers of both types, Motzkin-path counts and the
cube face counts.

Every triangle is a plain (n, k) -> int function plus a Triangle record that
names it and bounds its per-row support.  Values with k outside the support
row are zero.  Recurrence-backed rows step forward in a loop from the last
row asked for and keep only that row, so sweeping over n is linear.  Where a
closed form and a recurrence both exist they are implemented separately and
cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

__all__ = [
    "Triangle",
    "TRIANGLES",
    "OEIS_ALIASES",
    "binomial",
    "catalan",
    "factorial",
    "gamma_a",
    "gamma_b",
    "eulerian_a",
    "eulerian_b",
    "narayana_h_a",
    "assoc_h_b",
    "assoc_gamma_a",
    "assoc_gamma_a_by_recurrence",
    "assoc_gamma_b",
    "assoc_gamma_b_by_recurrence",
    "motzkin_left_h",
    "cube_f",
    "plain_triangle",
    "lookup_triangle",
    "bfile_lines",
    "triangle_json_dict",
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
    for a row below the tip steps again from the start.
    """
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

    # Triangle.row reads a row once per k; the one-slot cache answers those
    # repeats without holding more than the row the tip holds anyway.
    first = [first_row]
    return lru_cache(maxsize=1)(lambda n: _recurrence_row(name, n, first, step, first_n=1))


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


def _row_value(rows, n: int, k: int) -> int:
    r = rows(n)
    return r[k] if 0 <= k < len(r) else 0


def gamma_a(n: int, k: int) -> int:
    """Gamma row of the type A Coxeter complex (Eulerian polynomial expansion)."""
    return _row_value(_gamma_a_rows, n, k)


def gamma_b(n: int, k: int) -> int:
    """Gamma row of the type B Coxeter complex."""
    return _row_value(_gamma_b_rows, n, k)


def eulerian_a(n: int, k: int) -> int:
    """Permutations of [n] with k descents."""
    return _row_value(_eulerian_a_rows, n, k)


def eulerian_b(n: int, k: int) -> int:
    """Signed permutations of [n] with k descents (window read with a leading 0)."""
    return _row_value(_eulerian_b_rows, n, k)


def narayana_h_a(n: int, k: int) -> int:
    """h-vector entry of the type A associahedron: binom(n,k) binom(n,k+1) / n."""
    if n < 1:
        raise ValueError(f"rows start at n=1, got n={n}")
    num = binomial(n, k) * binomial(n, k + 1)
    if num == 0:
        return 0
    if num % n:
        raise ArithmeticError(f"Narayana division failed at n={n}, k={k}")
    return num // n


def assoc_h_b(n: int, k: int) -> int:
    """h-vector entry of the type B associahedron: binom(n,k)^2."""
    if n < 1:
        raise ValueError(f"rows start at n=1, got n={n}")
    return binomial(n, k) ** 2


def assoc_gamma_a(n: int, k: int) -> int:
    """Gamma row of the type A associahedron: Catalan(k) binom(n-1, 2k)."""
    if n < 1:
        raise ValueError(f"rows start at n=1, got n={n}")
    return catalan(k) * binomial(n - 1, 2 * k)


def assoc_gamma_a_by_recurrence(n: int, k: int) -> int:
    return _row_value(_assoc_gamma_a_rows, n, k)


def assoc_gamma_b(n: int, k: int) -> int:
    """Gamma row of the type B associahedron: binom(2k,k) binom(n, 2k)."""
    if n < 1:
        raise ValueError(f"rows start at n=1, got n={n}")
    return binomial(2 * k, k) * binomial(n, 2 * k)


def assoc_gamma_b_by_recurrence(n: int, k: int) -> int:
    return _row_value(_assoc_gamma_b_rows, n, k)


def motzkin_left_h(n: int, k: int) -> int:
    """Length-n nonnegative {U,D,H} prefixes with k flat steps."""
    if n < 0:
        raise ValueError(f"rows start at n=0, got n={n}")
    if k < 0 or k > n:
        return 0
    return binomial(n, k) * binomial(n - k, (n - k) // 2)


def cube_f(n: int, k: int) -> int:
    """Face count of the n-cube: binom(n,k) 2^(n-k)."""
    if n < 0:
        raise ValueError(f"rows start at n=0, got n={n}")
    if k < 0 or k > n:
        return 0
    return binomial(n, k) * 2 ** (n - k)


@dataclass(frozen=True)
class Triangle:
    """A named integer triangle with explicit per-row support."""

    name: str
    value: Callable[[int, int], int]
    support: Callable[[int], range]
    first_n: int = 1
    oeis: str | None = None
    description: str = ""

    def row(self, n: int) -> list[int]:
        if n < self.first_n:
            raise ValueError(f"{self.name} rows start at n={self.first_n}")
        return [self.value(n, k) for k in self.support(n)]


def plain_triangle(name: str, value: Callable[[int, int], int],
                   support: Callable[[int], range]) -> Triangle:
    """Ad hoc triangle wrapper, mainly for one-off expected rows."""
    return Triangle(name, value, support)


GAMMA_A = Triangle(
    "gamma-a", gamma_a, lambda n: range((n - 1) // 2 + 1),
    oeis="A101280", description="gamma rows of the type A Coxeter complex")
GAMMA_B = Triangle(
    "gamma-b", gamma_b, lambda n: range(n // 2 + 1),
    description="gamma rows of the type B Coxeter complex")
EULERIAN_A = Triangle(
    "eulerian-a", eulerian_a, lambda n: range(n),
    oeis="A008292", description="descent counts over permutations")
EULERIAN_B = Triangle(
    "eulerian-b", eulerian_b, lambda n: range(n + 1),
    oeis="A060187", description="descent counts over signed permutations")
ASSOC_H_A = Triangle(
    "assoc-h-a", narayana_h_a, lambda n: range(n),
    description="h rows of the type A associahedron (Narayana numbers)")
ASSOC_H_B = Triangle(
    "assoc-h-b", assoc_h_b, lambda n: range(n + 1),
    description="h rows of the type B associahedron (squared binomials)")
ASSOC_GAMMA_A = Triangle(
    "assoc-gamma-a", assoc_gamma_a, lambda n: range((n - 1) // 2 + 1),
    oeis="A055151", description="gamma rows of the type A associahedron (Motzkin paths by up steps)")
ASSOC_GAMMA_A_REC = Triangle(
    "assoc-gamma-a", assoc_gamma_a_by_recurrence, lambda n: range((n - 1) // 2 + 1))
ASSOC_GAMMA_B = Triangle(
    "assoc-gamma-b", assoc_gamma_b, lambda n: range(n // 2 + 1),
    oeis="A089627", description="gamma rows of the type B associahedron")
ASSOC_GAMMA_B_REC = Triangle(
    "assoc-gamma-b", assoc_gamma_b_by_recurrence, lambda n: range(n // 2 + 1))
MOTZKIN_T = Triangle(
    "motzkin-T", motzkin_left_h, lambda n: range(n + 1), first_n=0,
    oeis="A107230", description="Motzkin left factors of length n by flat steps")
CUBE_F = Triangle(
    "cube-f", cube_f, lambda n: range(n + 1), first_n=0,
    oeis="A038207", description="face counts of the n-cube")

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


def bfile_lines(triangle: Triangle, rows: int) -> list[str]:
    """OEIS-style b-file: one 'index value' line per entry, reading row-major."""
    out = [f"# {triangle.name} read by rows (rows 1..{rows}), offset 1"]
    idx = 1
    for n in range(1, rows + 1):
        for v in triangle.row(n):
            out.append(f"{idx} {v}")
            idx += 1
    return out


def triangle_json_dict(triangle: Triangle, rows: int) -> dict:
    return {
        "name": triangle.name,
        "oeis": triangle.oeis,
        "offset": 1,
        "rows": [[str(v) for v in triangle.row(n)] for n in range(1, rows + 1)],
    }
