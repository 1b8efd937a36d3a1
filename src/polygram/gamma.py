"""h-polynomials and their gamma expansions.

A palindromic h-polynomial of structural degree d expands uniquely in the
basis x^i (1+x)^(d-2i); the coefficient vector of that expansion is the
gamma vector.  The degree bound d travels with both types because the basis
depends on d, not on the polynomial's actual degree (trailing zeros are
legitimate).
"""

from __future__ import annotations

from .triangles import (ASSOC_GAMMA_A, ASSOC_GAMMA_B, ASSOC_H_A, ASSOC_H_B,
                        EULERIAN_A, EULERIAN_B, GAMMA_A, GAMMA_B, binomial_row)

__all__ = [
    "FAMILIES",
    "GammaVector",
    "HPoly",
    "associahedron_h",
    "coxeter_h",
    "gamma_to_h",
    "h_to_gamma",
]


class HPoly:
    """Coefficients h_0..h_d; d is structural, so trailing zeros are kept."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("an h-polynomial needs at least h_0")

    @property
    def d(self) -> int:
        return len(self.coeffs) - 1

    def is_palindromic(self) -> bool:
        c = self.coeffs
        return all(c[i] == c[len(c) - 1 - i] for i in range(len(c) // 2 + 1))

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"HPoly(coeffs={self.coeffs!r})"


class GammaVector:
    """gamma_0..gamma_(d//2), the coefficients of x^i (1+x)^(d-2i)."""

    __slots__ = ("gammas", "d")

    def __init__(self, gammas: tuple[int, ...], d: int):
        self.gammas = tuple(gammas)
        self.d = d
        if d < 0:
            raise ValueError("degree bound must be >= 0")
        want = d // 2 + 1
        if len(self.gammas) != want:
            raise ValueError(f"need {want} entries for d={d}, got {len(self.gammas)}")

    def __eq__(self, other):
        if not isinstance(other, GammaVector):
            return NotImplemented
        return self.gammas == other.gammas and self.d == other.d

    def __hash__(self):
        return hash((self.gammas, self.d))

    def __str__(self):
        return ",".join(str(g) for g in self.gammas)

    def __repr__(self):
        return f"GammaVector(gammas={self.gammas!r}, d={self.d!r})"


def _add_binomial_row(coeffs: list[int], i: int, gi: int, m: int) -> None:
    """coeffs += gi x^i (1+x)^m in place."""
    for j, c in enumerate(binomial_row(m), start=i):
        coeffs[j] += gi * c


def gamma_to_h(gamma: GammaVector) -> HPoly:
    """Expand sum_i gamma_i x^i (1+x)^(d-2i) into plain coefficients."""
    d = gamma.d
    coeffs = [0] * (d + 1)
    for i, gi in enumerate(gamma.gammas):
        if gi:
            _add_binomial_row(coeffs, i, gi, d - 2 * i)
    return HPoly(tuple(coeffs))


def h_to_gamma(h: HPoly) -> GammaVector:
    """Invert gamma_to_h by peeling; only palindromic input has an expansion."""
    if not h.is_palindromic():
        raise ValueError(f"h-polynomial {list(h.coeffs)} is not palindromic")
    d = h.d
    residual = list(h.coeffs)
    gammas = []
    for i in range(d // 2 + 1):
        gi = residual[i]
        gammas.append(gi)
        if gi:
            _add_binomial_row(residual, i, -gi, d - 2 * i)
    if any(residual):
        raise AssertionError("palindromic peel left a nonzero residual")
    return GammaVector(tuple(gammas), d)


def coxeter_h(family: str, n: int) -> HPoly:
    """h-polynomial of the Coxeter complex: the Eulerian polynomial of that type."""
    family = family.upper()
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if family == "A":
        return HPoly(tuple(EULERIAN_A.row(n)))
    if family == "B":
        return HPoly(tuple(EULERIAN_B.row(n)))
    raise ValueError(f"family must be 'A' or 'B', got {family!r}")


def associahedron_h(family: str, n: int) -> HPoly:
    """h-polynomial of the associahedron of the given type."""
    family = family.upper()
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if family == "A":
        return HPoly(tuple(ASSOC_H_A.row(n)))
    if family == "B":
        return HPoly(tuple(ASSOC_H_B.row(n)))
    raise ValueError(f"family must be 'A' or 'B', got {family!r}")


# CLI families: h-polynomial builder plus the triangle its gamma row must match.
FAMILIES = {
    "coxeter-a": (lambda n: coxeter_h("A", n), GAMMA_A),
    "coxeter-b": (lambda n: coxeter_h("B", n), GAMMA_B),
    "assoc-a": (lambda n: associahedron_h("A", n), ASSOC_GAMMA_A),
    "assoc-b": (lambda n: associahedron_h("B", n), ASSOC_GAMMA_B),
}
