"""Arithmetic in Z[x][s] / (s^2 - q(x)): one adjoined formal square root.

An ``ExtPoly`` is a reduced value a + b*s with no arithmetic.  In polygram
only ``verify._specialize`` builds a ring, over q = x^2 +/- 1: a got side,
each line of c * s^e * x^b with s^2 rising as x^2 falls, enters through
``collect_line``; ``of`` only wraps a want side's two components, already
reduced.  The ring holds only its modulus and letter: ``collect_line`` is
Horner in q, so no power of q is ever formed.
"""

from __future__ import annotations

from operator import add, sub

from .unipoly import UniPoly, _trimmed

__all__ = ["ExtPoly", "QuadraticRing"]


class ExtPoly:
    """a + b*s with s^2 = modulus; both components share the base letter."""

    __slots__ = ("a", "b", "modulus")

    def __init__(self, a: UniPoly, b: UniPoly, modulus: UniPoly):
        if not (a.var == b.var == modulus.var):
            raise ValueError("components and modulus must share one letter")
        self.a, self.b, self.modulus = a, b, modulus

    def __eq__(self, other):
        if not isinstance(other, ExtPoly):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.a, self.b, self.modulus))

    def __str__(self):
        return f"({self.a}) + ({self.b})*s  [s^2 = {self.modulus}]"

    def __repr__(self):
        return f"ExtPoly(a={self.a!r}, b={self.b!r}, modulus={self.modulus!r})"


class QuadraticRing:
    """Constructors for a fixed modulus q over its base letter."""

    def __init__(self, modulus: UniPoly):
        if modulus.is_zero:
            raise ValueError("modulus must be nonzero")
        self.modulus = modulus
        self.var = modulus.var

    def _lift(self, c):
        # Exact ints take the trusted path; a bool still meets the checks.
        if type(c) is int:
            return UniPoly._raw(self.var, (c,) if c else ())
        return UniPoly.constant(self.var, c) if isinstance(c, int) else c

    def of(self, a, b=0) -> ExtPoly:
        return ExtPoly(self._lift(a), self._lift(b), self.modulus)

    def collect_line(self, coeffs, e: int, top: int, scale: int = 1) -> ExtPoly:
        """Sum coeffs[k] * s^(e+2k) * (scale*x)^(top-2k), for q = x^2 +/- 1 = y +/- 1.

        Homogeneous Horner in q over y = x^2: each step is one pass of
        additions, no power of q is formed, and scale, a power of two, enters
        as a shift.  A term with a negative power of s or x is refused."""
        op = {(1, 0, 1): add, (-1, 0, 1): sub}.get(self.modulus.coeffs)
        bits, low = scale.bit_length() - 1, top - 2 * len(coeffs) + 2
        if op is None or scale < 1 or scale & scale - 1 or coeffs and (e < 0 or low < 0):
            raise ValueError(f"collect_line got q = {self.modulus}, scale {scale}, s^{e}, x^{low}")
        if not coeffs:
            return self.of(0)
        d = [0] * (e // 2) + [c << bits * (top - 2 * k) for k, c in enumerate(coeffs)]
        acc = [d.pop()]
        for c in reversed(d):
            # acc * (y +/- 1) + c * y^len(acc): the top slot is acc[-1] + c
            acc = [*map(op, [0, *acc], acc), acc[-1] + c]
        out = [0] * (low + 2 * len(acc) - 1)  # x^low acc(x^2)
        out[low::2] = acc
        return self.of(*[0] * (e % 2), _trimmed(self.var, out))  # the s part when e is odd
