"""Arithmetic in Z[x][s] / (s^2 - q(x)): one adjoined formal square root.

A constant modulus is allowed, so q = -1 gives the Gaussian integers over
any base letter.  An ``ExtPoly`` is a reduced value a + b*s: no s^2
survives, and it has no arithmetic.  A sum of terms c * s^e * x^b enters
the ring through ``QuadraticRing.collect``, or through ``collect_line``
when s^2 rises as x^2 falls and q = x^2 +/- 1; ``of`` only wraps two
components that are already reduced.

The ring caches each power q^j next to its nonzero slots r^j, with
q^j(x) = r^j(x^step).  An even modulus (no odd-index coefficient, as
1 + h^2, x^2 - 1 or -1) has step 2, so ``collect`` adds c * r^j at stride 2
from slot b and touches half the slots; any other modulus (thm31's 4x - 1)
has step 1, and r^j is q^j's own tuple.
"""

from __future__ import annotations

from operator import add, sub

from .unipoly import UniPoly, _mac, _trimmed

__all__ = ["ExtPoly", "QuadraticRing"]


class ExtPoly:
    """a + b*s with s^2 = modulus; both components share the base letter."""

    __slots__ = ("a", "b", "modulus")

    def __init__(self, a: UniPoly, b: UniPoly, modulus: UniPoly):
        if not (a.var == b.var == modulus.var):
            raise ValueError("components and modulus must share one letter")
        self.a = a
        self.b = b
        self.modulus = modulus

    @property
    def is_real(self) -> bool:
        return self.b.is_zero

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
        # q^j(x) = r^j(x^step): stride 2 for an even modulus, 1 for any other.
        self._step = 1 if any(modulus.coeffs[1::2]) else 2
        self._powers = [(UniPoly._raw(self.var, (1,)), (1,))]

    def _lift(self, c):
        # Exact ints take the trusted path; a bool still meets the checks.
        if type(c) is int:
            return UniPoly._raw(self.var, (c,) if c else ())
        return UniPoly.constant(self.var, c) if isinstance(c, int) else c

    def of(self, a, b=0) -> ExtPoly:
        return ExtPoly(self._lift(a), self._lift(b), self.modulus)

    def _power(self, j: int) -> tuple[UniPoly, tuple[int, ...]]:
        """(q^j, r^j), read from a list in which each q^j is one product from the last."""
        if j < 0:
            raise ValueError(f"power must be >= 0, got {j}")
        powers = self._powers
        while len(powers) <= j:
            q_j = powers[-1][0] * self.modulus
            powers.append((q_j, q_j.coeffs[::self._step]))
        return powers[j]

    def collect(self, terms) -> ExtPoly:
        """Sum c * s^e * x^b over (e, b, c) triples, reduced by s^2 = q.

        Each term adds c * r^(e//2) at stride ``step`` from slot b, through
        ``_mac``, into the int list of its s-parity component; c = 0 is
        skipped and both components are trimmed once at the end.  A negative
        power of x is refused, as one of s is by ``_power``.
        """
        parts: tuple[list[int], list[int]] = ([], [])
        step = self._step
        for e, b, c in terms:
            if b < 0:
                raise ValueError(f"x power must be >= 0, got term (e={e}, b={b}, c={c})")
            if c:
                _mac(parts[e % 2], self._power(e // 2)[1], (c,), shift=b, step=step)
        return self.of(_trimmed(self.var, parts[0]), _trimmed(self.var, parts[1]))

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
