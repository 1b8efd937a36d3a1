"""Dense univariate polynomials with exact integer coefficients.

Coefficients are validated once, where they enter: the constructor checks
the letter and refuses every coefficient that is not an ``int``, a ``bool``
included.  Arithmetic results (``+``, ``-``, ``*``, ``derivative``) are
built from values already checked, so they are trusted: they only pass
through ``_trimmed``, which drops trailing zeros.

Every dense sum of products in the package, here, in ``quadratic`` and in
``classical``'s series products and inverse, goes through one kernel,
``_mac``: it adds w*a(x^step)*b(x^step)*x^shift into a plain int list, one
slice update of stride ``step`` per nonzero coefficient of the shorter
operand, so a sum is trimmed once at the end and builds no ``UniPoly`` per
product.  A product whose shorter operand has one nonzero coefficient c*x^e
is a shift, ``[0]*e + [a*c for a in longer]``.  A product of two operands
that each have a parity (even: no odd-index coefficient; odd: no even-index
one) multiplies their nonzero slots only: ``long[p::2]`` and ``short[q::2]``
at step 2 from slot p + q.  The parity is read from the data in ``*``, not
in ``_mac``, whose many small series products would all pay for the test.

A sum and a difference are the same signed add, ``_add``.  Reversed
subtraction and ``**`` come from ``poly._Ring``, the operator base shared by
``MultiPoly`` and ``UniPoly``; the text form comes from ``poly._render``,
the renderer ``MultiPoly`` uses as well.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable

from .poly import AlphabetMismatch, _render, _Ring, check_letters

__all__ = ["UniPoly"]


def _mac(out: list[int], a, b, w: int = 1, shift: int = 0, step: int = 1) -> None:
    """Add w * a(x^step) * b(x^step) * x^shift into the coefficient list ``out``.

    ``a`` and ``b`` are coefficient sequences; ``out`` grows with zeros to
    cover the product and must alias neither of them.  An empty operand or
    w = 0 leaves ``out`` as it is.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b or not w:
        return
    span = (len(a) - 1) * step + 1
    need = shift + span + (len(b) - 1) * step
    if len(out) < need:
        out.extend([0] * (need - len(out)))
    j = shift
    for y in b:
        if y:
            y *= w
            out[j:j + span:step] = map(add, out[j:j + span:step], [x * y for x in a])
        j += step


def _parity(c) -> int | None:
    # 0 when c has no odd-index coefficient, 1 when it has no even-index one,
    # None otherwise.
    if not any(c[1::2]):
        return 0
    if not any(c[::2]):
        return 1
    return None


def _trimmed(var: str, coeffs: list[int]) -> "UniPoly":
    # Trusted arithmetic results: no type checks, only trailing zeros dropped.
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return UniPoly._raw(var, tuple(coeffs))


class UniPoly(_Ring):
    """Polynomial in a single named letter, stored as an ascending coefficient tuple."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[int] = ()):
        letters = check_letters([var] if isinstance(var, str) else var)
        if len(letters) != 1:
            raise ValueError(f"UniPoly takes exactly one letter, got {letters}")
        self.var = letters[0]
        out = list(coeffs)
        for c in out:
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} must be an int")
        while out and out[-1] == 0:
            out.pop()
        self.coeffs = tuple(out)

    @classmethod
    def _raw(cls, var: str, coeffs: tuple[int, ...]) -> "UniPoly":
        p = object.__new__(cls)
        p.var = var
        p.coeffs = coeffs
        return p

    @classmethod
    def constant(cls, var: str, value: int) -> "UniPoly":
        return cls(var, (value,))

    @classmethod
    def variable(cls, var: str) -> "UniPoly":
        return cls(var, (0, 1))

    # ------------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # ------------------------------------------------------------------

    def _coerced(self, other):
        if type(other) is int:
            return _trimmed(self.var, [other])
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise AlphabetMismatch(f"variables differ: {self.var!r} vs {other.var!r}")
            return other
        return None

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def _add(self, other, sign: int):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out, b = list(self.coeffs), other.coeffs
        if len(out) < len(b):
            out += [0] * (len(b) - len(out))
        out[:len(b)] = map(add if sign > 0 else sub, out, b)
        return _trimmed(self.var, out)

    def __neg__(self):
        return UniPoly._raw(self.var, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if type(other) is int:
            if other == 0:
                return UniPoly._raw(self.var, ())
            return UniPoly._raw(self.var, tuple(c * other for c in self.coeffs))
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly._raw(self.var, ())
        # A shorter operand with one nonzero coefficient c*x^e is a shift:
        # no two products meet and none cancels.
        long, short = self.coeffs, other.coeffs
        if len(long) < len(short):
            long, short = short, long
        if not any(short[:-1]):
            c = short[-1]
            return _trimmed(self.var, [0] * (len(short) - 1) + [v * c for v in long])
        out: list[int] = []
        q = _parity(short)
        p = None if q is None else _parity(long)
        if p is None:
            _mac(out, long, short)
        else:
            _mac(out, long[p::2], short[q::2], shift=p + q, step=2)
        return _trimmed(self.var, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is int:
            other = UniPoly(self.var, (other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) < 2:  # a constant equals its int, so hashes as one
            return hash(sum(self.coeffs))
        return hash((self.var, self.coeffs))

    # ------------------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return _trimmed(self.var, [i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # ------------------------------------------------------------------

    def __str__(self):
        var = self.var
        return _render((("" if e == 0 else var if e == 1 else f"{var}^{e}"), c)
                       for e, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"UniPoly[{self.var}: {self}]"
