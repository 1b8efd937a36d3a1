"""Exact sparse multivariate polynomials over arbitrary-precision integers.

A polynomial carries an ordered alphabet of letters; a monomial is a dense
exponent tuple over that alphabet.  Alphabets stay tiny here (four or five
letters at most), so dense exponent vectors beat sparse maps on simplicity.
Coefficients are plain Python ints, so nothing overflows and nothing rounds.
The constructor and ``const`` refuse every coefficient or exponent that is
not an ``int``, a ``bool`` included, as ``UniPoly`` does.

Values are immutable by convention: every operation returns a new object and
no method mutates its receiver.  Terms iterate in graded lexicographic order
(total degree first, then the exponent tuple), which fixes the canonical text
and JSON forms.
"""

from __future__ import annotations

import re
from operator import add
from typing import Iterable, Mapping

__all__ = [
    "AlphabetMismatch",
    "MultiPoly",
    "check_letters",
]

_LETTER_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


class AlphabetMismatch(ValueError):
    """Two polynomials over different alphabets were combined."""


def check_letters(letters: Iterable[str] | str) -> tuple[str, ...]:
    """Normalize an alphabet given as a sequence or a space-separated string."""
    if isinstance(letters, str):
        letters = letters.split()
    letters = tuple(letters)
    seen: set[str] = set()
    for name in letters:
        if not isinstance(name, str) or not _LETTER_RE.match(name):
            raise ValueError(f"invalid letter name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate letter {name!r}")
        seen.add(name)
    return letters


def _render(pairs, end: str = "") -> str:
    """Canonical text of (monomial, coefficient) pairs, then ``end``, in one join.

    Signs fold into the joins, an empty monomial is the constant term and unit
    coefficients are elided."""
    parts: list[str] = []
    for mono, coeff in pairs:
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    parts.append(end)
    return "".join(parts) if len(parts) > 1 else "0" + end


class _Ring:
    """Operators ``MultiPoly`` and ``UniPoly`` derive from their own ``+``,
    ``*`` and ``-x``.

    A subclass supplies ``_coerced(other)``, which returns ``other`` as an
    element of the receiver's ring (lifting scalars) or None when it does
    not apply, and ``_add(other, sign)``, which returns self + sign * other
    for sign 1 or -1.  Each subclass puts ``_add`` behind its own ``+`` and
    ``-``, so no subtraction builds a negated operand first, and a profile
    charges the work to the subclass's module.
    """

    __slots__ = ()

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other._add(self, -1)

    def __pow__(self, exponent: int):
        """Square-and-multiply, starting from the ring's one."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {exponent!r}")
        result, base = self._coerced(1), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result


class MultiPoly(_Ring):
    """Sparse multivariate polynomial with exact integer coefficients."""

    __slots__ = ("letters", "terms")

    def __init__(self, letters, terms: Mapping[tuple[int, ...], int] | None = None):
        self.letters = check_letters(letters)
        width = len(self.letters)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} does not fit alphabet {self.letters}")
            if any(type(e) is not int for e in exps):
                raise TypeError(f"exponent vector {exps} holds a non-int")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if type(coeff) is not int:
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _raw(cls, letters: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        # Internal: trusted inputs, skips validation.
        p = object.__new__(cls)
        p.letters = letters
        p.terms = terms
        return p

    @classmethod
    def const(cls, letters, value: int) -> "MultiPoly":
        letters = check_letters(letters)
        if type(value) is not int:
            raise TypeError(f"constant {value!r} is not an int")
        if not value:
            return cls._raw(letters, {})
        return cls._raw(letters, {(0,) * len(letters): value})

    @classmethod
    def variable(cls, letters, name: str) -> "MultiPoly":
        letters = check_letters(letters)
        if name not in letters:
            raise ValueError(f"unknown letter {name!r} for alphabet {letters}")
        i = letters.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(letters)))
        return cls._raw(letters, {exps: 1})

    @classmethod
    def variables(cls, letters) -> tuple["MultiPoly", ...]:
        """One variable polynomial per letter, e.g. ``f, g = MultiPoly.variables("f g")``."""
        letters = check_letters(letters)
        return tuple(cls.variable(letters, name) for name in letters)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical order: by total degree, then exponent tuple."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    # ------------------------------------------------------------------
    # ring operations

    def _coerced(self, other):
        if type(other) is int:
            return MultiPoly.const(self.letters, other)
        if isinstance(other, MultiPoly):
            if other.letters != self.letters:
                raise AlphabetMismatch(
                    f"alphabets differ: {self.letters} vs {other.letters}")
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
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + sign * c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiPoly._raw(self.letters, out)

    def __neg__(self):
        return MultiPoly._raw(self.letters, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is int:
            if not other:
                return MultiPoly._raw(self.letters, {})
            return MultiPoly._raw(self.letters, {e: c * other for e, c in self.terms.items()})
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly._raw(self.letters, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is int:
            other = MultiPoly.const(self.letters, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.letters == other.letters and self.terms == other.terms

    def __hash__(self):
        if not any(map(any, self.terms)):  # a constant equals its int, so hashes as one
            return hash(sum(self.terms.values()))
        return hash((self.letters, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # alphabets

    def with_letters(self, letters) -> "MultiPoly":
        """Re-express over another alphabet, which must cover every used letter."""
        letters = check_letters(letters)
        if letters == self.letters:
            return self
        pos = {name: i for i, name in enumerate(letters)}
        width = len(letters)
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms.items():
            new = [0] * width
            for name, e in zip(self.letters, exps):
                if not e:
                    continue
                if name not in pos:
                    raise ValueError(f"cannot drop letter {name!r} still in use")
                new[pos[name]] = e
            out[tuple(new)] = c
        return MultiPoly._raw(letters, out)

    # ------------------------------------------------------------------
    # rendering

    def _text(self, end: str = "") -> str:
        return _render((("*".join(name if e == 1 else f"{name}^{e}"
                                  for name, e in zip(self.letters, exps) if e), coeff)
                        for exps, coeff in self.sorted_terms()), end)
    __str__ = _text

    def __repr__(self):
        return f"MultiPoly[{','.join(self.letters)}: {self}]"

    def to_json_dict(self) -> dict:
        """JSON form with big-integer-safe decimal-string coefficients."""
        return {
            "letters": list(self.letters),
            "terms": [
                {"coeff": str(c), "exps": list(e)} for e, c in self.sorted_terms()
            ],
        }
