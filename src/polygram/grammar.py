"""Rewrite-rule grammars and their derivative operators.

A grammar assigns every letter of its alphabet a polynomial over the same
alphabet.  That assignment induces a derivation D (linear, Leibniz on
products) given by D(p) = sum over letters x of rule(x) * dp/dx.  The
weighted one-sided variants, p -> D(w*p) and p -> w*D(p) for a weight
letter w, are first-class operator values so that iteration and
coefficient extraction never special-case them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Iterator, Mapping

from .poly import AlphabetMismatch, MultiPoly, check_letters
from .report import Check, Report

__all__ = [
    "DerivOp",
    "Grammar",
    "PatternMismatch",
    "PowerPattern",
    "expansion_coefficients",
    "iterate_operator",
    "operator_iterates",
    "verify_identity",
]


class Grammar:
    """Total map letter -> polynomial over a fixed alphabet."""

    __slots__ = ("letters", "rules")

    def __init__(self, letters, rules: Mapping[str, MultiPoly]):
        self.letters = check_letters(letters)
        extra = set(rules) - set(self.letters)
        if extra:
            raise ValueError(f"rules for letters outside the alphabet: {sorted(extra)}")
        table: dict[str, MultiPoly] = {}
        for name in self.letters:
            if name not in rules:
                raise ValueError(f"no rule for letter {name!r}")
            rhs = rules[name]
            if not isinstance(rhs, MultiPoly):
                raise TypeError(f"rule for {name!r} is not a polynomial")
            table[name] = rhs.with_letters(self.letters)
        self.rules = table

    def rule(self, name: str) -> MultiPoly:
        return self.rules[name]

    def derive(self, p: MultiPoly) -> MultiPoly:
        """Apply the induced derivation D."""
        if p.letters != self.letters:
            raise AlphabetMismatch(
                f"polynomial alphabet {p.letters} differs from grammar alphabet {self.letters}")
        out = MultiPoly.zero(self.letters)
        for name in self.letters:
            dp = p.partial_derivative(name)
            if not dp.is_zero:
                out = out + self.rules[name] * dp
        return out

    def __eq__(self, other):
        if not isinstance(other, Grammar):
            return NotImplemented
        return self.letters == other.letters and self.rules == other.rules

    def __hash__(self):
        return hash((self.letters, tuple(self.rules[n] for n in self.letters)))

    def __str__(self):
        return "; ".join(f"{name} -> {self.rules[name]}" for name in self.letters)

    def __repr__(self):
        return f"Grammar[{self}]"


@dataclass(frozen=True)
class DerivOp:
    """The derivation D, or a weighted variant with weight letter w.

    kind "preD" multiplies before deriving (p -> D(w*p)); kind "postD"
    derives first (p -> w*D(p)).
    """

    kind: str
    weight: str | None = None

    def __post_init__(self):
        if self.kind not in ("D", "preD", "postD"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if (self.weight is None) != (self.kind == "D"):
            raise ValueError("weighted operators need a weight letter, plain D takes none")

    @classmethod
    def plain(cls) -> "DerivOp":
        return cls("D")

    @classmethod
    def pre_mul(cls, weight: str) -> "DerivOp":
        return cls("preD", weight)

    @classmethod
    def post_mul(cls, weight: str) -> "DerivOp":
        return cls("postD", weight)

    @classmethod
    def parse(cls, text: str) -> "DerivOp":
        if text == "D":
            return cls.plain()
        for prefix, kind in (("preD:", "preD"), ("postD:", "postD")):
            if text.startswith(prefix) and text[len(prefix):]:
                return cls(kind, text[len(prefix):])
        raise ValueError(
            f"bad operator {text!r}: use D, preD:<letter> or postD:<letter>")

    def apply(self, grammar: Grammar, p: MultiPoly) -> MultiPoly:
        if self.kind == "D":
            return grammar.derive(p)
        w = MultiPoly.variable(grammar.letters, self.weight)
        if self.kind == "preD":
            return grammar.derive(w * p)
        return w * grammar.derive(p)

    def __str__(self):
        return self.kind if self.kind == "D" else f"{self.kind}:{self.weight}"


def operator_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly,
                      n_max: int) -> Iterator[MultiPoly]:
    """start, op(start), op^2(start), ... up to op^n_max(start), yielded lazily.

    Each iterate is one operator application on the one before, so a sweep
    over n <= n_max costs n_max applications in total, not n_max^2, and only
    the iterates a caller keeps stay in memory.  A negative n_max is refused
    at the call.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return accumulate(repeat(op, n_max), lambda p, step: step.apply(grammar, p),
                      initial=start.with_letters(grammar.letters))


def iterate_operator(grammar: Grammar, op: DerivOp, start: MultiPoly, n: int) -> MultiPoly:
    """op applied n times to start; n = 0 returns start."""
    return deque(operator_iterates(grammar, op, start, n), maxlen=1).pop()


class PatternMismatch(ValueError):
    """A term fell outside the monomial family being read off."""


@dataclass(frozen=True)
class PowerPattern:
    """Monomial family exps(k) = base + k*step over a fixed alphabet, k = 0, 1, ..."""

    letters: tuple[str, ...]
    base: tuple[int, ...]
    step: tuple[int, ...]

    def exponents(self, k: int) -> tuple[int, ...]:
        return tuple(b + k * s for b, s in zip(self.base, self.step))

    def match(self, exps) -> int | None:
        """The unique k with exps == exponents(k), or None."""
        k = None
        for b, s, e in zip(self.base, self.step, exps):
            if s == 0:
                if e != b:
                    return None
            else:
                d = e - b
                if d % s:
                    return None
                kk = d // s
                if kk < 0 or (k is not None and kk != k):
                    return None
                k = kk
        return 0 if k is None else k


def expansion_coefficients(p: MultiPoly, pattern: PowerPattern) -> list[int]:
    """Coefficients of the pattern family members, densely indexed from k = 0.

    Raises PatternMismatch if any term of p lies outside the family; that is
    how a falsified structural identity announces itself.
    """
    if p.letters != pattern.letters:
        raise AlphabetMismatch(
            f"polynomial alphabet {p.letters} differs from pattern alphabet {pattern.letters}")
    found: dict[int, int] = {}
    for exps, coeff in p.terms.items():
        k = pattern.match(exps)
        if k is None:
            stray = MultiPoly._raw(p.letters, {exps: coeff})
            raise PatternMismatch(f"term {stray} does not fit the expected monomial family")
        found[k] = coeff
    if not found:
        return []
    return [found.get(k, 0) for k in range(max(found) + 1)]


def verify_identity(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int,
                    expected, normalization: Callable[[int], int],
                    pattern_for: Callable[[int], PowerPattern],
                    label: str) -> Report:
    """Compare op^n(start) with normalization(n) * expected.row(n) for n = 1..n_max.

    ``expected`` is any triangle-like object with row(n); ``pattern_for(n)``
    names the monomial family carrying coefficient index k.  Both rows are
    zero-padded to one length and compared whole; only on a mismatch is the
    first differing k looked up for the message.  Every n is checked even
    after a failure.
    """
    iterates = operator_iterates(grammar, op, start, n_max)
    next(iterates)  # op^0(start) is not checked
    report = Report(label)
    for n, current in enumerate(iterates, start=1):
        try:
            got = expansion_coefficients(current, pattern_for(n))
        except PatternMismatch as exc:
            report.add(Check(label, n, False, str(exc)))
            continue
        norm = normalization(n)
        want = [norm * c for c in expected.row(n)]
        width = max(len(got), len(want))
        got += [0] * (width - len(got))
        want += [0] * (width - len(want))
        failure = ""
        if got != want:
            k = next(k for k in range(width) if got[k] != want[k])
            failure = f"k={k}: got {got[k]}, want {want[k]}"
        report.add(Check(label, n, not failure, failure))
    return report
