"""Rewrite-rule grammars and their derivative operators.

A grammar assigns every letter of its alphabet a polynomial over the same
alphabet.  That assignment induces a derivation D (linear, Leibniz on
products) given by D(p) = sum over letters x of rule(x) * dp/dx.  The
weighted one-sided variants, p -> D(w*p) and p -> w*D(p) for a weight
letter w, are first-class operator values so that iteration and
coefficient extraction never special-case them.

All three operators run on one packed kernel.  A monomial is one int: the
exponent of letter i sits in bits [i*W, (i+1)*W).  A grammar and an
operator compile once into a tuple of moves, one per term t of each rule
x -> rule(x): (field shift of x, packed delta t - x + w, coefficient of t,
bump), where w is the weight letter (nothing for plain D) and the bump is 1
only for x = w under preD, whose D(w*m) sees the exponent of w one higher
(so its delta is t alone).  One step applies every move to every term:
e = field + bump; if e: out[key + delta] += c * (e * rc), then drops the
zero coefficients; a grammar with no moves (every rule zero) steps to {}.

The step runs in two loop orders that build equal dicts.  ``_step`` takes
the moves on the outside: the first move fills out with one comprehension,
as key -> key + delta is one-to-one, and the other moves add into it.
``_ordered_step`` takes the terms on the outside, so an iterate lists its
terms in the order of the first (term, move) pair that reaches each.  Only
the order differs, and only a failure reads it: the reader names the first
stray term in dict order.  So every iterate handed out, and every iterate a
failing check reads, comes from ``_ordered_step``; verify_identity decides
its passing checks on ``_step``'s iterates, which it compares as dicts.

W is derived, never set.  No exponent of op^n(start), n <= n_max, exceeds
B = deg(start) + n_max * max(0, (max rule degree) - 1 + [weighted]), so
W = bit_length(B) + 1: every field stays below 2^(W-1), one guard bit
under its neighbour, and no field carries into the next.  Python ints are
unbounded, so there is no fixed width to overflow.

A PowerPattern family base + k*step is kept to the k range in which every
field of base + k*step lies in [0, 2^(W-1)), so a carry between fields can
never pass for a match.  verify_identity packs each expected row the same
way, {base + k*step: coefficient}, and compares it with the iterate as one
dict.  Only when the two differ does the reader run: it takes k from one
field, requires the whole key to equal the packed base + k*step, and names
the first differing k or the stray term.  Keys are unpacked only to build a
MultiPoly or to name a stray term.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import accumulate, islice, repeat
from math import inf
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


class DerivOp:
    """The derivation D, or a weighted variant with weight letter w.

    kind "preD" multiplies before deriving (p -> D(w*p)); kind "postD"
    derives first (p -> w*D(p)).
    """

    __slots__ = ("kind", "weight")

    def __init__(self, kind: str, weight: str | None = None):
        if kind not in ("D", "preD", "postD"):
            raise ValueError(f"unknown operator kind {kind!r}")
        if (weight is None) != (kind == "D"):
            raise ValueError("weighted operators need a weight letter, plain D takes none")
        self.kind = kind
        self.weight = weight

    @classmethod
    def parse(cls, text: str) -> "DerivOp":
        if text == "D":
            return cls("D")
        for prefix, kind in (("preD:", "preD"), ("postD:", "postD")):
            if text.startswith(prefix) and text[len(prefix):]:
                return cls(kind, text[len(prefix):])
        raise ValueError(
            f"bad operator {text!r}: use D, preD:<letter> or postD:<letter>")

    def __eq__(self, other):
        if not isinstance(other, DerivOp):
            return NotImplemented
        return self.kind == other.kind and self.weight == other.weight

    def __hash__(self):
        return hash((self.kind, self.weight))

    def __str__(self):
        return self.kind if self.kind == "D" else f"{self.kind}:{self.weight}"

    def __repr__(self):
        return f"DerivOp(kind={self.kind!r}, weight={self.weight!r})"


# ----------------------------------------------------------------------
# the packed kernel

def _compile(grammar: Grammar, op: DerivOp, degree: int, n_max: int):
    """(W, moves) for n_max applications of op to a start of total degree ``degree``.

    An unknown weight letter is refused here, before any step runs.
    """
    letters = grammar.letters
    if op.weight is not None and op.weight not in letters:
        raise ValueError(f"unknown weight letter {op.weight!r} for alphabet {letters}")
    weighted = op.weight is not None
    top = max((rule.degree() for rule in grammar.rules.values()), default=0)
    width = (max(degree, 0) + n_max * max(0, top - 1 + weighted)).bit_length() + 1
    unit = [1 << (i * width) for i in range(len(letters))]
    weight_bit = unit[letters.index(op.weight)] if weighted else 0
    moves = []
    for i, name in enumerate(letters):
        bump = int(op.kind == "preD" and name == op.weight)
        for exps, rc in grammar.rules[name].terms.items():
            moves.append((i * width, _pack(exps, width) - unit[i] + weight_bit, rc, bump))
    return width, tuple(moves)


def _pack(exps, width: int) -> int:
    key = 0
    for i, e in enumerate(exps):
        key += e << (i * width)
    return key


def _unpacked(letters: tuple[str, ...], terms: dict[int, int], width: int) -> MultiPoly:
    mask = (1 << width) - 1
    shifts = range(0, len(letters) * width, width)
    return MultiPoly._raw(letters, {tuple(key >> shift & mask for shift in shifts): c
                                    for key, c in terms.items()})


def _ordered_step(terms: dict[int, int], moves, mask: int) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for key, c in terms.items():
        for shift, delta, rc, bump in moves:
            e = (key >> shift & mask) + bump
            if e:
                k = key + delta
                out[k] = get(k, 0) + c * (e * rc)
    return {key: c for key, c in out.items() if c}


def _step(terms: dict[int, int], moves, mask: int) -> dict[int, int]:
    if not moves:
        return {}
    # key -> key + delta is one-to-one, so the first move fills out directly.
    (shift, delta, rc, bump), *rest = moves
    out = {key + delta: c * (e * rc) for key, c in terms.items()
           if (e := (key >> shift & mask) + bump)}
    get = out.get
    for shift, delta, rc, bump in rest:
        for key, c in terms.items():
            e = (key >> shift & mask) + bump
            if e:
                k = key + delta
                out[k] = get(k, 0) + c * (e * rc)
    return {key: c for key, c in out.items() if c}


def _packed_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int,
                     step=_ordered_step):
    """(W, iterator over packed op^n(start) for n = 0..n_max), each built by ``step``."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    start = start.with_letters(grammar.letters)
    width, moves = _compile(grammar, op, start.degree(), n_max)
    mask = (1 << width) - 1
    terms = {_pack(exps, width): c for exps, c in start.terms.items()}
    return width, accumulate(repeat(moves, n_max),
                             lambda t, ms: step(t, ms, mask), initial=terms)


def operator_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly,
                      n_max: int) -> Iterator[MultiPoly]:
    """start, op(start), op^2(start), ... up to op^n_max(start), yielded lazily.

    Each iterate is one kernel step on the one before, so a sweep over
    n <= n_max costs n_max steps in total, not n_max^2, and only the
    iterates a caller keeps stay in memory.  A negative n_max or an unknown
    weight letter is refused at the call.
    """
    width, iterates = _packed_iterates(grammar, op, start, n_max)
    return (_unpacked(grammar.letters, terms, width) for terms in iterates)


def iterate_operator(grammar: Grammar, op: DerivOp, start: MultiPoly, n: int) -> MultiPoly:
    """op applied n times to start; n = 0 returns start."""
    width, iterates = _packed_iterates(grammar, op, start, n)
    return _unpacked(grammar.letters, deque(iterates, maxlen=1).pop(), width)


# ----------------------------------------------------------------------
# reading coefficients off packed terms

class PatternMismatch(ValueError):
    """A term fell outside the monomial family being read off."""


class PowerPattern(namedtuple("PowerPattern", "letters base step")):
    """Monomial family exps(k) = base + k*step over a fixed alphabet, k = 0, 1, ..."""

    __slots__ = ()


def _family_range(letters: tuple[str, ...], width: int,
                  pattern: PowerPattern) -> tuple[int, int]:
    """The k range [lo, hi] in which the family base + k*step is read at this width.

    The pattern is checked against the alphabet first: AlphabetMismatch for
    another alphabet, then ValueError for a base or step of another length.
    In range, every field of base + k*step lies in [0, 2^(W-1)), so no field
    carries into its neighbour and distinct k give distinct packed keys.
    With no moving field every member is base itself, so only k = 0 is in
    range.  hi < lo when no k is.
    """
    if letters != pattern.letters:
        raise AlphabetMismatch(
            f"polynomial alphabet {letters} differs from pattern alphabet {pattern.letters}")
    if not len(pattern.base) == len(pattern.step) == len(letters):
        raise ValueError(f"pattern base of length {len(pattern.base)} and step of length "
                         f"{len(pattern.step)} do not fit alphabet {letters}")
    cap = (1 << (width - 1)) - 1
    lo, hi = 0, 0 if not any(pattern.step) else inf
    for b, s in zip(pattern.base, pattern.step):
        if s > 0:
            lo, hi = max(lo, -(b // s)), min(hi, (cap - b) // s)
        elif s < 0:
            lo, hi = max(lo, -((cap - b) // -s)), min(hi, b // -s)
        elif not 0 <= b <= cap:
            hi = -1
    return lo, hi


def _read_off(letters: tuple[str, ...], terms: dict[int, int], width: int,
              pattern: PowerPattern) -> list[int]:
    """Coefficients of the packed terms along the family, densely indexed from k = 0."""
    lo, hi = _family_range(letters, width, pattern)
    # k is read from the first field that moves with k; with no such field
    # a zero mask reads every key as k = 0.
    shift, mask, b0, s0 = 0, 0, 0, 1
    for i, (b, s) in enumerate(zip(pattern.base, pattern.step)):
        if s:
            shift, mask, b0, s0 = i * width, (1 << width) - 1, b, s
            break
    base, step = _pack(pattern.base, width), _pack(pattern.step, width)
    found: dict[int, int] = {}
    for key, c in terms.items():
        k, r = divmod((key >> shift & mask) - b0, s0)
        if r or not lo <= k <= hi or key != base + k * step:
            stray = _unpacked(letters, {key: c}, width)
            raise PatternMismatch(f"term {stray} does not fit the expected monomial family")
        found[k] = c
    if not found:
        return []
    return [found.get(k, 0) for k in range(max(found) + 1)]


def expansion_coefficients(p: MultiPoly, pattern: PowerPattern) -> list[int]:
    """Coefficients of the pattern family members, densely indexed from k = 0.

    Raises PatternMismatch if any term of p lies outside the family; that is
    how a falsified structural identity announces itself.
    """
    width = max(p.degree(), 0).bit_length() + 1
    terms = {_pack(exps, width): c for exps, c in p.terms.items()}
    return _read_off(p.letters, terms, width, pattern)


def verify_identity(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int,
                    expected, normalization: Callable[[int], int],
                    pattern_for: Callable[[int], PowerPattern],
                    label: str) -> Report:
    """Compare op^n(start) with normalization(n) * expected.row(n) for n = 1..n_max.

    ``expected`` is any triangle-like object with row(n); ``pattern_for(n)``
    names the monomial family carrying coefficient index k.  Every n is
    checked even after a failure.

    The iterates stay packed.  Each expected row is packed the same way, as
    {base + k*step: norm * row[k]} over its nonzero products, and compared
    with the iterate's terms as one dict.  That needs every nonzero product
    at a k in the family's carry-free range (``_family_range``); there the
    keys are distinct and none can alias a monomial off the family.  Equal
    dicts then mean every term lies on the family in range and carries
    norm * row[k], which is what the reader (``_read_off``) would read, and
    the check passes.  Otherwise the reader reads the iterate, both rows are
    zero-padded to one length and the first differing k, or the stray term,
    is reported, so every failure is the reader's.  A normalization that is
    a positive power of two scales by a shift.  The sweep steps with
    ``_step`` until its first failure and with ``_ordered_step`` from there
    on, so a stray term is named as ``expansion_coefficients`` would name it
    on ``operator_iterates``.
    """
    width, iterates = _packed_iterates(grammar, op, start, n_max, _step)
    next(iterates)  # op^0(start) is not checked
    ordered = False
    report = Report(label)
    for n in range(1, n_max + 1):
        terms = next(iterates)
        pattern = pattern_for(n)
        lo, hi = _family_range(grammar.letters, width, pattern)
        norm = normalization(n)
        if norm > 0 and not norm & (norm - 1):
            s = norm.bit_length() - 1
            want = [c << s for c in expected.row(n)]
        else:
            want = [norm * c for c in expected.row(n)]
        if not any(want[:lo]) and not any(want[hi + 1:]):
            base, step = _pack(pattern.base, width), _pack(pattern.step, width)
            if terms == {base + k * step: c for k, c in enumerate(want) if c}:
                report.add(Check(label, n, True, ""))
                continue
        if not ordered:
            # From the first failure on, read the iterates in term order.
            _, iterates = _packed_iterates(grammar, op, start, n_max)
            terms, ordered = next(islice(iterates, n, None)), True
        try:
            got = _read_off(grammar.letters, terms, width, pattern)
        except PatternMismatch as exc:
            report.add(Check(label, n, False, str(exc)))
            continue
        size = max(len(got), len(want))
        got += [0] * (size - len(got))
        want += [0] * (size - len(want))
        failure = ""
        if got != want:
            k = next(k for k in range(size) if got[k] != want[k])
            failure = f"k={k}: got {got[k]}, want {want[k]}"
        report.add(Check(label, n, not failure, failure))
    return report
