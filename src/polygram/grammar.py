"""Rewrite-rule grammars and their derivative operators.

A grammar assigns every letter of its alphabet a polynomial over the same
alphabet.  That assignment induces a derivation D (linear, Leibniz on
products) given by D(p) = sum over letters x of rule(x) * dp/dx.  The
weighted one-sided variants, p -> D(w*p) and p -> w*D(p) for a weight
letter w, are first-class operator values so that iteration and
coefficient extraction never special-case them.

Every operator compiles once into moves, one per term t of each rule
x -> rule(x): (index of x, delta t - x + w, coefficient rc, bump), where w
is the weight letter (nothing for plain D) and the bump is 1 only for x = w
under preD, whose D(w*m) sees the exponent of w one higher.  A move sends
c*m to c*(e*rc)*m*x^delta, e the exponent of x in m plus the bump; with no
moves (every rule zero) a step gives zero.

One kernel steps every iterate.  ``_line_iterates`` holds an iterate as
a dict of dense lines along one step s: a term x^e sits on the line keyed
e - p*s at position p = e[i0] // s[i0], i0 the first letter s moves, and a
line is (lo, coeffs), trimmed at both ends.  The moves are grouped by
delta.  A group of delta d sends line K to the key K + d - t*s, t =
(K[i0] + d[i0]) // s[i0], and adds the affine range (K_i + bump + p*s_i) *
rc times the list at position p + t: no packing, no width and no carry.
Lists that land on one key are added where they meet; lists that do not
meet go to ``_place``, which keys runs by their first terms and cuts a run
that would be more than three quarters zeros, so terms far apart on a
line cost what the terms do.  The step is never a setting:
``verify_identity`` lays its lines along pattern_for(1).step, the ring
targets along (2, -2), and ``operator_iterates`` and ``iterate_operator``
along ``_axis``: the largest vector dividing every move-delta difference
when those are collinear (so such a grammar keeps a start on one line on
one line); else, when every delta has one degree, the first difference,
in the plane of constant degree that holds each iterate; else the first
letter's unit vector.  A zero step makes every term a line of its own.

The reader (``expansion_coefficients``) works on exponent tuples: it reads
k at the first letter that moves along the family base + k*step and names
the least term off the family in ``MultiPoly.sorted_terms`` order, so no
failure text depends on the order in which the kernel wrote its terms.
``verify_identity`` reads a check off the lines themselves only when the
iterate is one line.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import accumulate, islice, repeat, zip_longest
from math import gcd
from operator import add, mul, sub
from typing import Callable, Iterator, Mapping

from .poly import AlphabetMismatch, MultiPoly, check_letters
from .report import Check, Report

__all__ = ["DerivOp", "Grammar", "PatternMismatch", "PowerPattern", "expansion_coefficients",
           "iterate_operator", "operator_iterates", "verify_identity"]


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
# the kernel

def _moves(grammar: Grammar, op: DerivOp) -> list:
    """The moves of op, in rule order; an unknown weight letter is refused here."""
    letters = grammar.letters
    if op.weight is not None and op.weight not in letters:
        raise ValueError(f"unknown weight letter {op.weight!r} for alphabet {letters}")
    w = letters.index(op.weight) if op.weight is not None else -1
    return [(i, tuple(e - (j == i) + (j == w) for j, e in enumerate(exps)), rc,
             int(op.kind == "preD" and i == w))
            for i, name in enumerate(letters) for exps, rc in grammar.rules[name].terms.items()]


def _steps(d, step) -> int | None:
    """The integer j with d == j*step, or None."""
    j = next((a // s for a, s in zip(d, step) if s), 0)
    return j if all(a == j * s for a, s in zip(d, step)) else None


def _axis(grammar: Grammar, op: DerivOp) -> tuple[int, ...]:
    """The step of op's lines: the largest vector dividing every move delta
    less the first when those differences are collinear; else, when they
    all have degree 0, the first nonzero one made primitive; else the first
    letter's unit vector."""
    moves = _moves(grammar, op)
    diffs = [tuple(map(sub, delta, moves[0][1])) for _, delta, _, _ in moves]
    v = next((d for d in diffs if any(d)), None)
    if v is not None:
        v = tuple(a // gcd(*v) for a in v)
        js = [_steps(d, v) for d in diffs]
        if None not in js:
            return tuple(gcd(*js) * a for a in v)
        if not any(map(sum, diffs)):
            return v
    return tuple(int(not i) for i in range(len(grammar.letters)))


def _place(lines: dict, key, at: dict, step) -> None:
    """Put the terms at (position -> coefficient) of the line key into lines,
    in runs keyed by their first terms (lo = 0), cut where a run would be
    more than three quarters zeros."""
    ps = sorted(p for p, c in at.items() if c)
    cuts = []
    for j, p in enumerate(ps):
        if not cuts or p - ps[cuts[-1]] >= 4 * (j - cuts[-1] + 1):
            cuts.append(j)
    for r, end in zip(cuts, cuts[1:] + [len(ps)]):
        lines[tuple(k + ps[r] * s for k, s in zip(key, step))] = 0, [
            at.get(p, 0) for p in range(ps[r], ps[end - 1] + 1)]


def _advance(lines: dict, kernel) -> dict:
    """One step of a dict of lines; kernel is what ``_line_iterates`` builds."""
    i0, step, groups, met = kernel  # met: K[i0] -> the targets of a line K, for each K[i0] met
    out: dict = {}  # target key -> [lo, buf]
    apart: dict = {}  # target key -> lists that did not meet out[key] when added
    for key, (lo, coeffs) in lines.items():
        scaled, size, k0 = (*key, 1), len(coeffs), key[i0]
        targets = met.get(k0)
        if targets is None:  # [(shift, [(t, rcs, b)] sorted by t)], one per target key
            by_shift: dict = {}
            for delta, rcs, b in groups:
                t = (k0 + delta[i0]) // step[i0] if step[i0] else 0
                by_shift.setdefault(tuple(d - t * s for d, s in zip(delta, step)), []).append(
                    (t, rcs, b))
            targets = met[k0] = [(shift, sorted(ts)) for shift, ts in by_shift.items()]
        for shift, ts in targets:
            to = tuple(map(add, key, shift))
            acc = out.get(to)
            for t, rcs, b in ts:
                a = sum(map(mul, rcs, scaled)) + b * lo
                if not (a or b):  # zero everywhere: the line lacks the letters it derives
                    continue
                terms = map(mul, range(a, a + b * size, b) if b else repeat(a), coeffs)
                p = lo + t
                if acc is None:
                    acc = out[to] = [p, list(terms)]
                    continue
                q, buf = acc
                if p > q + len(buf) or q > p + size:  # _place joins them, not zeros
                    apart.setdefault(to, []).append((p, list(terms)))
                    continue
                if p < q:
                    buf[:0] = repeat(0, q - p)
                    acc[0] = q = p
                p -= q
                if p + size > len(buf):
                    buf.extend(repeat(0, p + size - len(buf)))
                buf[p:p + size] = map(add, buf[p:p + size], terms)
    new: dict = {}
    for key, (lo, buf) in out.items():
        if apart and key in apart:
            at: dict = {}
            for q, more in [(lo, buf), *apart[key]]:
                for p, c in enumerate(more, q):
                    at[p] = at.get(p, 0) + c
            _place(new, key, at, step)
            continue
        while buf and not buf[-1]:
            buf.pop()
        if buf:
            first = 0 if buf[0] else next(k for k, c in enumerate(buf) if c)
            new[key] = lo + first, buf[first:] if first else buf
    return new


def _line_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int, step):
    """Iterator over op^n(start), n = 0..n_max, each a dict of lines along step.

    A line keyed K is (lo, coeffs), the sum of coeffs[j] * x^(K + (lo + j)*step),
    nonzero at both ends; the zero iterate is {}.  ``_advance`` keys a line
    by its member at position 0, the position of x^e being e[i0] // step[i0]
    (i0 the first letter step moves; 0 for a zero step), and ``_place`` by
    its first term.  The next step reads the lists it yielded, so a caller
    may replace their entries in place in between, with the line's own
    values times a common factor.  A negative n_max or an unknown weight
    letter is refused at the call.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    moves = _moves(grammar, op)
    i0 = next((i for i, s in enumerate(step) if s), 0)
    by_delta: dict = {}  # delta -> rc summed per letter, then bump * rc
    for i, delta, rc, bump in moves:
        row = by_delta.setdefault(delta, [0] * (len(step) + 1))
        row[i] += rc
        row[-1] += bump * rc
    groups = [(delta, rcs, sum(map(mul, rcs, step))) for delta, rcs in by_delta.items()]
    found: dict = {}
    for exps, c in start.with_letters(grammar.letters).terms.items():
        p = exps[i0] // step[i0] if step[i0] else 0
        found.setdefault(tuple(e - p * s for e, s in zip(exps, step)), {})[p] = c
    lines: dict = {}
    for key, at in found.items():
        _place(lines, key, at, step)
    return accumulate(repeat((i0, step, groups, {}), n_max), _advance, initial=lines)


def _terms(lines: dict, step) -> dict:
    """The exponent dict of a dict of lines along step."""
    return {exps: c for key, (lo, coeffs) in lines.items()
            for exps, c in zip(zip(*(range(k + lo * s, k + (lo + len(coeffs)) * s, s) if s
                                     else repeat(k) for k, s in zip(key, step))), coeffs) if c}


def operator_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly,
                      n_max: int) -> Iterator[MultiPoly]:
    """start, op(start), op^2(start), ... up to op^n_max(start), yielded lazily.

    Each iterate is one kernel step on the one before, and only the iterates
    a caller keeps stay in memory.  A negative n_max or an unknown weight
    letter is refused at the call.
    """
    step = _axis(grammar, op)
    return (MultiPoly._raw(grammar.letters, _terms(lines, step))
            for lines in _line_iterates(grammar, op, start, n_max, step))


def iterate_operator(grammar: Grammar, op: DerivOp, start: MultiPoly, n: int) -> MultiPoly:
    """op applied n times to start; n = 0 returns start."""
    step = _axis(grammar, op)
    lines = deque(_line_iterates(grammar, op, start, n, step), maxlen=1).pop()
    return MultiPoly._raw(grammar.letters, _terms(lines, step))


# ----------------------------------------------------------------------
# reading coefficients off exponent tuples

class PatternMismatch(ValueError):
    """A term fell outside the monomial family being read off."""


class PowerPattern(namedtuple("PowerPattern", "letters base step")):
    """Monomial family exps(k) = base + k*step over a fixed alphabet, k = 0, 1, ..."""

    __slots__ = ()


def _check_pattern(letters: tuple[str, ...], pattern: PowerPattern) -> None:
    """Refuse a pattern of another alphabet (AlphabetMismatch), then one whose
    base or step has another length (ValueError)."""
    if letters != pattern.letters:
        raise AlphabetMismatch(
            f"polynomial alphabet {letters} differs from pattern alphabet {pattern.letters}")
    if not len(pattern.base) == len(pattern.step) == len(letters):
        raise ValueError(f"pattern base of length {len(pattern.base)} and step of length "
                         f"{len(pattern.step)} do not fit alphabet {letters}")


def expansion_coefficients(p: MultiPoly, pattern: PowerPattern) -> list[int]:
    """Coefficients of the pattern family members, densely indexed from k = 0.

    k is (e_i - base_i) // step_i at the first letter i with step_i != 0, or
    0 if no letter moves; a term is member k when k >= 0 and its exponents
    are base + k*step.  Any other term raises PatternMismatch, naming the
    least such term in ``MultiPoly.sorted_terms`` order; that is how a
    falsified structural identity announces itself.
    """
    _check_pattern(p.letters, pattern)
    base, step = pattern.base, pattern.step
    i = next((i for i, s in enumerate(step) if s), None)
    def member(exps):
        k = 0 if i is None else (exps[i] - base[i]) // step[i]
        return k if k >= 0 and exps == tuple(b + k * s for b, s in zip(base, step)) else None
    found = {member(exps): c for exps, c in p.terms.items()}
    if None in found:  # only a failing read orders the terms
        exps = min((e for e in p.terms if member(e) is None), key=lambda e: (sum(e), e))
        stray = MultiPoly._raw(p.letters, {exps: p.terms[exps]})
        raise PatternMismatch(f"term {stray} does not fit the expected monomial family")
    return [found.get(k, 0) for k in range(max(found, default=-1) + 1)]


# ----------------------------------------------------------------------
# identity sweeps

def _on_line(base, coeffs, pattern: PowerPattern, step, want: list[int]) -> int | None:
    """The offset off at which sum coeffs[k]*x^(base + k*step), coeffs a
    line's nonempty list, equals sum want[k]*x^(member k of pattern), else
    None: pattern.step is step, pattern.base lies off >= 0 steps before base,
    and want is off zeros, then coeffs, then zeros."""
    if tuple(pattern.step) != step:
        return None
    off = _steps(tuple(map(sub, base, pattern.base)), step)
    if off is None or off < 0:
        return None
    end = off + len(coeffs)
    return off if not any(want[:off]) and want[off:end] == coeffs and not any(want[end:]) else None


def verify_identity(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int,
                    expected, normalization: Callable[[int], int],
                    pattern_for: Callable[[int], PowerPattern],
                    label: str) -> Report:
    """Compare op^n(start) with normalization(n) * expected.row(n) for n = 1..n_max.

    ``expected`` is any triangle-like object with row(n); ``pattern_for(n)``
    names the monomial family carrying coefficient index k.  Every n is
    checked, and its pattern refused as ``_check_pattern`` refuses it, even
    after a failure.  The sweep steps lines along pattern_for(1).step, and
    the iterate is d times the lines, d = 1 at first; a step is linear, so d
    carries over.  When the iterate is one line, ``_on_line`` decides exact
    polynomial equality as the reader would.  Where d divides norm =
    normalization(n), coeffs is compared with r * row, r = norm // d.  A pass
    has shown coeffs to be r times a slice of the int row, so, where |r| > 1,
    that slice is copied into coeffs and d set to norm: no division, and
    neither side of a compare holds n!.  A failing check hands nothing
    forward.  Otherwise (norm zero, or a chain that does not divide)
    d * coeffs is compared with norm * row and d is kept.  Every other check
    is read by ``expansion_coefficients`` off d times every line against
    norm * row: the first differing k of the zero-padded rows, or the stray
    term, is reported.
    """
    step = (0,) * len(grammar.letters)
    if n_max > 0:  # pattern 1 is refused before the kernel reads its step
        _check_pattern(grammar.letters, first := pattern_for(1))
        step = tuple(first.step)
    iterates = islice(_line_iterates(grammar, op, start, n_max, step), 1, None)
    report, d = Report(label), 1
    for n, lines in zip(range(1, n_max + 1), iterates):
        pattern = pattern_for(n)
        _check_pattern(grammar.letters, pattern)
        norm = normalization(n)
        row = expected.row(n)
        if len(lines) == 1:
            [(key, (lo, coeffs))] = lines.items()
            r, rem = divmod(norm, d)
            a = 1  # d * coeffs == norm * row iff a * coeffs == r * row
            if rem:
                a, r = d, norm
            off = _on_line(tuple(k + lo * s for k, s in zip(key, step)),
                           coeffs if a == 1 else list(map(mul, coeffs, repeat(a))),
                           pattern, step, row if r == 1 else list(map(mul, row, repeat(r))))
            if off is not None:
                if a == 1 and abs(r) > 1:  # the list is r times this slice of the row
                    coeffs[:] = row[off:off + len(coeffs)]
                    d = norm
                report.add(Check(label, n, True, ""))
                continue
        p = MultiPoly._raw(grammar.letters, {e: d * c for e, c in _terms(lines, step).items()})
        try:
            got = expansion_coefficients(p, pattern)
        except PatternMismatch as exc:
            report.add(Check(label, n, False, str(exc)))
            continue
        want = [norm * c for c in row]
        diff = next(((k, a, b) for k, (a, b) in enumerate(zip_longest(got, want, fillvalue=0))
                     if a != b), None)
        report.add(Check(label, n, not diff, "k={}: got {}, want {}".format(*diff) if diff else ""))
    return report
