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

The packed kernel serves the rest.  A monomial is one int, the exponent
of letter i in bits [i*W, (i+1)*W).  W is derived, never set: no exponent of
op^n(start), n <= n_max, exceeds B = deg(start) + n_max * max(0, (max rule
degree) - 1 + [weighted]), so W = bit_length(B) + 1 keeps a guard bit under
every field.  Only ``_packed_iterates`` packs, and only ``operator_iterates``
and ``iterate_operator`` unpack.  The reader (``expansion_coefficients``)
works on exponent tuples: it reads k at the first letter that moves along
the family base + k*step and names the least term off the family in
``MultiPoly.sorted_terms`` order, so no failure text depends on the order
in which a kernel wrote its terms.

The line kernel serves verify_identity and the ring targets.  When every
move delta differs from the first by a whole number t of pattern steps and
the start lies on one line, ``_line_iterates`` holds each iterate as (base,
dense coefficient list).  A step adds, for the moves at each t, the affine range
(base_i + bump + k*step_i) * rc times the list at offset t - t_min: no
packing, no width and no carry.  The sweep keeps a divisor d, the true
iterate being d times the list; a step is linear, so d carries over.  A
check passes on the list against normalization(n) / d times the row when d
divides it, and the pass divides that ratio out of the list, exactly, with d
set to normalization(n): neither side of a compare holds n!.  The reader
reads a check the line does not pass off d times the list, so only a sweep
the line cannot hold steps the packed kernel.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import accumulate, islice, repeat, zip_longest
from operator import add, floordiv, mul, sub
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
# the packed kernel

def _moves(grammar: Grammar, op: DerivOp) -> list:
    """The moves of op, in rule order; an unknown weight letter is refused here."""
    letters = grammar.letters
    if op.weight is not None and op.weight not in letters:
        raise ValueError(f"unknown weight letter {op.weight!r} for alphabet {letters}")
    w = letters.index(op.weight) if op.weight is not None else -1
    return [(i, tuple(e - (j == i) + (j == w) for j, e in enumerate(exps)), rc,
             int(op.kind == "preD" and i == w))
            for i, name in enumerate(letters) for exps, rc in grammar.rules[name].terms.items()]


def _pack(exps, width: int) -> int:
    return sum(e << (i * width) for i, e in enumerate(exps))


def _unpacked(letters: tuple[str, ...], terms: dict[int, int], width: int) -> MultiPoly:
    mask = (1 << width) - 1
    shifts = range(0, len(letters) * width, width)
    return MultiPoly._raw(letters, {tuple(key >> shift & mask for shift in shifts): c
                                    for key, c in terms.items()})


def _step(terms: dict[int, int], moves, mask: int) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for key, c in terms.items():
        for shift, delta, rc, bump in moves:
            e = (key >> shift & mask) + bump
            if e:
                k = key + delta
                out[k] = get(k, 0) + c * (e * rc)
    return {key: c for key, c in out.items() if c}


def _packed_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int):
    """(W, iterator over packed op^n(start) for n = 0..n_max), W set by the degree bound."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    start = start.with_letters(grammar.letters)
    moves = _moves(grammar, op)
    top = max((rule.degree() for rule in grammar.rules.values()), default=0)
    width = (max(start.degree(), 0) + n_max * max(0, top - 1 + (op.weight is not None))
             ).bit_length() + 1
    mask = (1 << width) - 1
    moves = tuple((i * width, _pack(delta, width), rc, bump) for i, delta, rc, bump in moves)
    terms = {_pack(exps, width): c for exps, c in start.terms.items()}
    return width, accumulate(repeat(moves, n_max),
                             lambda t, ms: _step(t, ms, mask), initial=terms)


def operator_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly,
                      n_max: int) -> Iterator[MultiPoly]:
    """start, op(start), op^2(start), ... up to op^n_max(start), yielded lazily.

    Each iterate is one kernel step on the one before, and only the iterates
    a caller keeps stay in memory.  A negative n_max or an unknown weight
    letter is refused at the call.
    """
    width, iterates = _packed_iterates(grammar, op, start, n_max)
    return (_unpacked(grammar.letters, terms, width) for terms in iterates)


def iterate_operator(grammar: Grammar, op: DerivOp, start: MultiPoly, n: int) -> MultiPoly:
    """op applied n times to start; n = 0 returns start."""
    width, iterates = _packed_iterates(grammar, op, start, n)
    return _unpacked(grammar.letters, deque(iterates, maxlen=1).pop(), width)


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
# the line kernel

def _steps(d, step) -> int | None:
    """The integer j with d == j*step, or None."""
    j = next((a // s for a, s in zip(d, step) if s), 0)
    return j if all(a == j * s for a, s in zip(d, step)) else None


def _line_iterates(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int, step, n_min=1):
    """Iterator over op^n(start), n = n_min..n_max, or None when the line does not apply.

    Each iterate is (base, coeffs), the sum of coeffs[k] * x^(base + k*step),
    with coeffs nonzero at both ends ([] for zero).  The next step reads the
    list it yielded, so a caller may divide it in place in between.
    """
    moves = _moves(grammar, op)
    first = moves[0][1] if moves else step  # any delta will do with no moves
    by_t: dict[int, list[int]] = {}  # t -> rc summed per letter, then bump * rc
    for i, delta, rc, bump in moves:
        t = _steps(tuple(map(sub, delta, first)), step)
        if t is None:
            return None
        row = by_t.setdefault(t, [0] * (len(step) + 1))
        row[i] += rc
        row[-1] += bump * rc
    t_min, t_max = min(by_t, default=0), max(by_t, default=0)
    groups = [(t - t_min, rcs, sum(map(mul, rcs, step))) for t, rcs in by_t.items()]
    shift = tuple(d + t_min * s for d, s in zip(first, step))
    terms = start.with_letters(grammar.letters).terms
    origin = next(iter(terms), step)  # any base will do for a zero start
    found = {_steps(tuple(map(sub, exps, origin)), step): c for exps, c in terms.items()}
    if None in found:
        return None
    lo = min(found, default=0)

    def advance(state, _):
        base, coeffs = state
        size = len(coeffs)
        out = [0] * (size + t_max - t_min)
        for j, (t, rcs, b) in enumerate(groups):
            a = sum(map(mul, rcs, (*base, 1)))
            terms = map(mul, range(a, a + b * size, b) if b else repeat(a), coeffs)
            # The first move writes onto zeros; the others add.
            out[t:t + size] = map(add, out[t:t + size], terms) if j else terms
        while out and not out[-1]:
            out.pop()
        lo = next((k for k, c in enumerate(out) if c), 0)
        return tuple(b + d + lo * s for b, d, s in zip(base, shift, step)), out[lo:]

    coeffs = [found.get(k, 0) for k in range(lo, max(found, default=-1) + 1)]
    state = tuple(b + lo * s for b, s in zip(origin, step)), coeffs
    return islice(accumulate(repeat(None, n_max), advance, initial=state), n_min, None)


def _on_line(base, coeffs, pattern: PowerPattern, step, want: list[int]) -> bool:
    """Whether sum coeffs[k]*x^(base + k*step) equals sum want[k]*x^(member k of pattern):
    both are zero, or pattern.step is step, pattern.base lies off >= 0 steps before
    base, and want is off zeros, then coeffs, then zeros."""
    if not coeffs or tuple(pattern.step) != step:
        return not coeffs and not any(want)
    off = _steps(tuple(map(sub, base, pattern.base)), step)
    if off is None or off < 0:
        return False
    end = off + len(coeffs)
    return not any(want[:off]) and want[off:end] == coeffs and not any(want[end:])


def verify_identity(grammar: Grammar, op: DerivOp, start: MultiPoly, n_max: int,
                    expected, normalization: Callable[[int], int],
                    pattern_for: Callable[[int], PowerPattern],
                    label: str) -> Report:
    """Compare op^n(start) with normalization(n) * expected.row(n) for n = 1..n_max.

    ``expected`` is any triangle-like object with row(n); ``pattern_for(n)``
    names the monomial family carrying coefficient index k.  Every n is
    checked, and its pattern refused as ``_check_pattern`` refuses it, even
    after a failure.  The sweep steps on the line along pattern_for(1).step
    when one applies, where ``_on_line`` decides exact polynomial equality as
    the reader would.  There the iterate is d * coeffs, d = 1 at first.  Where
    d divides norm = normalization(n), coeffs is compared with (norm // d) *
    row; a pass divides that ratio out of coeffs and sets d = norm.  Otherwise
    (norm zero, or a chain that does not divide) d * coeffs is compared with
    norm * row and d is kept.  A check the line does not pass, or every check
    when no line applies, is read by ``expansion_coefficients`` against norm *
    row, from d * coeffs on the line or from ``operator_iterates`` off it: the
    first differing k of the zero-padded rows, or the stray term, is reported.
    """
    iterates = islice(operator_iterates(grammar, op, start, n_max), 1, None)
    report, d = Report(label), 1
    for n in range(1, n_max + 1):
        pattern = pattern_for(n)
        _check_pattern(grammar.letters, pattern)
        norm = normalization(n)
        row = expected.row(n)
        if n == 1:
            step = tuple(pattern.step)
            line = _line_iterates(grammar, op, start, n_max, step)
        if line:
            base, coeffs = next(line)
            r, rem = divmod(norm, d)
            a = 1  # d * coeffs == norm * row iff a * coeffs == r * row
            if rem:
                a, r = d, norm
            if _on_line(base, coeffs if a == 1 else list(map(mul, coeffs, repeat(a))),
                        pattern, step, row if r == 1 else list(map(mul, row, repeat(r)))):
                if a == 1 and abs(r) > 1:  # divide r out of the list
                    coeffs[:] = map(floordiv, coeffs, repeat(r))
                    d = norm
                report.add(Check(label, n, True, ""))
                continue
            p = MultiPoly._raw(grammar.letters, {tuple(b + k * s for b, s in zip(base, step)): d * c
                                                 for k, c in enumerate(coeffs) if c})
        else:
            p = next(iterates)
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
