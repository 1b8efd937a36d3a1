"""The derivation kernel and the pattern matcher ``expansion_coefficients``
of ``polygram.grammar``, against references kept in this file.

The derivation reference is the per-letter Leibniz route,
D(p) = sum over letters x of rule(x) * dp/dx, built from
``partial_derivative`` below and MultiPoly ``*`` and ``+``; the matcher
reference reads k off exponent tuples one letter at a time, checking each
letter's k against the others.  The kernel's lines are read back here
along every step tried, and whether a sweep stays on one line is decided
here with exact fractions.
"""

import random
from fractions import Fraction
from itertools import islice
from math import factorial, gcd
from operator import sub

import pytest

from polygram import grammar as grammar_module
from polygram.cli import main
from polygram.parser import parse_grammar, parse_poly
from polygram.grammar import (DerivOp, Grammar, PatternMismatch, PowerPattern,
                              expansion_coefficients, iterate_operator, operator_iterates,
                              verify_identity)
from polygram.poly import AlphabetMismatch, MultiPoly
from polygram.triangles import (ASSOC_GAMMA_A, EULERIAN_A, GAMMA_A, GAMMA_B, MOTZKIN_T,
                                binomial_row, plain_triangle)

ALPHABETS = ("u", "u v", "t u v", "s t u v")


def partial_derivative(p, name):
    """Formal partial derivative of p with respect to one of its letters."""
    i = p.letters.index(name)
    return MultiPoly(p.letters, {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
                                 for exps, c in p.terms.items() if exps[i]})


def leibniz_derive(grammar, p):
    out = MultiPoly(grammar.letters)
    for name in grammar.letters:
        dp = partial_derivative(p, name)
        if not dp.is_zero:
            out = out + grammar.rules[name] * dp
    return out


def reference_apply(grammar, op, p):
    if op.kind == "D":
        return leibniz_derive(grammar, p)
    w = MultiPoly.variable(grammar.letters, op.weight)
    if op.kind == "preD":
        return leibniz_derive(grammar, w * p)
    return w * leibniz_derive(grammar, p)


def reference_iterates(grammar, op, start, n_max):
    seq = [start.with_letters(grammar.letters)]
    for _ in range(n_max):
        seq.append(reference_apply(grammar, op, seq[-1]))
    return seq


def random_terms(rng, letters, max_terms, max_exp, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in letters)
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[exps] = coeff
    return MultiPoly(letters, terms)


def random_rule(rng, letters):
    shape = rng.choice(("constant", "linear", "any", "any", "zero"))
    if shape == "zero":
        return MultiPoly(letters)
    if shape == "constant":
        return MultiPoly.const(letters, rng.choice((-3, -1, 1, 2)))
    # Degree-lowering rules (linear or constant parts) mix with growing ones.
    return random_terms(rng, letters, 3, 1 if shape == "linear" else 2)


def every_op(letters):
    yield DerivOp("D")
    for w in letters:
        yield DerivOp("preD", w)
        yield DerivOp("postD", w)


def line_differences(grammar, start):
    """Every move delta less the first (t - x; a weight letter shifts all alike),
    and every start term less the first."""
    deltas = [tuple(e - (j == i) for j, e in enumerate(exps))
              for i, x in enumerate(grammar.letters) for exps in grammar.rules[x].terms]
    starts = list(start.with_letters(grammar.letters).terms)
    return [tuple(map(sub, d, ds[0])) for ds in (deltas, starts) if ds for d in ds]


def is_multiple(v, step):
    """Whether v == j*step for an integer j."""
    if any(a for a, s in zip(v, step) if not s):
        return False
    ratios = {Fraction(a, s) for a, s in zip(v, step) if s}
    return len(ratios) <= 1 and all(r.denominator == 1 for r in ratios)


def line_dicts(grammar, op, start, n_max, step):
    """op^n(start), n = 1..n_max, read back from the kernel's lines along step
    as exponent dicts, and the number of lines of every iterate, n = 0 too."""
    i0 = next((i for i, s in enumerate(step) if s), None)
    dicts, counts = [], []
    for n, lines in enumerate(grammar_module._line_iterates(grammar, op, start, n_max, step)):
        counts.append(len(lines))
        terms = {}
        for key, (lo, coeffs) in lines.items():
            assert coeffs[0] and coeffs[-1]  # trimmed at both ends, and never empty
            if i0 is None:
                assert (lo, len(coeffs)) == (0, 1)
            elif key[i0] // step[i0]:  # laid out by _place: keyed by its first term
                assert lo == 0 and len(coeffs) <= 4 * sum(map(bool, coeffs))
            for k, c in enumerate(coeffs, lo):
                exps = tuple(b + k * s for b, s in zip(key, step))
                assert exps not in terms and (min(exps) >= 0 or not c)
                if c:
                    terms[exps] = c
        if n:
            dicts.append(terms)
    return dicts, counts


def near(terms, step):
    """Whether the positions of terms along step lie at most 4 apart, so that
    the kernel never cuts a line of them into runs."""
    i0 = next((i for i, s in enumerate(step) if s), None)
    ps = sorted({e[i0] // step[i0] for e in terms}) if i0 is not None else []
    return all(b - a <= 4 for a, b in zip(ps, ps[1:]))


def assert_kernel_matches(grammar, start, n_max):
    for op in every_op(grammar.letters):
        want = reference_iterates(grammar, op, start, n_max)
        got = list(operator_iterates(grammar, op, start, n_max))
        assert got == want, (str(grammar), str(op), str(start))
        assert all(0 not in p.terms.values() for p in got)
        # The kernel builds the same iterates along the line through every
        # move delta and start term, reversed too, twice as coarse, along the
        # first letter and along no step at all; it holds at most one line
        # per iterate along every step that all of them fit, unless the
        # iterate's terms lie far apart on it.
        diffs = line_differences(grammar, start)
        v = next((v for v in diffs if any(v)), (1,) + (0,) * (len(grammar.letters) - 1))
        s = tuple(x // gcd(*v) for x in v)
        unit = tuple(int(not i) for i in range(len(s)))
        for step in (s, tuple(-x for x in s), tuple(2 * x for x in s), unit, (0,) * len(s)):
            dicts, counts = line_dicts(grammar, op, start, n_max, step)
            assert dicts == [p.terms for p in want[1:]], (str(grammar), str(op), step)
            if all(is_multiple(d, step) for d in diffs):
                assert all(c <= 1 for c, p in zip(counts, want) if near(p.terms, step)), (
                    str(grammar), str(op), step)
        assert iterate_operator(grammar, op, start, n_max) == want[-1]
        assert iterate_operator(grammar, op, want[0], 1) == want[1]


@pytest.mark.parametrize("seed", range(40))
def test_random_grammars_match_the_leibniz_route(seed):
    rng = random.Random(9100 + seed)
    letters = tuple(ALPHABETS[seed % 4].split())
    grammar = Grammar(letters, {x: random_rule(rng, letters) for x in letters})
    for _ in range(3):
        start = random_terms(rng, letters, 3, 3)
        assert_kernel_matches(grammar, start, rng.randint(1, 5))


def collinear_grammar(rng, letters, step):
    """Rules whose move deltas t - x all lie on one line along step, with at
    least two moves."""
    d0 = tuple(rng.randint(0, 3) for _ in letters)
    rules = {}
    for i, x in enumerate(letters):
        terms = {}
        for c in rng.sample(range(-2, 3), rng.randint(1, 4)):
            t = tuple(d + c * s + (j == i) for j, (d, s) in enumerate(zip(d0, step)))
            if min(t) >= 0:
                terms[t] = rng.choice((-3, -1, 1, 2, 4))
        rules[x] = MultiPoly(letters, terms)
    if sum(len(rule.terms) for rule in rules.values()) < 2:
        return collinear_grammar(rng, letters, step)
    return Grammar(letters, rules)


@pytest.mark.parametrize("seed", range(24))
def test_collinear_grammars_step_on_the_line(seed):
    rng = random.Random(7300 + seed)
    letters = tuple("uvw"[:2 + seed % 2])
    step = (0,) * len(letters)
    while not any(step):
        step = tuple(rng.randint(-2, 2) for _ in letters)
    grammar = collinear_grammar(rng, letters, step)
    if seed % 3 == 0:
        # One term without the last letter, so preD and postD of that letter
        # weigh by a letter absent from the start.
        exps = tuple(rng.randint(0, 3) for _ in letters[1:]) + (0,)
        start = MultiPoly(letters, {exps: rng.choice((-2, 1, 5))})
    else:
        base = tuple(rng.randint(2, 8) for _ in letters)
        terms = {}
        for k in rng.sample(range(4), rng.randint(2, 3)):
            exps = tuple(b + k * s for b, s in zip(base, step))
            if min(exps) >= 0:
                terms[exps] = rng.choice((-2, -1, 1, 3))
        start = MultiPoly(letters, terms)
    for op in every_op(letters):
        want = [p.terms for p in islice(operator_iterates(grammar, op, start, 12), 1, None)]
        for direction in (step, tuple(-s for s in step)):
            dicts, counts = line_dicts(grammar, op, start, 12, direction)
            assert dicts == want and max(counts) <= 1, (str(grammar), str(op))


@pytest.mark.parametrize("rules, op, axis", [
    ("f -> f*g; g -> 4*f^2", "D", (2, -2)),
    ("f -> f*g; g -> 4*f^2", "postD:f", (2, -2)),
    ("y -> z^2; z -> y*z", "preD:y", (2, -2)),
    ("t -> t*u^2; u -> u^2*v; v -> 4*u^3", "D", (0, -1, 1)),
    ("u -> u^3 + u", "D", (-2,)),
    ("u -> u^5 + u", "D", (-4,)),
    ("u -> u*v; v -> u + v", "D", (1, 0)),
    ("x -> x*y + z; y -> x*z; z -> y^2 + 1", "D", (1, 0, 0)),
    ("w -> 4*y*z^2 + 3*w*y*z; y -> 2*y*z^2 + 3*w^2*z; z -> 2*w*y^2", "D", (1, 0, -1)),
    ("x -> y*z; y -> x*z; z -> x*y", "preD:x", (1, -1, 0)),
    ("u -> u^3000000000 + u", "D", (-2999999999,)),
    ("u -> u*v; v -> v^2", "D", (1, 0)),
    ("u -> 0; v -> 0", "D", (1, 0)),
])
def test_the_axis_is_derived_from_the_move_deltas(rules, op, axis):
    # The largest vector dividing every move delta less the first, when those
    # are collinear; else, when every delta has one degree, the first
    # nonzero difference made primitive; else (one delta, no moves, degrees
    # that differ) the first letter's unit vector.  A single-letter start
    # stays on one line when every move delta fits the axis.
    grammar = parse_grammar(rules)
    op = DerivOp.parse(op)
    assert grammar_module._axis(grammar, op) == axis
    start = MultiPoly.variable(grammar.letters, grammar.letters[0])
    dicts, counts = line_dicts(grammar, op, start, 6, axis)
    assert dicts == [p.terms for p in reference_iterates(grammar, op, start, 6)[1:]]
    if all(is_multiple(d, axis) for d in line_differences(grammar, start)):
        assert max(counts) <= 1


def kernel_cases():
    """(id, grammar, op, start, n_max, step, lines): lines is "one" when every
    iterate holds at most one line, "many" when some holds more, "none" when
    every iterate is zero."""
    D = DerivOp("D")
    f, g = MultiPoly.variables("f g")
    double = Grammar(("f", "g"), {"f": f * g, "g": 4 * f * f})
    y, z = MultiPoly.variables("y z")
    euler = Grammar(("y", "z"), {"y": z * z, "z": y * z})
    t, u, v = MultiPoly.variables("t u v")
    cubic = Grammar(("t", "u", "v"), {"t": t * u * u, "u": u * u * v, "v": 4 * u**3})
    a, b = MultiPoly.variables("a b")
    bumped = Grammar(("a", "b"), {"a": a * b - 2, "b": a + 3 * b * b})
    one = MultiPoly.variable(("u",), "u")
    return [
        ("thm44-negative-step", cubic, D, t * t * u * u, 8, (0, -1, 1), "one"),
        ("thm11-negative-step", euler, DerivOp("preD", "y"), y, 8, (-2, 2), "one"),
        ("start-over-several-lines", double, D, f + g + f * g - 3 * f**3, 8, (2, -2), "many"),
        ("preD-bump-on-the-axis-letter", bumped, DerivOp("preD", "a"), b, 6, (1, 0), "many"),
        ("zero-start", double, D, MultiPoly(("f", "g")), 4, (2, -2), "none"),
        ("no-moves", Grammar(("u",), {"u": MultiPoly(("u",))}), D, 3 * one * one, 3, (1,), "one"),
        ("n-zero", double, D, f, 0, (2, -2), "one"),
        ("zero-step", double, D, f + g, 5, (0, 0), "many"),
        ("postD-along-the-reversed-step", double, DerivOp("postD", "f"), g, 8, (-2, 2), "one"),
        ("three-letters-along-the-first", Grammar(("t", "u", "v"), {
            "t": t * u + v, "u": t * v, "v": u * u + 1}), D, t, 6, (1, 0, 0), "many"),
    ]


@pytest.mark.parametrize("case", kernel_cases(), ids=lambda case: case[0])
def test_lines_along_a_given_step_match_the_leibniz_route(case):
    _, grammar, op, start, n_max, step, lines = case
    dicts, counts = line_dicts(grammar, op, start, n_max, step)
    assert dicts == [p.terms for p in reference_iterates(grammar, op, start, n_max)[1:]]
    assert len(counts) == n_max + 1
    assert {"one": max(counts) <= 1, "many": max(counts) > 1, "none": not any(counts)}[lines]


@pytest.mark.parametrize("letters", ALPHABETS)
def test_start_over_some_of_the_letters(letters):
    rng = random.Random(len(letters))
    letters = tuple(letters.split())
    grammar = Grammar(letters, {x: random_terms(rng, letters, 2, 2) + 1 for x in letters})
    first = letters[:1]
    start = MultiPoly(first, {(2,): 3})
    for op in every_op(letters):
        assert list(operator_iterates(grammar, op, start, 3)) == \
            reference_iterates(grammar, op, start, 3)
    # The same start written over the whole alphabet, one letter unused.
    last = MultiPoly.variable(letters, letters[-1]) * 2 - 1
    assert_kernel_matches(grammar, last, 3)


def test_zero_start_stays_zero():
    grammar = Grammar(("u", "v"), {"u": MultiPoly(("u", "v"), {(1, 1): 1}),
                                   "v": MultiPoly(("u", "v"), {(2, 0): -4})})
    zero = MultiPoly(("u", "v"))
    for op in every_op(grammar.letters):
        assert [p.terms for p in operator_iterates(grammar, op, zero, 4)] == [{}] * 5
    assert_kernel_matches(grammar, MultiPoly.const(("u", "v"), 7), 3)


def test_a_grammar_with_no_moves_steps_to_zero(capsys):
    # Every rule zero compiles to no moves: one step maps anything to zero.
    u = MultiPoly.variable(("u",), "u")
    grammar = Grammar(("u",), {"u": MultiPoly(("u",))})
    assert [p.terms for p in operator_iterates(grammar, DerivOp("D"), 3 * u * u, 2)] == \
        [{(2,): 3}, {}, {}]
    assert_kernel_matches(grammar, u, 3)
    u, v = MultiPoly.variables("u v")
    zero = MultiPoly(("u", "v"))
    assert_kernel_matches(Grammar(("u", "v"), {"u": zero, "v": zero}), u * v, 3)
    assert main(["derive", "--grammar", "u -> 0", "--start", "u", "--n", "2"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_a_first_move_that_acts_only_through_its_bump():
    # Under preD:u the first move is u's, bumped by one; the start has no u,
    # so that move sees a zero field and contributes only through the bump.
    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": u * v - 2, "v": u + 3 * v * v})
    for start in (v, 5 * v**3 - v, MultiPoly.const(("u", "v"), 2)):
        assert_kernel_matches(grammar, start, 4)


def test_cancelling_coefficients_drop_out():
    # u -> v, v -> -u is a rotation: D(u^2 + v^2) = 2uv - 2vu = 0.
    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": v, "v": -u})
    assert iterate_operator(grammar, DerivOp("D"), u * u + v * v, 1).terms == {}
    assert iterate_operator(grammar, DerivOp("postD", "u"), u * u + v * v, 2).terms == {}
    assert_kernel_matches(grammar, u * u - 3 * v * v + u * v, 4)


def test_constant_rules_lower_the_degree():
    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": MultiPoly.const(("u", "v"), 1),
                                   "v": MultiPoly.const(("u", "v"), -2)})
    assert iterate_operator(grammar, DerivOp("D"), u**5, 5) == MultiPoly.const(("u", "v"), 120)
    assert iterate_operator(grammar, DerivOp("D"), u**5, 6).is_zero
    assert_kernel_matches(grammar, u**4 * v**3 + v, 6)


def test_exponents_past_two_to_the_sixteen():
    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": u * u * v, "v": -u})
    assert_kernel_matches(grammar, u**70000 * v**65537 + 3 * v**131072, 3)


def test_three_billionth_power_rule():
    u = MultiPoly.variable(("u",), "u")
    big = 3_000_000_000
    grammar = Grammar(("u",), {"u": u**big})
    seq = list(operator_iterates(grammar, DerivOp("D"), u, 3))
    assert seq[1] == u**big
    assert seq[2] == big * u**(2 * big - 1)
    assert seq[3] == big * (2 * big - 1) * u**(3 * big - 2)
    assert_kernel_matches(grammar, u, 3)


@pytest.mark.parametrize("rules, start", [
    ("u -> u^3000000000 + u", "u"),
    ("u -> u^2", "u^3000000000 + u"),
    ("u -> u^3000000000*v + v; v -> u", "u"),
])
def test_terms_far_apart_on_a_line_are_not_filled_in(rules, start, capsys):
    # The first steps along (-2999999999,); under u -> u^2 the start's terms
    # lie 2999999999 apart on the unit axis; in the third, two groups of t =
    # 2999999999 and t = -1 land on one key.  The kernel builds nothing per
    # residue of the step and fills no gap: a line cut into runs is at least
    # a quarter full, and so is every line here.
    grammar = parse_grammar(rules)
    op, start = DerivOp("D"), parse_poly(start, grammar.letters)
    assert_kernel_matches(grammar, start, 4)
    want = reference_iterates(grammar, op, start, 4)
    step = grammar_module._axis(grammar, op)
    for lines in grammar_module._line_iterates(grammar, op, start, 4, step):
        assert all(len(coeffs) <= 4 * sum(map(bool, coeffs)) for _, coeffs in lines.values())
    for n in (0, 4):
        assert main(["derive", "--grammar", rules, "--start", str(start), "--n", str(n)]) == 0
        assert capsys.readouterr().out == f"{want[n]}\n"


def test_a_grammar_of_one_degree_steps_in_its_plane():
    # Every rule has degree 3, so every move raises the degree by 2 and the
    # move deltas differ inside the plane of constant degree, where no unit
    # vector lies.  Along their first difference the n-th iterate, its terms
    # spread over a triangle, is held in at most 2n + 1 lines.
    grammar = parse_grammar("w -> 4*y*z^2 + 3*w*y*z; y -> 2*y*z^2 + 3*w^2*z; z -> 2*w*y^2")
    op, w = DerivOp("D"), MultiPoly.variable(grammar.letters, "w")
    step = grammar_module._axis(grammar, op)
    dicts, counts = line_dicts(grammar, op, w, 8, step)
    assert dicts == [p.terms for p in reference_iterates(grammar, op, w, 8)[1:]]
    assert all(c <= 2 * n + 1 for n, c in enumerate(counts)) and len(dicts[-1]) > 100


def test_unknown_weight_letter_is_refused_at_the_call():
    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": u * v, "v": u + v})
    for op in (DerivOp("preD", "q"), DerivOp("postD", "q")):
        with pytest.raises(ValueError, match="unknown weight letter 'q'"):
            operator_iterates(grammar, op, u, 0)
        with pytest.raises(ValueError, match="unknown weight letter 'q'"):
            iterate_operator(grammar, op, u, 0)
        with pytest.raises(ValueError, match="unknown weight letter 'q'"):
            grammar_module._line_iterates(grammar, op, u, 0, (1, 0))
    for n in (-1, -5):
        with pytest.raises(ValueError, match=f"n_max must be >= 0, got {n}"):
            iterate_operator(grammar, DerivOp("D"), u, n)
        with pytest.raises(ValueError, match=f"n_max must be >= 0, got {n}"):
            grammar_module._line_iterates(grammar, DerivOp("D"), u, n, (2, -2))


def test_a_start_is_read_over_the_grammar_alphabet():
    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": u * v, "v": u + v})
    op = DerivOp("postD", "u")
    want = iterate_operator(grammar, op, u, 3)
    for start in (MultiPoly.variable(("u",), "u"), MultiPoly.variable(("v", "u"), "u")):
        assert iterate_operator(grammar, op, start, 3) == want
    with pytest.raises(ValueError, match="cannot drop letter 'w'"):
        iterate_operator(grammar, op, MultiPoly.variable(("u", "w"), "w"), 1)


# ----------------------------------------------------------------------
# the pattern matcher

def reference_match(pattern, exps):
    k = None
    for b, s, e in zip(pattern.base, pattern.step, exps):
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


def reference_coefficients(p, pattern):
    """The family row of p, or PatternMismatch naming the first stray term of
    p.sorted_terms()."""
    found = {}
    for exps, coeff in p.sorted_terms():
        k = reference_match(pattern, exps)
        if k is None:
            stray = MultiPoly(p.letters, {exps: coeff})
            raise PatternMismatch(f"term {stray} does not fit the expected monomial family")
        found[k] = coeff
    return [found.get(k, 0) for k in range(max(found) + 1)] if found else []


def outcome(read, p, pattern):
    try:
        return read(p, pattern)
    except PatternMismatch as exc:
        return "mismatch: " + str(exc)


def test_the_reader_agrees_with_the_tuple_matcher():
    rng = random.Random(4242)
    mismatches = 0
    for case in range(600):
        letters = tuple(ALPHABETS[case % 4].split())
        step = tuple(rng.randint(-3, 3) for _ in letters)
        base = tuple(rng.randint(-2, 9) + 3 * max(0, -s) * rng.randint(0, 3) for s in step)
        pattern = PowerPattern(letters, base, step)
        terms = {}
        for k in rng.sample(range(6), rng.randint(0, 4)):
            exps = tuple(b + k * s for b, s in zip(base, step))
            if min(exps) >= 0:
                terms[exps] = rng.choice((-7, -1, 1, 3, 10**30))
        if rng.random() < 0.4:
            terms[tuple(rng.randint(0, 12) for _ in letters)] = rng.choice((-2, 5))
        p = MultiPoly(letters, terms)
        want = outcome(reference_coefficients, p, pattern)
        assert outcome(expansion_coefficients, p, pattern) == want, (p, pattern)
        mismatches += isinstance(want, str)
    assert 50 < mismatches < 550


@pytest.mark.parametrize("coeff, text", [(1, "f*g"), (-3, "-3*f*g"), (10**20, "100000000000000000000*f*g")])
def test_stray_term_text(coeff, text):
    f, g = MultiPoly.variables("f g")
    with pytest.raises(PatternMismatch) as info:
        expansion_coefficients(f * g**2 + coeff * f * g + f**3,
                               PowerPattern(("f", "g"), (1, 2), (2, -2)))
    assert str(info.value) == f"term {text} does not fit the expected monomial family"


def test_the_least_stray_term_is_named_in_graded_order():
    # Strays f^2, g^3 and 7*f*g: f*g is least in sorted_terms order (total
    # degree, then exponents), g^3 least by exponents alone, f^2 first written.
    pattern = PowerPattern(("f", "g"), (1, 2), (2, -2))
    terms = {(2, 0): 5, (0, 3): -1, (1, 2): 1, (1, 1): 7, (3, 0): 2}
    for order in (terms, dict(reversed(terms.items()))):
        with pytest.raises(PatternMismatch) as info:
            expansion_coefficients(MultiPoly(("f", "g"), order), pattern)
        assert str(info.value) == "term 7*f*g does not fit the expected monomial family"


def test_pattern_alphabet_must_match():
    f, g = MultiPoly.variables("f g")
    with pytest.raises(AlphabetMismatch):
        expansion_coefficients(f * g, PowerPattern(("g", "f"), (1, 1), (0, 0)))


def carry_patterns(width):
    """Families whose base + k*step, packed at width bits a letter, would
    equal the packed (1, 1, 1) only by carrying out of the middle field, with
    k read from the first field (k = 0 and k = 1), and one with no moving
    field at all: each is a stray-term case for t*u*v."""
    top = 1 << width
    return [
        PowerPattern(("t", "u", "v"), (1, 1 + top, 0), (1, 0, 0)),
        PowerPattern(("t", "u", "v"), (0, 1, 0), (1, top, 0)),
        PowerPattern(("t", "u", "v"), (1, 1, 1 + top), (0, 0, 0)),
    ]


def test_a_carry_between_fields_is_reported_not_matched():
    # t -> 0, u -> 0, v -> v: every iterate of t*u*v is t*u*v itself.
    t, u, v = MultiPoly.variables("t u v")
    zero = MultiPoly(("t", "u", "v"))
    grammar = Grammar(("t", "u", "v"), {"t": zero, "u": zero, "v": v})
    start = t * u * v
    row = plain_triangle("one", lambda n: [1])
    for pattern in carry_patterns(3):  # 3 bits a letter would hold every exponent
        report = verify_identity(grammar, DerivOp("D"), start, 1, row, lambda n: 1,
                                 lambda n: pattern, "carry")
        assert not report.ok
        assert report.checks[0].detail == "term t*u*v does not fit the expected monomial family"
    # Read off directly, t*u*v fits none of the families that carry at the
    # width its own degree would pack at.
    for pattern in carry_patterns(max(start.degree(), 0).bit_length() + 1):
        with pytest.raises(PatternMismatch, match="term t\\*u\\*v does not fit"):
            expansion_coefficients(start, pattern)
    # The honest family is read as before.
    report = verify_identity(grammar, DerivOp("D"), start, 1, row, lambda n: 1,
                             lambda n: PowerPattern(("t", "u", "v"), (1, 1, 1), (0, 0, 1)),
                             "honest")
    assert report.ok


@pytest.mark.parametrize("base, step", [((2,), ()), ((2,), (0, 1)), ((2, 0), (1,)),
                                        ((1, 1, 0), (0, 1, 0))])
def test_a_pattern_that_does_not_fit_its_alphabet_is_refused(base, step):
    # PowerPattern(("u", "v"), (2,), ()) used to read u*u as [1].
    u, v = MultiPoly.variables("u v")
    pattern = PowerPattern(("u", "v"), base, step)
    match = (f"pattern base of length {len(base)} and step of length {len(step)} "
             r"do not fit alphabet \('u', 'v'\)")
    for p in (u * u, MultiPoly(("u", "v"))):
        with pytest.raises(ValueError, match=match):
            expansion_coefficients(p, pattern)
    grammar = Grammar(("u", "v"), {"u": u * v, "v": u})
    with pytest.raises(ValueError, match=match):
        verify_identity(grammar, DerivOp("D"), u, 2, plain_triangle("one", lambda n: [1]),
                        lambda n: 1, lambda n: pattern, "short")


def test_two_letter_carry_without_a_moving_field():
    f, g = MultiPoly.variables("f g")
    width = (2).bit_length() + 1  # the width f*g's degree would pack at
    with pytest.raises(PatternMismatch):
        expansion_coefficients(f * g, PowerPattern(("f", "g"), (1 + (1 << width), 0), (0, 0)))
    assert expansion_coefficients(f * g, PowerPattern(("f", "g"), (1, 1), (0, 0))) == [1]


def test_exponents_at_the_top_of_the_width_are_read():
    # u -> u^2 from u: D^n(u) = n! u^(n+1) reaches the degree bound exactly,
    # deg(start) + n * (rule degree - 1).
    u = MultiPoly.variable(("u",), "u")
    grammar = Grammar(("u",), {"u": u * u})
    factorials = plain_triangle("fact", lambda n: [1])
    for n_max in (1, 3, 7, 15, 31):
        report = verify_identity(grammar, DerivOp("D"), u, n_max, factorials,
                                 factorial,
                                 lambda n: PowerPattern(("u",), (n + 1,), (1,)), "top")
        assert report.ok, [c for c in report.checks if not c.ok]


# ----------------------------------------------------------------------
# verify_identity's line comparison against the reader route

def reference_checks(grammar, op, start, n_max, expected, normalization, pattern_for):
    """(n, ok, detail) per n, from reference_coefficients and a zero-padded
    comparison with normalization(n) * expected.row(n)."""
    checks = []
    for n, p in enumerate(operator_iterates(grammar, op, start, n_max)):
        if not n:
            continue
        try:
            got = reference_coefficients(p, pattern_for(n))
        except PatternMismatch as exc:
            checks.append((n, False, str(exc)))
            continue
        want = [normalization(n) * c for c in expected.row(n)]
        size = max(len(got), len(want))
        got += [0] * (size - len(got))
        want += [0] * (size - len(want))
        k = next((k for k in range(size) if got[k] != want[k]), None)
        checks.append((n, k is None, "" if k is None else f"k={k}: got {got[k]}, want {want[k]}"))
    return checks


def read_rows(grammar, op, start, n_max, pattern_for):
    """row(n) read off the iterates themselves, for an identity true by construction."""
    rows = [reference_coefficients(p, pattern_for(n))
            for n, p in enumerate(operator_iterates(grammar, op, start, n_max)) if n]
    return lambda n: rows[n - 1]


def never_called(n):
    pytest.fail(f"pattern_for({n}) called")


def identity_cases():
    """(id, grammar, op, start, n_max, row(n), normalization, pattern_for): true
    identities of the verify targets, the same with stray terms, and the edges
    of the line kernel."""
    D = DerivOp("D")
    f, g = MultiPoly.variables("f g")
    grammar = Grammar(("f", "g"), {"f": f * g, "g": 4 * f * f})
    stray = Grammar(("f", "g"), {"f": f * g, "g": 4 * f * f + f * g})
    g_family = lambda n: PowerPattern(("f", "g"), (2, n - 1), (2, -2))
    y, z = MultiPoly.variables("y z")
    euler = Grammar(("y", "z"), {"y": z * z, "z": y * z})
    t, u, v = MultiPoly.variables("t u v")
    cubic = Grammar(("t", "u", "v"), {"t": t * u * u, "u": u * u * v, "v": 4 * u**3})
    return [
        ("gamma-a", grammar, D, g, 10, GAMMA_A.row, lambda n: 2 ** (n + 1), g_family),
        ("gamma-a-signed", grammar, D, -g, 10, lambda n: [-c for c in GAMMA_A.row(n)],
         lambda n: 2 ** (n + 1), g_family),
        ("stray-rule", stray, D, g, 6, GAMMA_A.row, lambda n: 2 ** (n + 1), g_family),
        ("zero-start", grammar, D, MultiPoly(("f", "g")), 4, GAMMA_A.row,
         lambda n: 2 ** (n + 1), g_family),
        ("assoc-gamma-a", grammar, DerivOp("postD", "f"), g, 10, ASSOC_GAMMA_A.row,
         lambda n: 2 * factorial(n + 1), lambda n: PowerPattern(("f", "g"), (n + 2, n - 1),
                                                                 (2, -2))),
        ("eulerian-a", euler, DerivOp("preD", "y"), y, 8, EULERIAN_A.row, lambda n: 2 ** n,
         lambda n: PowerPattern(("y", "z"), (2 * n - 1, 2), (-2, 2))),
        ("motzkin-t", cubic, D, t * t * u * u, 6, MOTZKIN_T.row, lambda n: factorial(n + 1),
         lambda n: PowerPattern(("t", "u", "v"), (2, 2 * n + 2, 0), (0, -1, 1))),
        *line_cases(),
    ]


def line_cases():
    D = DerivOp("D")
    f, g = MultiPoly.variables("f g")
    grammar = Grammar(("f", "g"), {"f": f * g, "g": 4 * f * f})
    norm = lambda n: 2 ** (n + 1)

    def family(base, step):
        return lambda n: PowerPattern(("f", "g"), base(n), step)

    top = lambda n: len(GAMMA_A.row(n)) - 1
    tilted = Grammar(("f", "g"), {"f": f * g, "g": -2 * f * f * g})
    on_line = family(lambda n: (1, n + 1), (2, -1))
    u, v = MultiPoly.variables("u v")
    dies = Grammar(("u", "v"), {"u": u * v, "v": -v * v})  # D(u^a v^b) = (a - b) u^a v^(b+1)
    by_row = lambda n: PowerPattern(("u", "v"), (2, n), (1, -1))
    one = MultiPoly.variable(("u",), "u")
    # From 6*f under f -> f*g, g -> 4*f^2 + f*g, read as the fixed family
    # f*g (a zero step, so every term is a line of its own), the iterate is
    # one line, 6*f*g, at n = 1 and three at n = 2: the pass at n = 1 sets
    # d = 6, and every later read multiplies it into every line.
    stray_f = Grammar(("f", "g"), {"f": f * g, "g": 4 * f * f + f * g})
    fixed_f = lambda n: PowerPattern(("f", "g"), (1, 1), (0, 0))
    return [
        ("reversed-step", grammar, D, g, 10, lambda n: GAMMA_A.row(n)[::-1], norm,
         family(lambda n: (2 + 2 * top(n), n - 1 - 2 * top(n)), (-2, 2))),
        ("twice-the-step", grammar, D, g, 10, lambda n: GAMMA_A.row(n)[::2], norm,
         family(lambda n: (2, n - 1), (4, -4))),
        ("half-the-step", grammar, D, g, 10,
         lambda n: [c for x in GAMMA_A.row(n) for c in (x, 0)][:-1], norm,
         family(lambda n: (2, n - 1), (1, -1))),
        ("family-starts-early", grammar, D, g, 10, lambda n: [0] + GAMMA_A.row(n), norm,
         family(lambda n: (0, n + 1), (2, -2))),
        ("step-flips", grammar, D, g, 10, GAMMA_A.row, norm,
         lambda n: PowerPattern(("f", "g"), (2, n - 1), (2, -2) if n % 2 else (-2, 2))),
        ("start-on-the-line", tilted, D, f * g - 3 * f**3, 6,
         read_rows(tilted, D, f * g - 3 * f**3, 6, on_line), lambda n: 1, on_line),
        ("start-off-the-line", grammar, D, g + 1, 10, GAMMA_A.row, norm,
         family(lambda n: (2, n - 1), (2, -2))),
        ("base-between-steps", grammar, D, g, 6, GAMMA_A.row, norm,
         family(lambda n: (3, n - 2), (2, -2))),
        ("one-move", Grammar(("u",), {"u": one * one}), D, one, 8, lambda n: [1], factorial,
         lambda n: PowerPattern(("u",), (n + 1,), (1,))),
        ("no-moves", Grammar(("u",), {"u": MultiPoly(("u",))}), D, one, 4, lambda n: [1],
         lambda n: 1, lambda n: PowerPattern(("u",), (1,), (1,))),
        ("dies-mid-sweep", dies, D, -3 * u * u, 5, read_rows(dies, D, -3 * u * u, 5, by_row),
         lambda n: 1, by_row),
        ("n-max-zero", grammar, D, g, 0, GAMMA_A.row, norm, never_called),
        ("spreads-after-a-pass", stray_f, D, 6 * f, 4, lambda n: [1], lambda n: 6, fixed_f),
    ]


# The sweeps that hold more than one line at some n, start included; every
# other sweep holds at most one.  Some cases have one verdict whatever the row.
MULTI_LINE = {"twice-the-step", "start-off-the-line", "stray-rule", "spreads-after-a-pass"}
VERDICTS = {"stray-rule": {False}, "base-between-steps": {False}, "n-max-zero": set()}


def bumped(row):
    return [c + (k == len(row) // 2) for k, c in enumerate(row)]


def internal_zero(row):
    return [0 if k == len(row) // 2 else c for k, c in enumerate(row)]


ROW_MUTATIONS = {
    "none": lambda row: row,
    "bumped": bumped,
    "bumped-first": lambda row: [c + (k == 0) for k, c in enumerate(row or [0])],
    "dropped-last": lambda row: row[:-1],
    "extra-trailing": lambda row: row + [1],
    "trailing-zero": lambda row: row + [0],
    "internal-zero": internal_zero,
    "inserted-zero": lambda row: row[:1] + [0] + row[1:],
    "negated": lambda row: [-c for c in row],
}

# (normalization, row) -> the pair a sweep is checked against.  The line
# divides a passing normalization out of its iterate when the last one divides
# it ("factorial" grows that chain past the true one), and cross-multiplies
# when it does not: "shrinking" keeps the identity true with normalization 1
# at every third n, its factor moved into the row, so a factorial chain reads
# n! when 3 does not divide n and 1 when it does.  "halved" must fail wherever
# the true row has an odd entry, so the line may not divide without the
# remainder.
NORMALIZATIONS = {
    "as-is": lambda norm, row: (norm, row),
    "one": lambda norm, row: (lambda n: 1, row),
    "power-of-two": lambda norm, row: (lambda n: 2 ** (n % 4), row),
    "negated": lambda norm, row: (lambda n: -norm(n), row),
    "zero": lambda norm, row: (lambda n: 0, row),
    "tripled": lambda norm, row: (lambda n: 3 * norm(n), row),
    "factorial": lambda norm, row: (lambda n: factorial(n) * norm(n), row),
    "shrinking": lambda norm, row: (lambda n: norm(n) if n % 3 else 1,
                                    lambda n: row(n) if n % 3 else [norm(n) * c for c in row(n)]),
    "halved": lambda norm, row: (lambda n: 2 * norm(n), lambda n: [c // 2 for c in row(n)]),
}


def assert_same_checks(monkeypatch, grammar, op, start, n_max, row, norm, pattern_for):
    """verify_identity's checks, held to reference_checks, and the number of
    lines of every iterate, n = 0 too."""
    reads, counts = [], []
    real, real_lines = grammar_module.expansion_coefficients, grammar_module._line_iterates
    monkeypatch.setattr(grammar_module, "expansion_coefficients",
                        lambda *args: reads.append(1) or real(*args))
    monkeypatch.setattr(grammar_module, "_line_iterates", lambda *args: (
        counts.append(len(lines)) or lines for lines in real_lines(*args)))
    expected = plain_triangle("row", row)
    report = verify_identity(grammar, op, start, n_max, expected, norm, pattern_for, "x")
    monkeypatch.setattr(grammar_module, "expansion_coefficients", real)
    monkeypatch.setattr(grammar_module, "_line_iterates", real_lines)
    got = [(c.n, c.ok, c.detail) for c in report.checks]
    assert got == reference_checks(grammar, op, start, n_max, expected, norm, pattern_for)
    # A true check whose iterate is one line and whose pattern steps along
    # pattern_for(1).step passes without the reader, and the reader reads
    # each other check once, off d times every line.
    line_step = n_max and tuple(pattern_for(1).step)
    assert len(counts) == (n_max and n_max + 1)  # no step past n_max
    assert len(reads) == sum(count != 1 or not ok or tuple(pattern_for(n).step) != line_step
                             for (n, ok, _), count in zip(got, counts[1:]))
    return got, counts


@pytest.mark.parametrize("case", identity_cases(), ids=lambda case: case[0])
def test_the_line_comparison_gives_the_reader_verdict_on_every_mutation(monkeypatch, case):
    name, grammar, op, start, n_max, row, norm, pattern_for = case
    verdicts = set()
    for mutate in ROW_MUTATIONS.values():
        mutated = lambda n: mutate(row(n))
        checks = {}
        for key, scale in NORMALIZATIONS.items():
            scaled_norm, scaled_row = scale(norm, mutated)
            checks[key], counts = assert_same_checks(monkeypatch, grammar, op, start, n_max,
                                                     scaled_row, scaled_norm, pattern_for)
            assert (max(counts, default=0) > 1) == (name in MULTI_LINE), counts
            verdicts.update(ok for _, ok, _ in checks[key])
        # A true check whose row has an odd entry is false once halved.
        for (n, ok, _), (_, halved_ok, _) in zip(checks["as-is"], checks["halved"]):
            assert not (ok and halved_ok and any(c % 2 for c in mutated(n))), n
    assert verdicts == VERDICTS.get(name, {True, False})


def test_a_failing_check_names_the_least_stray_term():
    # The texts are pinned: a failing check names the least stray term in
    # MultiPoly.sorted_terms order, however many lines hold the iterate.  The
    # stray rule spreads the sweeps from g + f^2 and from f over several
    # lines: from g + f^2 every check fails, and from f the first check
    # passes.  Under the double-angle rules a family one exponent off the
    # line keeps the sweep from g on one line, and the reader reads it.
    f, g = MultiPoly.variables("f g")
    stray = Grammar(("f", "g"), {"f": f * g, "g": 4 * f * f + f * g})
    double_angle = Grammar(("f", "g"), {"f": f * g, "g": 4 * f * f})
    from_g = verify_identity(stray, DerivOp("D"), g + f * f, 5, GAMMA_A, lambda n: 2 ** (n + 1),
                             lambda n: PowerPattern(("f", "g"), (2, n - 1), (2, -2)), "g")
    from_f = verify_identity(stray, DerivOp("D"), f, 5, GAMMA_B, lambda n: 1,
                             lambda n: PowerPattern(("f", "g"), (1, n), (2, -2)), "f")
    on_line = verify_identity(double_angle, DerivOp("D"), g, 5, GAMMA_A, lambda n: 2 ** (n + 1),
                              lambda n: PowerPattern(("f", "g"), (3, n - 2), (2, -2)), "line")
    named = [[c.detail.removesuffix(" does not fit the expected monomial family")
              for c in report.checks] for report in (from_g, from_f, on_line)]
    assert named == [["term f*g", "term f*g^2", "term f*g^3", "term f*g^4", "term f*g^5"],
                     ["", "term f^2*g", "term 4*f^2*g^2", "term 11*f^2*g^3",
                      "term 26*f^2*g^4"],
                     ["term 4*f^2", "term 8*f^2*g", "term 16*f^2*g^2", "term 32*f^2*g^3",
                      "term 64*f^2*g^4"]]


def test_the_order_of_the_lines_is_not_observable(monkeypatch, capsys):
    # With the lines dict reversed after every step, every identity sweep
    # under every row mutation and normalization, every failing ring sweep
    # and every derive fuzz case gives the same report or output, text and
    # JSON.
    from test_derive_fuzz import workloads
    from test_verify import FAILING_RING_SWEEPS, failing_ring_report

    def outcomes():
        out = []
        for _, grammar, op, start, n_max, row, norm, pattern_for in identity_cases():
            for mutate in ROW_MUTATIONS.values():
                for scale in NORMALIZATIONS.values():
                    scaled_norm, scaled_row = scale(norm, lambda n: mutate(row(n)))
                    out.append(verify_identity(grammar, op, start, n_max,
                                               plain_triangle("row", scaled_row), scaled_norm,
                                               pattern_for, "x"))
        out += [failing_ring_report(monkeypatch, *case[:-1]) for case in FAILING_RING_SWEEPS]
        rng = random.Random(2024)
        for _ in range(60):
            argv = list(workloads.random_derive_job(rng).argv)
            for fmt in ("text", "json"):
                assert main(argv[:-1] + [fmt]) == 0
                out.append(capsys.readouterr().out)
        return out

    want = outcomes()
    real, reversals = grammar_module._advance, []
    monkeypatch.setattr(grammar_module, "_advance", lambda *args: reversals.append(1) or dict(
        reversed(real(*args).items())))
    assert outcomes() == want and reversals


def test_the_line_comparison_refuses_carries_and_extra_k_on_a_fixed_family(monkeypatch):
    t, u, v = MultiPoly.variables("t u v")
    zero = MultiPoly(("t", "u", "v"))
    grammar = Grammar(("t", "u", "v"), {"t": zero, "u": zero, "v": v})
    start = t * u * v
    fixed = PowerPattern(("t", "u", "v"), (1, 1, 1), (0, 0, 0))
    for pattern in (*carry_patterns(3), fixed):
        for row in ([1], [1, 1], [0, 1], [1, 0, 2], [2]):
            for norm in (1, 2, -1, 0):
                assert_same_checks(monkeypatch, grammar, DerivOp("D"), start, 2,
                                   lambda n: row, lambda n: norm, lambda n: pattern)


def held_lines(monkeypatch):
    """One list per sweep started from here on, of the lists each iterate's
    lines hold, read when the sweep ends (a pass writes them in place)."""
    sweeps, real = [], grammar_module._line_iterates

    def line_iterates(*args):
        held = []
        sweeps.append(held)
        return (held.extend(coeffs for _, coeffs in lines.values()) or lines
                for lines in real(*args))

    monkeypatch.setattr(grammar_module, "_line_iterates", line_iterates)
    return sweeps


def test_a_passing_sweep_holds_the_unscaled_rows(monkeypatch):
    # prop41's D^n(uv) = n! * sum_k 4^k C(n+1, 2k) u^(n+1+2k) v^(n+1-2k).  After
    # each passing check the line holds the row itself, not n! times it: the
    # ratio r of two normalizations is n here, 2 for thm32's D^n(g) and
    # thm11's 2^n row, n and n + 1 for thm32's factorial rows, and 1 for
    # thm32's D^n(f) and thm11's (Dy)^n(z).
    from polygram import verify
    from polygram.triangles import ASSOC_GAMMA_A_REC, ASSOC_GAMMA_B_REC, EULERIAN_B

    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": u * u * v, "v": 4 * u**3})
    row = lambda n: [4 ** k * c for k, c in enumerate(binomial_row(n + 1)[::2])]
    sweeps = held_lines(monkeypatch)
    pattern = lambda n: PowerPattern(("u", "v"), (n + 1, n + 1), (2, -2))
    report = verify_identity(grammar, DerivOp("D"), u * v, 60, plain_triangle("prop41", row),
                             factorial, pattern, "prop41")
    assert report.ok and len(report.checks) == 60
    for name, n_max in (("thm32", 60), ("thm11", 40)):
        report = verify.run_target(name, n_max)
        assert report.ok and len(report.checks) == 2 * (1 + (name == "thm32")) * n_max
    rows = [row, GAMMA_B.row, GAMMA_A.row, ASSOC_GAMMA_B_REC.row, ASSOC_GAMMA_A_REC.row,
            EULERIAN_A.row, EULERIAN_B.row]
    assert len(sweeps) == len(rows)
    for held, row, n_max in zip(sweeps, rows, (60, 60, 60, 60, 60, 40, 40)):
        assert held == [[1]] + [row(n) for n in range(1, n_max + 1)]


def test_a_held_row_is_the_lines_own(monkeypatch):
    # Three times the double-angle rules carry 3^n GAMMA_B from f: each pass
    # hands a slice of GAMMA_B's row forward.  Changing the list the line
    # holds changes neither that row nor the recurrence tip it was read from.
    from polygram import triangles

    f, g = MultiPoly.variables("f g")
    grammar = Grammar(("f", "g"), {"f": 3 * f * g, "g": 12 * f * f})
    sweeps = held_lines(monkeypatch)
    report = verify_identity(grammar, DerivOp("D"), f, 30, GAMMA_B, lambda n: 3 ** n,
                             lambda n: PowerPattern(("f", "g"), (1, n), (2, -2)), "f")
    assert report.ok and sweeps[0][-1] == GAMMA_B.row(30)
    tips, row = dict(triangles._TIPS), GAMMA_B.row(30)
    sweeps[0][-1][0] += 1
    sweeps[0][-1].append(7)
    assert GAMMA_B.row(30) == row and triangles._TIPS == tips


def test_a_pass_that_cross_multiplies_keeps_the_line(monkeypatch):
    # Six times the double-angle rules carry 6^n GAMMA_B from f.  Read with
    # normalizations 6, 4 and 216, the check at n = 2 passes with d = 6 not
    # dividing 4: it compares 6 times the line with 4 times the row, and the
    # line and d stay as they are, so n = 3 divides 36 out of that line.
    f, g = MultiPoly.variables("f g")
    grammar = Grammar(("f", "g"), {"f": 6 * f * g, "g": 24 * f * f})
    norms, scales = {1: 6, 2: 4, 3: 216}, {1: 1, 2: 9, 3: 1}
    expected = plain_triangle("scaled", lambda n: [scales[n] * c for c in GAMMA_B.row(n)])
    sweeps = held_lines(monkeypatch)
    report = verify_identity(grammar, DerivOp("D"), f, 3, expected, norms.get,
                             lambda n: PowerPattern(("f", "g"), (1, n), (2, -2)), "f")
    assert report.ok
    assert sweeps == [[[1], GAMMA_B.row(1), [6 * c for c in GAMMA_B.row(2)], GAMMA_B.row(3)]]


def test_every_grammar_target_row_passes_on_the_line(monkeypatch):
    # At default bounds each of the 12 rows of the grammar targets, and each
    # of thm42's two ring sweeps, holds exactly one line per iterate: 14
    # sweeps, and no check reaches the reader.
    from polygram import verify

    sweeps, reads = [], []
    real_lines, real_read = grammar_module._line_iterates, grammar_module.expansion_coefficients

    def line_iterates(*args):
        counts = []
        sweeps.append(counts)
        return (counts.append(len(lines)) or lines for lines in real_lines(*args))

    monkeypatch.setattr(grammar_module, "_line_iterates", line_iterates)
    monkeypatch.setattr(grammar_module, "expansion_coefficients",
                        lambda *args: reads.append(1) or real_read(*args))
    for name in ("thm11", "thm32", "prop41", "thm42", "thm43", "thm44"):
        assert verify.run_target(name).ok, name
    assert len(sweeps) == 14 and all(set(counts) == {1} for counts in sweeps)
    assert reads == []
