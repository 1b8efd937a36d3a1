"""The packed derivation kernel and the packed pattern matcher of
``polygram.grammar``, against references kept in this file.

The derivation reference is the per-letter Leibniz route,
D(p) = sum over letters x of rule(x) * dp/dx, built from
``partial_derivative`` below and MultiPoly ``*`` and ``+``; the matcher
reference reads k off exponent tuples one letter at a time.
"""

import random
from math import factorial

import pytest

from polygram import grammar as grammar_module
from polygram.grammar import (DerivOp, Grammar, PatternMismatch, PowerPattern,
                              _packed_iterates, expansion_coefficients, iterate_operator,
                              operator_iterates, verify_identity)
from polygram.poly import AlphabetMismatch, MultiPoly
from polygram.triangles import (ASSOC_GAMMA_A, EULERIAN_A, GAMMA_A, MOTZKIN_T,
                                plain_triangle)

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


def assert_kernel_matches(grammar, start, n_max):
    for op in every_op(grammar.letters):
        want = reference_iterates(grammar, op, start, n_max)
        got = list(operator_iterates(grammar, op, start, n_max))
        assert got == want, (str(grammar), str(op), str(start))
        assert all(0 not in p.terms.values() for p in got)
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


def test_width_is_derived_from_the_degree_bound():
    u, v = MultiPoly.variables("u v")
    cubic = Grammar(("u", "v"), {"u": u * u * v, "v": u**3})
    constant = Grammar(("u", "v"), {"u": MultiPoly.const(("u", "v"), 1), "v": v})
    cases = [
        # (grammar, op, start, n_max, bound on every exponent)
        (cubic, DerivOp("D"), u * v, 10, 2 + 10 * 2),
        (cubic, DerivOp("preD", "u"), u * v, 10, 2 + 10 * 3),
        (cubic, DerivOp("postD", "v"), u, 7, 1 + 7 * 3),
        (cubic, DerivOp("D"), MultiPoly(("u", "v")), 5, 0 + 5 * 2),
        (constant, DerivOp("D"), u**8, 20, 8),
        (constant, DerivOp("preD", "v"), u**8, 20, 8 + 20 * 1),
    ]
    for grammar, op, start, n_max, bound in cases:
        width, _ = _packed_iterates(grammar, op, start, n_max)
        assert width == bound.bit_length() + 1, (str(op), n_max)


def test_unknown_weight_letter_is_refused_at_the_call():
    u, v = MultiPoly.variables("u v")
    grammar = Grammar(("u", "v"), {"u": u * v, "v": u + v})
    for op in (DerivOp("preD", "q"), DerivOp("postD", "q")):
        with pytest.raises(ValueError, match="unknown weight letter 'q'"):
            operator_iterates(grammar, op, u, 0)
        with pytest.raises(ValueError, match="unknown weight letter 'q'"):
            iterate_operator(grammar, op, u, 0)


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
# the packed matcher

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
    found = {}
    for exps, coeff in p.terms.items():
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


def test_packed_matcher_agrees_with_the_tuple_matcher():
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


def test_pattern_alphabet_must_match():
    f, g = MultiPoly.variables("f g")
    with pytest.raises(AlphabetMismatch):
        expansion_coefficients(f * g, PowerPattern(("g", "f"), (1, 1), (0, 0)))


def carry_patterns(width):
    """Families whose packed base + k*step equals the packed (1, 1, 1) only
    by carrying out of the middle field, with k read from the first field
    (k = 0 and k = 1), and a 2-letter one with no moving field at all."""
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
    width, _ = _packed_iterates(grammar, DerivOp("D"), start, 1)
    row = plain_triangle("one", lambda n: [1])
    for pattern in carry_patterns(width):
        report = verify_identity(grammar, DerivOp("D"), start, 1, row, lambda n: 1,
                                 lambda n: pattern, "carry")
        assert not report.ok
        assert report.checks[0].detail == "term t*u*v does not fit the expected monomial family"
    # expansion_coefficients packs t*u*v at the width of its own degree.
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
    width = (2).bit_length() + 1  # f*g packs at the width of its degree
    with pytest.raises(PatternMismatch):
        expansion_coefficients(f * g, PowerPattern(("f", "g"), (1 + (1 << width), 0), (0, 0)))
    assert expansion_coefficients(f * g, PowerPattern(("f", "g"), (1, 1), (0, 0))) == [1]


def test_exponents_at_the_top_of_the_width_are_read():
    # u -> u^2 from u: D^n(u) = n! u^(n+1) reaches the degree bound exactly,
    # so the family meets the top of the fields the width allows.
    u = MultiPoly.variable(("u",), "u")
    grammar = Grammar(("u",), {"u": u * u})
    factorials = plain_triangle("fact", lambda n: [1])
    for n_max in (1, 3, 7, 15, 31):
        report = verify_identity(grammar, DerivOp("D"), u, n_max, factorials,
                                 factorial,
                                 lambda n: PowerPattern(("u",), (n + 1,), (1,)), "top")
        assert report.ok, [c for c in report.checks if not c.ok]


# ----------------------------------------------------------------------
# verify_identity's packed comparison against the reader route

def reference_checks(grammar, op, start, n_max, expected, normalization, pattern_for):
    """(n, ok, detail) per n, from expansion_coefficients and a zero-padded
    comparison with normalization(n) * expected.row(n)."""
    checks = []
    for n, p in enumerate(operator_iterates(grammar, op, start, n_max)):
        if not n:
            continue
        try:
            got = expansion_coefficients(p, pattern_for(n))
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


def identity_cases():
    """(id, grammar, op, start, n_max, row(n), normalization, pattern_for): true
    identities of the verify targets, and the same with stray terms."""
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
    ]


def bumped(row):
    return [c + (k == len(row) // 2) for k, c in enumerate(row)]


def internal_zero(row):
    return [0 if k == len(row) // 2 else c for k, c in enumerate(row)]


ROW_MUTATIONS = {
    "none": lambda row: row,
    "bumped": bumped,
    "dropped-last": lambda row: row[:-1],
    "extra-trailing": lambda row: row + [1],
    "trailing-zero": lambda row: row + [0],
    "internal-zero": internal_zero,
    "inserted-zero": lambda row: row[:1] + [0] + row[1:],
    "negated": lambda row: [-c for c in row],
}

NORMALIZATIONS = {
    "as-is": lambda norm: norm,
    "one": lambda norm: lambda n: 1,
    "power-of-two": lambda norm: lambda n: 2 ** (n % 4),
    "negated": lambda norm: lambda n: -norm(n),
    "zero": lambda norm: lambda n: 0,
    "tripled": lambda norm: lambda n: 3 * norm(n),
}


def assert_same_checks(monkeypatch, grammar, op, start, n_max, row, norm, pattern_for):
    reads = []
    real = grammar_module._read_off
    monkeypatch.setattr(grammar_module, "_read_off",
                        lambda *args: reads.append(1) or real(*args))
    expected = plain_triangle("row", row)
    report = verify_identity(grammar, op, start, n_max, expected, norm, pattern_for, "x")
    monkeypatch.setattr(grammar_module, "_read_off", real)
    got = [(c.n, c.ok, c.detail) for c in report.checks]
    assert got == reference_checks(grammar, op, start, n_max, expected, norm, pattern_for)
    # A passing check never reaches the reader; each failing one reaches it once.
    assert len(reads) == sum(not ok for _, ok, _ in got)
    return got


@pytest.mark.parametrize("case", identity_cases(), ids=lambda case: case[0])
def test_the_packed_comparison_gives_the_reader_verdict_on_every_mutation(monkeypatch, case):
    name, grammar, op, start, n_max, row, norm, pattern_for = case
    verdicts = set()
    for mutate in ROW_MUTATIONS.values():
        for scale in NORMALIZATIONS.values():
            checks = assert_same_checks(monkeypatch, grammar, op, start, n_max,
                                        lambda n: mutate(row(n)), scale(norm), pattern_for)
            verdicts.update(ok for _, ok, _ in checks)
    assert verdicts == ({False} if name == "stray-rule" else {True, False})


def test_the_packed_comparison_refuses_carries_and_extra_k_on_a_fixed_family(monkeypatch):
    t, u, v = MultiPoly.variables("t u v")
    zero = MultiPoly(("t", "u", "v"))
    grammar = Grammar(("t", "u", "v"), {"t": zero, "u": zero, "v": v})
    start = t * u * v
    width, _ = _packed_iterates(grammar, DerivOp("D"), start, 2)
    fixed = PowerPattern(("t", "u", "v"), (1, 1, 1), (0, 0, 0))
    for pattern in (*carry_patterns(width), fixed):
        for row in ([1], [1, 1], [0, 1], [1, 0, 2], [2]):
            for norm in (1, 2, -1, 0):
                assert_same_checks(monkeypatch, grammar, DerivOp("D"), start, 2,
                                   lambda n: row, lambda n: norm, lambda n: pattern)
