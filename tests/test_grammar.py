import random

import pytest

from conftest import CASES, random_poly
from polygram.grammar import (DerivOp, Grammar, PatternMismatch, PowerPattern,
                              expansion_coefficients, iterate_operator,
                              operator_iterates, verify_identity)
from polygram.parser import parse_grammar
from polygram.poly import MultiPoly
from polygram.triangles import GAMMA_A, binomial, factorial, plain_triangle


def derive(g, p):
    return iterate_operator(g, DerivOp("D"), p, 1)


def test_derive_worked_example():
    g = parse_grammar("u -> u*v; v -> v")
    u, v = MultiPoly.variables("u v")
    assert derive(g, u) == u * v
    assert iterate_operator(g, DerivOp("D"), u, 2) == u * v + u * v**2
    assert str(iterate_operator(g, DerivOp("D"), u, 3)) == "u*v + 3*u*v^2 + u*v^3"


def test_derive_double_angle_twice():
    g = parse_grammar("f -> f*g; g -> 4*f^2")
    f, gg = MultiPoly.variables("f g")
    assert iterate_operator(g, DerivOp("D"), f, 2) == f * gg**2 + 4 * f**3


def test_derivative_of_constant_is_zero():
    g = parse_grammar("u -> u*v; v -> v")
    assert derive(g, MultiPoly.const("u v", 1)).is_zero


def test_iterate_zero_times_returns_start():
    g = parse_grammar("f -> f*g; g -> 4*f^2")
    f, _ = MultiPoly.variables("f g")
    assert iterate_operator(g, DerivOp("postD", "f"), f, 0) == f


def test_quartic_rules_first_step():
    g = parse_grammar("u -> u^2*v; v -> 4*u^3")
    u, v = MultiPoly.variables("u v")
    assert iterate_operator(g, DerivOp("D"), u * v, 1) == u**2 * v**2 + 4 * u**4


def test_linearity_and_leibniz():
    rng = random.Random(31)
    g = parse_grammar("u -> u*v; v -> u + v^2")
    for _ in range(CASES):
        a = random_poly(rng, g.letters, max_exp=4)
        b = random_poly(rng, g.letters, max_exp=4)
        assert derive(g, a + b) == derive(g, a) + derive(g, b)
        assert derive(g, a * b) == derive(g, a) * b + a * derive(g, b)


def test_pre_mul_operator_matches_definition():
    g = parse_grammar("y -> z^2; z -> y*z")
    y, _ = MultiPoly.variables("y z")
    seq = list(operator_iterates(g, DerivOp("preD", "y"), y, 6))
    for n in range(1, 7):
        assert seq[n] == derive(g, y * seq[n - 1])


def test_post_mul_operator_matches_definition():
    g = parse_grammar("f -> f*g; g -> 4*f^2")
    f, _ = MultiPoly.variables("f g")
    seq = list(operator_iterates(g, DerivOp("postD", "f"), f, 6))
    for n in range(1, 7):
        assert seq[n] == f * derive(g, seq[n - 1])


@pytest.mark.parametrize("cls, fields, others", [
    (DerivOp, ("preD", "y"), [("postD", "y"), ("preD", "z")]),
    (PowerPattern, (("f", "g"), (1, 0), (2, -2)),
     [(("g", "f"), (1, 0), (2, -2)), (("f", "g"), (1, 1), (2, -2)),
      (("f", "g"), (1, 0), (2, -1))]),
], ids=["DerivOp", "PowerPattern"])
def test_equal_fields_give_equal_values(cls, fields, others):
    a, b = cls(*fields), cls(*fields)
    assert a == b and hash(a) == hash(b)
    for other in others:
        assert a != cls(*other)


def test_equal_grammars_built_two_ways_hash_equal():
    u, v = MultiPoly.variables("u v")
    built = Grammar(("u", "v"), {"v": u + v, "u": u * v})
    for other in (parse_grammar("u -> u*v; v -> u + v"),
                  Grammar("u v", {"u": MultiPoly(("v", "u"), {(1, 1): 1}), "v": v + u})):
        assert built == other and hash(built) == hash(other)
    assert built != parse_grammar("u -> u*v; v -> u")


def test_operator_constructor_refusals():
    with pytest.raises(ValueError, match="unknown operator kind 'X'"):
        DerivOp("X")
    with pytest.raises(ValueError, match="plain D takes none"):
        DerivOp("D", "u")
    with pytest.raises(ValueError, match="weighted operators need a weight letter"):
        DerivOp("preD")


def test_operator_parse():
    assert DerivOp.parse("D") == DerivOp("D")
    assert DerivOp.parse("preD:y") == DerivOp("preD", "y")
    assert DerivOp.parse("postD:f") == DerivOp("postD", "f")
    with pytest.raises(ValueError):
        DerivOp.parse("preD:")
    with pytest.raises(ValueError):
        DerivOp.parse("dx")


def test_bidegree_structure_of_iterates():
    # every term of D^n(f) looks like f^(2k+1) g^(n-2k)
    g1 = parse_grammar("f -> f*g; g -> 4*f^2")
    f, _ = MultiPoly.variables("f g")
    seq = list(operator_iterates(g1, DerivOp("D"), f, 12))
    for n in range(1, 13):
        for ef, eg in seq[n].terms:
            assert ef % 2 == 1
            assert eg == n - ef + 1


def test_homogeneity_under_quartic_rules():
    g2 = parse_grammar("u -> u^2*v; v -> 4*u^3")
    u, v = MultiPoly.variables("u v")
    seq = list(operator_iterates(g2, DerivOp("D"), u * v, 10))
    for n in range(11):
        assert all(sum(e) == 2 * n + 2 for e in seq[n].terms)


def test_expansion_coefficients_examples():
    g1 = parse_grammar("f -> f*g; g -> 4*f^2")
    f, _ = MultiPoly.variables("f g")
    seq = list(operator_iterates(g1, DerivOp("D"), f, 4))
    letters = ("f", "g")
    assert expansion_coefficients(seq[0], PowerPattern(letters, (1, 0), (2, -2))) == [1]
    assert expansion_coefficients(seq[2], PowerPattern(letters, (1, 2), (2, -2))) == [1, 4]
    assert expansion_coefficients(seq[4], PowerPattern(letters, (1, 4), (2, -2))) == [1, 72, 80]


def test_expansion_rejects_stray_terms():
    f, g = MultiPoly.variables("f g")
    with pytest.raises(PatternMismatch):
        expansion_coefficients(f * g, PowerPattern(("f", "g"), (1, 0), (2, -2)))


def test_verify_identity_passes():
    g1 = parse_grammar("f -> f*g; g -> 4*f^2")
    _, gg = MultiPoly.variables("f g")
    report = verify_identity(
        g1, DerivOp("D"), gg, 12, GAMMA_A, lambda n: 2 ** (n + 1),
        lambda n: PowerPattern(("f", "g"), (2, n - 1), (2, -2)), "D^n(g)")
    assert report.ok and len(report.checks) == 12


def test_verify_identity_lists_all_failures():
    g1 = parse_grammar("f -> f*g; g -> 4*f^2")
    _, gg = MultiPoly.variables("f g")
    wrong = plain_triangle("wrong", lambda n: [1])
    report = verify_identity(
        g1, DerivOp("D"), gg, 3, wrong, lambda n: 1,
        lambda n: PowerPattern(("f", "g"), (2, n - 1), (2, -2)), "bad")
    assert not report.ok
    assert len(report.checks) == 3
    assert "want" in next(c for c in report.checks if not c.ok).detail


def test_verify_identity_quartic_binomials():
    g2 = parse_grammar("u -> u^2*v; v -> 4*u^3")
    u, v = MultiPoly.variables("u v")
    expected = plain_triangle(
        "four-power-binomial",
        lambda n: [4 ** k * binomial(n + 1, 2 * k) for k in range((n + 1) // 2 + 1)])
    report = verify_identity(
        g2, DerivOp("D"), u * v, 12, expected, factorial,
        lambda n: PowerPattern(("u", "v"), (n + 1, n + 1), (2, -2)), "D^n(uv)")
    assert report.ok


@pytest.mark.parametrize("rows, details", [
    (lambda n: GAMMA_A.row(n)[:-1],
     ["k=0: got 4, want 0", "k=0: got 8, want 0", "k=1: got 32, want 0",
      "k=1: got 256, want 0", "k=2: got 1024, want 0"]),
    (lambda n: GAMMA_A.row(n) + [1],
     ["k=1: got 0, want 4", "k=1: got 0, want 8", "k=2: got 0, want 16",
      "k=2: got 0, want 32", "k=3: got 0, want 64"]),
    (lambda n: [c + (n == 5 and k == 1) for k, c in enumerate(GAMMA_A.row(n))],
     ["", "", "", "", "k=1: got 1408, want 1472"]),
], ids=["too-short", "too-long", "wrong-middle"])
def test_verify_identity_failure_text_is_pinned(rows, details):
    g1 = parse_grammar("f -> f*g; g -> 4*f^2")
    _, gg = MultiPoly.variables("f g")
    report = verify_identity(
        g1, DerivOp("D"), gg, 5, plain_triangle("rows", rows), lambda n: 2 ** (n + 1),
        lambda n: PowerPattern(("f", "g"), (2, n - 1), (2, -2)), "D^n(g)")
    assert [c.n for c in report.checks] == [1, 2, 3, 4, 5]
    assert [c.detail for c in report.checks] == details
    assert [c.ok for c in report.checks] == [not d for d in details]


def test_negative_bound_is_refused_at_the_call():
    g = parse_grammar("u -> u*v; v -> u + v")
    u, _ = MultiPoly.variables(g.letters)
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        operator_iterates(g, DerivOp("D"), u, -1)


def test_iterate_operator_is_the_last_iterate():
    g = parse_grammar("u -> u*v; v -> u + v")
    u, v = MultiPoly.variables(g.letters)
    for op in (DerivOp("D"), DerivOp("preD", "v"), DerivOp("postD", "u")):
        for n in range(9):
            seq = list(operator_iterates(g, op, u * v, n))
            assert len(seq) == n + 1
            assert iterate_operator(g, op, u * v, n) == seq[-1]


def test_grammar_validation():
    u, v = MultiPoly.variables("u v")
    with pytest.raises(ValueError):
        Grammar(("u",), {})
    with pytest.raises(ValueError):
        Grammar(("u",), {"u": u * v})
    with pytest.raises(ValueError):
        Grammar(("u",), {"u": u.with_letters("u"), "v": u.with_letters("u")})
