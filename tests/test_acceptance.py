"""End-to-end acceptance suite.

Every criterion runs at its stated bound and tolerance (exact equality
throughout) and prints one pass/fail line; the stated runtime budgets are
asserted as well.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the summary lines.
"""

import random
import subprocess
import sys
import time

from conftest import random_poly
from polygram import classical, oracles
from polygram import triangles as tri
from polygram.gamma import GammaVector, associahedron_h, coxeter_h, gamma_to_h, h_to_gamma
from polygram.grammar import DerivOp, iterate_operator
from polygram.parser import parse_grammar, parse_poly
from polygram.poly import MultiPoly
from test_kernel import partial_derivative
from polygram.verify import (check_alternating_counts, check_chebyshev_specialization,
                             check_generating_functions, check_imaginary_assoc_forms,
                             check_sqrt_gamma_forms, run_target)


def _finish(number: int, label: str, ok: bool, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} ({label}): {status} [{elapsed:.2f}s, budget {budget}s]")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_gamma_polynomial_tables():
    t0 = time.perf_counter()
    ok = (tri.GAMMA_A.row(1) == [1] and tri.GAMMA_A.row(2) == [1]
          and tri.GAMMA_A.row(3) == [1, 2] and tri.GAMMA_A.row(4) == [1, 8]
          and tri.GAMMA_B.row(1) == [1] and tri.GAMMA_B.row(2) == [1, 4]
          and tri.GAMMA_B.row(3) == [1, 20] and tri.GAMMA_B.row(4) == [1, 72, 80])
    _finish(1, "gamma tables n<=4", ok, t0, 0.1)


def test_criterion_02_four_expansions_to_25():
    t0 = time.perf_counter()
    report = run_target("thm32", 25)
    ok = report.ok and len(report.checks) == 100
    _finish(2, "four expansions n<=25 vs recurrence triangles", ok, t0, 10.0)


def test_criterion_03_weighted_eulerian_rows_to_15():
    t0 = time.perf_counter()
    report = run_target("thm11", 15)
    ok = report.ok and len(report.checks) == 30
    _finish(3, "weighted iterates carry Eulerian rows n<=15", ok, t0, 5.0)


def test_criterion_04_oracle_certification():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        ok = ok and list(oracles.descent_distribution(n)) == tri.EULERIAN_A.row(n)
    for n in range(1, 7):
        ok = ok and list(oracles.descent_b_distribution(n)) == tri.EULERIAN_B.row(n)
    for n in range(1, 13):
        hist = oracles.motzkin_up_histogram(n - 1)
        ok = ok and all(hist[k] == tri.ASSOC_GAMMA_A.value(n, k) for k in range(len(hist)))
    for n in range(15):
        ok = ok and list(oracles.left_factor_h_histogram(n)) == tri.MOTZKIN_T.row(n)
    _finish(4, "brute-force oracle certification", ok, t0, 30.0)


def test_criterion_05_gamma_expansions_and_roundtrips():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 13):
        pairs = (
            (GammaVector(tuple(tri.GAMMA_A.row(n)), n - 1), coxeter_h("A", n)),
            (GammaVector(tuple(tri.GAMMA_B.row(n)), n), coxeter_h("B", n)),
            (GammaVector(tuple(tri.ASSOC_GAMMA_A.row(n)), n - 1), associahedron_h("A", n)),
            (GammaVector(tuple(tri.ASSOC_GAMMA_B.row(n)), n), associahedron_h("B", n)),
        )
        for gamma, h in pairs:
            ok = ok and gamma_to_h(gamma) == h and h_to_gamma(h) == gamma
    _finish(5, "gamma expansions and roundtrips n<=12", ok, t0, 1.0)


def test_criterion_06_grammar_coefficient_identities_to_15():
    t0 = time.perf_counter()
    ok = all(run_target(name, 15).ok for name in ("prop41", "thm42", "thm43", "thm44"))
    # hand-checked single-step anchors
    g2 = parse_grammar("u -> u^2*v; v -> 4*u^3")
    ok = ok and str(iterate_operator(g2, DerivOp("D"),
                                     parse_poly("u*v", g2.letters), 1)) == "u^2*v^2 + 4*u^4"
    g3 = parse_grammar("t -> t*u^2; u -> u^2*v; v -> 4*u^3")
    start = parse_poly("t^2*u^2", g3.letters)
    want = 2 * parse_poly("t^2*u^4 + t^2*u^3*v", g3.letters)
    ok = ok and iterate_operator(g3, DerivOp("D"), start, 1) == want
    _finish(6, "coefficient identities n<=15 with hand anchors", ok, t0, 5.0)


def test_criterion_07_quadratic_extension_identities():
    t0 = time.perf_counter()
    ok = (check_sqrt_gamma_forms(12).ok
          and check_imaginary_assoc_forms(10).ok
          and check_chebyshev_specialization(12).ok)
    _finish(7, "square-root and imaginary-unit identities", ok, t0, 5.0)


def test_criterion_08_generating_function_checks():
    t0 = time.perf_counter()
    egf = check_generating_functions(12)
    alt = check_alternating_counts(8, 6)
    ok = egf.ok and alt.ok and oracles.count_alternating(4, "A") == 5
    _finish(8, "series coefficients and alternating counts", ok, t0, 10.0)


def test_criterion_09_byte_identical_verify_all():
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "polygram", "verify", "--target", "all",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and first.stdout.strip() != b"")
    _finish(9, "verify all is byte-deterministic", ok, t0, 60.0)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    cases = 1000
    ok = True

    rng = random.Random(1)
    letters = tuple("abcd")
    one = MultiPoly.const(letters, 1)
    for _ in range(cases):
        a = random_poly(rng, letters)
        b = random_poly(rng, letters)
        c = random_poly(rng, letters)
        x = rng.choice(letters)
        ok = ok and a + b == b + a and (a + b) + c == a + (b + c)
        ok = ok and a * b == b * a and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c and a * one == a
        ok = ok and partial_derivative(a * b, x) == \
            a * partial_derivative(b, x) + b * partial_derivative(a, x)

    g = parse_grammar("u -> u*v; v -> u + v^2")
    D = DerivOp("D")
    rng = random.Random(2)
    for _ in range(cases):
        a = random_poly(rng, g.letters, max_exp=4)
        b = random_poly(rng, g.letters, max_exp=4)
        da, db = iterate_operator(g, D, a, 1), iterate_operator(g, D, b, 1)
        ok = ok and iterate_operator(g, D, a + b, 1) == da + db
        ok = ok and iterate_operator(g, D, a * b, 1) == da * b + a * db

    rng = random.Random(3)
    from fractions import Fraction
    for _ in range(cases):
        n = rng.randint(0, 15)
        r = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        p = classical.tangent_derivative_poly(n)
        q = classical.secant_derivative_poly(n)
        ok = ok and p(-r) == (-1) ** (n + 1) * p(r)
        ok = ok and q(-r) == (-1) ** n * q(r)

    rng = random.Random(4)
    for _ in range(cases):
        d = rng.randint(0, 20)
        gv = GammaVector(tuple(rng.randint(-9, 9) for _ in range(d // 2 + 1)), d)
        h = gamma_to_h(gv)
        ok = ok and h.is_palindromic() and h_to_gamma(h) == gv

    rng = random.Random(5)
    for _ in range(cases):
        p = random_poly(rng, ("a", "b", "c"))
        ok = ok and parse_poly(str(p), ("a", "b", "c")) == p

    _finish(10, "randomized property suites (1000 cases each)", ok, t0, 60.0)
