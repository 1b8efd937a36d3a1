"""Named verification targets behind the CLI ``verify`` command.

Each target rebuilds its grammar or ring setup from scratch, sweeps
n = 1..n_max and returns a Report with one entry per check.  The default
n_max per target is sized to finish comfortably within a few seconds.

A grammar-coefficient target (thm11, thm32, prop41, thm42, thm43, thm44)
is a rule text plus a short table of rows, (label, operator text, start
text, expected triangle, normalization, base(n), step): op^n(start) must
carry normalization(n) * expected.row(n) on the monomials base(n) + k*step.
``_run_rows`` parses the rule text once per call, at call time, so the
rules and triangles it reads are the ones bound when the target runs, and
adds each row's checks to one Report in row order.

The square-root targets (prop12, thm31, cor33, thm42) clear every
denominator up front, so identities involving 1/sqrt(q) or half-integer
powers of q become equalities in ``QuadraticRing``.  Every polynomial in
the adjoined root (a two-letter iterate, thm31's shifted sums, cor33's
values at i*h) enters the ring through one reduction,
``QuadraticRing.collect``, with no rational function arithmetic anywhere.

Only the triangles and ``Report`` are imported with the module.  Each
target imports the rest of polygram when it runs, so a single target loads
only its own modules (thm21 and thm22 load ``gamma`` and nothing of the
grammar or ring code), and a module patched by a caller is read as patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .report import Check, Report
from .triangles import (ASSOC_GAMMA_A, ASSOC_GAMMA_A_REC, ASSOC_GAMMA_B,
                        ASSOC_GAMMA_B_REC, EULERIAN_A, EULERIAN_B, GAMMA_A,
                        GAMMA_B, MOTZKIN_T, CUBE_F, binomial_row, factorial,
                        plain_triangle)

if TYPE_CHECKING:
    from .poly import MultiPoly
    from .quadratic import ExtPoly, QuadraticRing

__all__ = ["TARGETS", "Target", "check_alternating_counts", "check_chebyshev_specialization",
           "check_generating_functions", "check_imaginary_assoc_forms", "check_scaled_tan_sec",
           "check_sqrt_gamma_forms", "run_all", "run_target"]

_CUBIC_RULES = "u -> u^2*v; v -> u^3"


def _specialize(p: MultiPoly, ring: QuadraticRing, scale: int) -> ExtPoly:
    # Two-letter p with its first letter -> s and its second -> scale*x, over
    # s^2 = q(x): a term c u^a v^b is c scale^b s^a x^b.
    return ring.collect((a, b, c * scale ** b) for (a, b), c in p.terms.items())


def _run_rows(target: str, rules: str, n_max: int, rows) -> Report:
    # One verify_identity sweep per row of the table in the module docstring.
    from .grammar import DerivOp, PowerPattern, verify_identity
    from .parser import parse_grammar, parse_poly

    g = parse_grammar(rules)
    report = Report(target)
    for label, op, start, expected, norm, base, step in rows:
        def pattern(n, base=base, step=step):
            return PowerPattern(g.letters, base(n), step)
        report.extend(verify_identity(g, DerivOp.parse(op), parse_poly(start, g.letters),
                                      n_max, expected, norm, pattern, label))
    return report


def _paired_iterates(rules: str, op: str, a: str, b: str, n_max: int):
    # (n, op^n(a), op^n(b)) for n = 0..n_max, one kernel step per n and side.
    from .grammar import DerivOp, operator_iterates
    from .parser import parse_grammar, parse_poly

    g = parse_grammar(rules)
    d = DerivOp.parse(op)
    return enumerate(zip(operator_iterates(g, d, parse_poly(a, g.letters), n_max),
                         operator_iterates(g, d, parse_poly(b, g.letters), n_max)))


def _target_thm11(n_max: int) -> Report:
    # Weighted iterates over {y -> z^2, z -> y*z} carry 2^n times the plain
    # Eulerian row on y^(2n-2k-1) z^(2k+2), and the signed Eulerian row on
    # y^(2n-2k) z^(2k+1).
    return _run_rows("thm11", "y -> z^2; z -> y*z", n_max, (
        ("(Dy)^n(y)", "preD:y", "y", EULERIAN_A, lambda n: 2 ** n,
         lambda n: (2 * n - 1, 2), (-2, 2)),
        ("(Dy)^n(z)", "preD:y", "z", EULERIAN_B, lambda n: 1, lambda n: (2 * n, 1), (-2, 2)),
    ))


def _gamma_family_report(target: str, n_max: int, family: str, degree_of,
                         coxeter_triangle, assoc_triangle) -> Report:
    from .gamma import GammaVector, associahedron_h, coxeter_h, gamma_to_h, h_to_gamma

    report = Report(target)
    for n in range(1, n_max + 1):
        d = degree_of(n)
        row = GammaVector(tuple(coxeter_triangle.row(n)), d)
        want = coxeter_h(family, n)
        ok = gamma_to_h(row) == want
        report.add(Check("coxeter-h", n, ok,
                         "" if ok else f"gamma row {row} does not expand to {want}"))
        back = h_to_gamma(want)
        ok = back == row
        report.add(Check("gamma-roundtrip", n, ok,
                         "" if ok else f"extracted {back}, expected {row}"))
        assoc_row = GammaVector(tuple(assoc_triangle.row(n)), d)
        assoc_want = associahedron_h(family, n)
        ok = gamma_to_h(assoc_row) == assoc_want
        report.add(Check("assoc-h", n, ok,
                         "" if ok else f"gamma row {assoc_row} does not expand to {assoc_want}"))
    return report


def _target_thm21(n_max: int) -> Report:
    return _gamma_family_report("thm21", n_max, "A", lambda n: n - 1,
                                GAMMA_A, ASSOC_GAMMA_A)


def _target_thm22(n_max: int) -> Report:
    return _gamma_family_report("thm22", n_max, "B", lambda n: n,
                                GAMMA_B, ASSOC_GAMMA_B)


def _target_thm32(n_max: int) -> Report:
    # The four expansions over {f -> f*g, g -> 4*f^2}, read against the
    # recurrence-backed triangles.
    from . import classical

    return _run_rows("thm32", classical.DOUBLE_ANGLE_RULES, n_max, (
        ("D^n(f)", "D", "f", GAMMA_B, lambda n: 1, lambda n: (1, n), (2, -2)),
        ("D^n(g)", "D", "g", GAMMA_A, lambda n: 2 ** (n + 1), lambda n: (2, n - 1), (2, -2)),
        ("(fD)^n(f)", "postD:f", "f", ASSOC_GAMMA_B_REC, factorial,
         lambda n: (n + 1, n), (2, -2)),
        ("(fD)^n(g)", "postD:f", "g", ASSOC_GAMMA_A_REC, lambda n: 2 * factorial(n + 1),
         lambda n: (n + 2, n - 1), (2, -2)),
    ))


def _target_prop41(n_max: int) -> Report:
    expected = plain_triangle(
        "four-power-binomial",
        lambda n: [4 ** k * c for k, c in enumerate(binomial_row(n + 1)[::2])])
    return _run_rows("prop41", "u -> u^2*v; v -> 4*u^3", n_max, (
        ("D^n(uv)", "D", "u*v", expected, factorial, lambda n: (n + 1, n + 1), (2, -2)),
    ))


def _target_thm42(n_max: int) -> Report:
    even_slots = plain_triangle("binomial-even-slots", lambda n: binomial_row(n + 1)[::2])
    odd_slots = plain_triangle("binomial-odd-slots", lambda n: binomial_row(n + 1)[1::2])
    report = _run_rows("thm42", _CUBIC_RULES, n_max, (
        ("D^n(uv)", "D", "u*v", even_slots, factorial, lambda n: (n + 1, n + 1), (2, -2)),
        ("D^n(u^2)", "D", "u^2", odd_slots, factorial, lambda n: (n + 2, n), (2, -2)),
    ))
    report.extend(check_chebyshev_specialization(n_max))
    return report


def _target_thm43(n_max: int) -> Report:
    shifted = plain_triangle("gamma-a-shifted", lambda n: GAMMA_A.row(n + 1))
    return _run_rows("thm43", "u -> u*v; v -> 2*u", n_max, (
        ("D^n(u)", "D", "u", shifted, lambda n: 1, lambda n: (1, n), (1, -2)),
    ))


def _target_thm44(n_max: int) -> Report:
    return _run_rows("thm44", "t -> t*u^2; u -> u^2*v; v -> 4*u^3", n_max, (
        ("D^n(t^2 u^2)", "D", "t^2*u^2", MOTZKIN_T, lambda n: factorial(n + 1),
         lambda n: (2, 2 * n + 2, 0), (0, -1, 1)),
        ("D^n(t^2 u)", "D", "t^2*u", CUBE_F, factorial,
         lambda n: (2, 2 * n + 1, 0), (0, -1, 1)),
    ))


def check_scaled_tan_sec(n_max: int) -> Report:
    """Derivative iterates of the double-angle system against scaled P_n / Q_n.

    Under g = 2h and f = s with s^2 = 1 + h^2, D^n(f) must read 2^n Q_n(h) s
    and D^n(g) must read 2^(n+1) P_n(h); a term of the wrong parity in f
    leaves a component that should be zero.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    from . import classical
    from .quadratic import QuadraticRing
    from .unipoly import UniPoly

    iterates = _paired_iterates(classical.DOUBLE_ANGLE_RULES, "D", "f", "g", n_max)
    next(iterates)  # n = 0 is not checked
    ring = QuadraticRing(UniPoly("h", (1, 0, 1)))
    report = Report("prop12")
    for n, (d_f, d_g) in iterates:
        cases = (
            ("D^n(f)", d_f, ring.of(0, 2 ** n * classical.secant_derivative_poly(n, "h"))),
            ("D^n(g)", d_g, ring.of(2 ** (n + 1) * classical.tangent_derivative_poly(n, "h"))),
        )
        for name, value, want in cases:
            report.expect(name, n, _specialize(value, ring, 2), want)
    return report


def check_sqrt_gamma_forms(n_max: int) -> Report:
    """Row generating functions of both gamma triangles against tangent and
    secant derivative polynomials taken at 1/sqrt(4x-1).

    With s adjoined as sqrt(4x-1) =: sqrt(q), 1/s is s/q, so after clearing
    q powers both sides are ordinary polynomials.  The parities of P_n and
    Q_n force every surviving power of s to be even; any odd power left over
    is reported as a failure.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    from . import classical
    from .quadratic import QuadraticRing
    from .unipoly import UniPoly

    x = UniPoly.variable("x")
    ring = QuadraticRing(4 * x - 1)
    report = Report("thm31")
    for n in range(1, n_max + 1):
        row_a = UniPoly("x", GAMMA_A.row(n))
        row_b = UniPoly("x", GAMMA_B.row(n))
        cases = (
            # 2^(n+1) x a_n(x) q^(n+1) == sum_k [P_n]_k s^(n+1+k) q^(n+1-k)
            ("gamma-a-gf", classical.tangent_derivative_poly(n), n + 1,
             2 ** (n + 1) * x * row_a * ring.modulus_power(n + 1)),
            # b_n(x) q^n == sum_k [Q_n]_k s^(n+k) q^(n-k)
            ("gamma-b-gf", classical.secant_derivative_poly(n), n,
             row_b * ring.modulus_power(n)),
        )
        for name, dpoly, shift, lhs in cases:
            # s^(shift+k) q^(shift-k) = s^(3 shift - k), as s^2 = q
            got = ring.collect((3 * shift - k, 0, c) for k, c in enumerate(dpoly.coeffs))
            if not got.is_real:
                report.add(Check(name, n, False, "odd power of the adjoined root survived"))
                continue
            report.expect(name, n, got.a, lhs)
    return report


def check_imaginary_assoc_forms(n_max: int) -> Report:
    """Weighted derivative iterates against Legendre/Narayana-type values at
    an imaginary argument.

    Under the double-angle rules, (fD)^n(f) equals n! f^(n+1) (-i)^n L_n(i h)
    and (fD)^n(g) equals 2 (n+1)! f^(n+2) (-i)^(n-1) N_n(i h), with i adjoined
    as the root of -1 over the letter h.  Both right-hand sides must come out
    with zero imaginary component; the left-hand sides are read with g = 2h
    and f = s, s^2 = 1 + h^2.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    from . import classical
    from .quadratic import QuadraticRing
    from .unipoly import UniPoly

    iterates = _paired_iterates(classical.DOUBLE_ANGLE_RULES, "postD:f", "f", "g", n_max)
    next(iterates)  # n = 0 is not checked
    f_ring = QuadraticRing(UniPoly("h", (1, 0, 1)))
    ring = QuadraticRing(UniPoly("h", (-1,)))
    report = Report("cor33")
    for n, (fd_f, fd_g) in iterates:
        cases = (
            ("(fD)^n(f)", fd_f, classical.legendre_like(n, "h"), factorial(n), n, n + 1),
            ("(fD)^n(g)", fd_g, classical.narayana_like(n, "h"), 2 * factorial(n + 1),
             n - 1, n + 2),
        )
        for name, value, witness, scale, unit_power, f_power in cases:
            # scale (-i)^u W(i h) = sum_k (-1)^u scale c_k i^(u+k) h^k
            rhs = ring.collect((unit_power + k, k, (-1) ** unit_power * scale * c)
                               for k, c in enumerate(witness.coeffs))
            if not rhs.is_real:
                report.add(Check(name, n, False, "imaginary component survived"))
                continue
            report.expect(name, n, _specialize(value, f_ring, 2),
                          f_ring.root_power(f_power) * rhs.a)
    return report


def check_chebyshev_specialization(n_max: int) -> Report:
    """Derivative iterates of the cubic-rule grammar under u -> s, v -> x with
    s^2 = x^2 - 1, against n! s^(n+1) T_(n+1)(x) and n! s^(n+2) U_n(x).

    Half-integer powers of x^2 - 1 are exactly the odd powers of s, so the
    comparison is plain equality of reduced ring elements.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    from . import classical
    from .quadratic import QuadraticRing
    from .unipoly import UniPoly

    ring = QuadraticRing(UniPoly("x", (-1, 0, 1)))
    report = Report("thm42")
    for n, (d_uv, d_u2) in _paired_iterates(_CUBIC_RULES, "D", "u*v", "u^2", n_max):
        fact = factorial(n)
        cases = (
            ("uv-specialized", d_uv, classical.chebyshev_t(n + 1), n + 1),
            ("u^2-specialized", d_u2, classical.chebyshev_u(n), n + 2),
        )
        for name, value, cheb, s_power in cases:
            report.expect(name, n, _specialize(value, ring, 1),
                          ring.root_power(s_power) * (cheb * fact))
    return report


def check_generating_functions(n_max: int) -> Report:
    """Coefficients of the closed tangent/secant generating functions, order
    by order, against the recurrence-built polynomials.

    The closed forms are (u + tan t) / (1 - u tan t) and sec t / (1 - u tan t);
    both are assembled by series arithmetic only.  They are exponential
    generating functions, so coefficient n of each is P_n or Q_n itself.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    from . import classical
    from .unipoly import _trimmed

    var = "u"
    tan_side, sec_side = classical.closed_form_series(n_max)
    report = Report("egf")
    for n in range(n_max + 1):
        cases = (
            ("tan-side", tan_side, classical.tangent_derivative_poly(n, var)),
            ("sec-side", sec_side, classical.secant_derivative_poly(n, var)),
        )
        for name, series, want in cases:
            report.expect(name, n, _trimmed(var, series[n]), want)
    return report


def check_alternating_counts(n_max_plain: int, n_max_signed: int) -> Report:
    """Alternating-element counts by brute force versus P_n(0) + Q_n(0).

    The signed family must come out as exactly 2^n times the plain one.
    """
    from . import classical
    from .oracles import count_alternating

    p, q = classical.tangent_derivative_poly, classical.secant_derivative_poly
    report = Report("alternating")
    for n in range(1, n_max_plain + 1):
        report.expect("plain", n, count_alternating(n, "A"), p(n)(0) + q(n)(0))
    for n in range(1, n_max_signed + 1):
        report.expect("signed", n, count_alternating(n, "B"), 2 ** n * (p(n)(0) + q(n)(0)))
    return report


def _target_alternating(n_max: int) -> Report:
    # Clamped to the oracle's enumeration guards.
    from .oracles import MAX_PLAIN_N, MAX_SIGNED_N

    return check_alternating_counts(min(n_max, MAX_PLAIN_N),
                                    min(n_max, MAX_SIGNED_N))


@dataclass(frozen=True)
class Target:
    name: str
    default_n_max: int
    description: str
    run: Callable[[int], Report]


TARGETS: dict[str, Target] = {
    t.name: t
    for t in (
        Target("thm11", 15, "weighted iterates carry scaled Eulerian rows of both types",
               _target_thm11),
        Target("prop12", 12, "derivative iterates reduce to scaled tangent/secant polynomials",
               check_scaled_tan_sec),
        Target("thm21", 12, "type A gamma rows expand to the Coxeter and associahedron h-rows",
               _target_thm21),
        Target("thm22", 12, "type B gamma rows expand to the Coxeter and associahedron h-rows",
               _target_thm22),
        Target("thm31", 12, "gamma row generating functions via the square root of 4x-1",
               check_sqrt_gamma_forms),
        Target("thm32", 25, "the four coefficient expansions over the double-angle rules",
               _target_thm32),
        Target("cor33", 10, "weighted iterates against Legendre/Narayana values at i*h",
               check_imaginary_assoc_forms),
        Target("prop41", 15, "quartic-rule iterates carry 4^k binomial rows",
               _target_prop41),
        Target("thm42", 12, "cubic-rule expansions and their Chebyshev specialization",
               _target_thm42),
        Target("thm43", 15, "single-step grammar carries the shifted type A gamma rows",
               _target_thm43),
        Target("thm44", 15, "three-letter grammar carries Motzkin prefix and cube face rows",
               _target_thm44),
        Target("egf", 12, "closed tangent/secant generating functions match the recurrences",
               check_generating_functions),
        Target("alternating", 8, "alternating counts match polynomial values at zero",
               _target_alternating),
    )
}


def run_target(name: str, n_max: int | None = None) -> Report:
    if name not in TARGETS:
        raise ValueError(f"unknown target {name!r}; known: {', '.join(sorted(TARGETS))}, all")
    target = TARGETS[name]
    if n_max is None:
        n_max = target.default_n_max
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return target.run(n_max)


def run_all(n_max: int | None = None) -> list[Report]:
    """Every target once, in name order; reports keep that order."""
    return [run_target(name, n_max) for name in sorted(TARGETS)]
