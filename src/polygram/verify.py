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
powers of q become polynomial equalities, with no rational function
arithmetic anywhere.  prop12, thm42 and cor33 are case tables that give the
want components, and one sweep, ``_specialize``, reads their two-letter
iterates as lines along (2, -2), each entering ``QuadraticRing`` by Horner
in q (``collect_line``); no want side passes through it.  thm31 builds no
ring: each s-parity part of its shifted sum is a polynomial in q = 4x - 1,
read in x by one scaled Taylor shift, ``classical._affine``.  cor33's
values at i*h use no ring either: real and imaginary parts are read off by
index parity.  Where every term of the got side carries a known power of
the root (thm42, cor33, thm31), that common power is divided out of the got
side, not multiplied into the want side.  q is not a square, so s^m X =
s^m Y exactly when X = Y; a term below the common power, or a thm31 P_n /
Q_n of degree above it, fails its check.

Only the triangles and ``Report`` are imported with the module.  Each
target imports the rest of polygram when it runs, so a single target loads
only its own modules (thm21 and thm22 load ``gamma`` and nothing of the
grammar or ring code; thm32 loads the grammar code and nothing of the
rings), and a module patched by a caller is read as patched.  The rule
texts are module constants here, so a grammar target reads no ring module
for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import TYPE_CHECKING, Callable

from .report import Check, Report
from .triangles import (ASSOC_GAMMA_A_REC, ASSOC_GAMMA_B_REC, EULERIAN_A, EULERIAN_B,
                        GAMMA_A, GAMMA_B, MOTZKIN_T, CUBE_F, binomial_row, factorial,
                        plain_triangle)

if TYPE_CHECKING:
    from .unipoly import UniPoly

__all__ = ["TARGETS", "Target", "check_alternating_counts", "run_all", "run_target"]

# f ~ sec(2x), g ~ 2 tan(2x): D f = f g and D g = 4 f^2.
_DOUBLE_ANGLE_RULES = "f -> f*g; g -> 4*f^2"
_CUBIC_RULES = "u -> u^2*v; v -> u^3"


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


def _specialize(report: Report, rules: str, op: str, starts, modulus: UniPoly, scale: int,
                n_min: int, n_max: int, cases) -> Report:
    # For n = n_min..n_max, op^n of each start must read s^power * (a + b*s)
    # for that start's case (name, power, (a, b)) in cases(n), under the
    # first letter -> s and the second -> scale*x over s^2 = modulus(x): a
    # term c u^e v^f reads c scale^f s^(e-power) x^f.  The iterates step as
    # lines along (2, -2), each read by collect_line and summed; the least
    # term, the lowest in u, is a line's first term, and it fails the check
    # when it lies below s^power.  A case whose want is a str is that failed
    # check.
    from .grammar import DerivOp, _line_iterates
    from .parser import parse_grammar, parse_poly
    from .quadratic import QuadraticRing

    g, d, ring = parse_grammar(rules), DerivOp.parse(op), QuadraticRing(modulus)
    starts = [parse_poly(text, g.letters) for text in starts]
    sweeps = [islice(_line_iterates(g, d, start, n_max, (2, -2)), n_min, None) for start in starts]
    for n, iterates in enumerate(zip(*sweeps), n_min):
        for lines, (name, power, want) in zip(iterates, cases(n)):
            if isinstance(want, str):
                report.add(Check(name, n, False, want))
                continue
            firsts = [((e + 2 * lo, f - 2 * lo), coeffs) for (e, f), (lo, coeffs) in lines.items()]
            low = min(firsts, default=None)  # no two lines share a first term
            if not low or low[0][0] >= power:
                got = [ring.collect_line(coeffs, e - power, f, scale) for (e, f), coeffs in firsts]
                got = reduce(lambda x, y: ring.of(x.a + y.a, x.b + y.b), got) if got else ring.of(0)
                report.expect(name, n, got, ring.of(*want))
                continue
            term = type(starts[0])._raw(g.letters, {low[0]: low[1][0]})
            report.add(Check(name, n, False,
                             f"term {term} lies below the common power {g.letters[0]}^{power}"))
    return report


def _target_thm11(n_max: int) -> Report:
    # Weighted iterates over {y -> z^2, z -> y*z} carry 2^n times the plain
    # Eulerian row on y^(2n-2k-1) z^(2k+2), and the signed Eulerian row on
    # y^(2n-2k) z^(2k+1).
    return _run_rows("thm11", "y -> z^2; z -> y*z", n_max, (
        ("(Dy)^n(y)", "preD:y", "y", EULERIAN_A, lambda n: 2 ** n,
         lambda n: (2 * n - 1, 2), (-2, 2)),
        ("(Dy)^n(z)", "preD:y", "z", EULERIAN_B, lambda n: 1, lambda n: (2 * n, 1), (-2, 2)),
    ))


def _gamma_family_report(target: str, n_max: int, coxeter: str, assoc: str,
                         degree_of) -> Report:
    # Rows come from gamma.FAMILIES by name, read when the target runs.  d
    # comes from n, so an h row of the wrong length fails its check.
    from .gamma import FAMILIES, gamma_to_h, h_to_gamma

    def joined(row):
        return ",".join(map(str, row))

    report = Report(target)
    for n in range(1, n_max + 1):
        d = degree_of(n)
        for family, name in ((coxeter, "coxeter-h"), (assoc, "assoc-h")):
            h_triangle, gamma_triangle = FAMILIES[family]
            row, want = tuple(gamma_triangle.row(n)), tuple(h_triangle.row(n))
            ok = gamma_to_h(row, d) == want
            report.add(Check(name, n, ok, "" if ok else
                             f"gamma row {joined(row)} does not expand to {joined(want)}"))
            if family == coxeter:
                # A built-in row h_to_gamma refuses is a failed check, not bad input.
                try:
                    back = h_to_gamma(want)
                except ValueError as exc:
                    ok, detail = False, str(exc)
                else:
                    ok = back == row
                    detail = "" if ok else f"extracted {joined(back)}, expected {joined(row)}"
                report.add(Check("gamma-roundtrip", n, ok, detail))
    return report


def _target_thm21(n_max: int) -> Report:
    return _gamma_family_report("thm21", n_max, "coxeter-a", "assoc-a", lambda n: n - 1)


def _target_thm22(n_max: int) -> Report:
    return _gamma_family_report("thm22", n_max, "coxeter-b", "assoc-b", lambda n: n)


def _target_thm32(n_max: int) -> Report:
    # The four expansions over {f -> f*g, g -> 4*f^2}, read against the
    # recurrence-backed triangles.
    return _run_rows("thm32", _DOUBLE_ANGLE_RULES, n_max, (
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
        lambda n: [c << 2 * k for k, c in enumerate(binomial_row(n + 1)[::2])])
    return _run_rows("prop41", "u -> u^2*v; v -> 4*u^3", n_max, (
        ("D^n(uv)", "D", "u*v", expected, factorial, lambda n: (n + 1, n + 1), (2, -2)),
    ))


def _target_thm42(n_max: int) -> Report:
    from . import classical
    from .unipoly import UniPoly

    even_slots = plain_triangle("binomial-even-slots", lambda n: binomial_row(n + 1)[::2])
    odd_slots = plain_triangle("binomial-odd-slots", lambda n: binomial_row(n + 1)[1::2])
    report = _run_rows("thm42", _CUBIC_RULES, n_max, (
        ("D^n(uv)", "D", "u*v", even_slots, factorial, lambda n: (n + 1, n + 1), (2, -2)),
        ("D^n(u^2)", "D", "u^2", odd_slots, factorial, lambda n: (n + 2, n), (2, -2)),
    ))
    # The Chebyshev specialization, n = 0 included: under u -> s, v -> x with
    # s^2 = x^2 - 1, D^n(uv) must read n! s^(n+1) T_(n+1)(x) and D^n(u^2)
    # n! s^(n+2) U_n(x).  Half-integer powers of x^2 - 1 are exactly the odd
    # powers of s.
    def cases(n):
        fact = factorial(n)
        return (("uv-specialized", n + 1, (classical.chebyshev_t(n + 1) * fact, 0)),
                ("u^2-specialized", n + 2, (classical.chebyshev_u(n) * fact, 0)))
    return _specialize(report, _CUBIC_RULES, "D", ("u*v", "u^2"), UniPoly("x", (-1, 0, 1)), 1,
                       0, n_max, cases)


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


def _target_prop12(n_max: int) -> Report:
    # Under g = 2h and f = s with s^2 = 1 + h^2, D^n(f) must read 2^n Q_n(h) s
    # and D^n(g) must read 2^(n+1) P_n(h); a term of the wrong parity in f
    # leaves a component that should be zero.
    from . import classical
    from .unipoly import UniPoly

    def cases(n):
        return (("D^n(f)", 0, (0, 2 ** n * classical.secant_derivative_poly(n, "h"))),
                ("D^n(g)", 0, (2 ** (n + 1) * classical.tangent_derivative_poly(n, "h"), 0)))
    return _specialize(Report("prop12"), _DOUBLE_ANGLE_RULES, "D", ("f", "g"),
                       UniPoly("h", (1, 0, 1)), 2, 1, n_max, cases)


def _at_root(coeffs, shift: int):
    # (A, B) with sum_k coeffs[k] s^(shift-k) = A + B s over s^2 = 4x - 1, len(coeffs) <=
    # shift + 1: rev[e] is the s^e coefficient; a part C(q) is C(-1 + 2^2 x), zero iff C is.
    from .classical import _affine
    from .unipoly import _trimmed

    rev = [0] * (shift + 1 - len(coeffs)) + list(coeffs[::-1])
    return tuple(_trimmed("x", _affine(c, -1, 2) if any(c) else []) for c in (rev[::2], rev[1::2]))


def _target_thm31(n_max: int) -> Report:
    # Row generating functions of both gamma triangles against P_n and Q_n at
    # 1/sqrt(4x-1).  With s adjoined as sqrt(4x-1) =: sqrt(q), 1/s is s/q, and
    # clearing denominators gives
    #   2^(n+1) x a_n(x) q^(n+1) = sum_k [P_n]_k s^(n+1+k) q^(n+1-k),
    #   b_n(x) q^n = sum_k [Q_n]_k s^(n+k) q^(n-k).
    # As s^2 = q, each right side is q^shift sum_k c_k s^(shift-k), and q^shift
    # divides out of both sides.  The parities of P_n and Q_n force every
    # surviving power of s to be even; an odd one left over fails the check,
    # and so does a degree above shift.
    from . import classical
    from .unipoly import UniPoly

    report = Report("thm31")
    for n in range(1, n_max + 1):
        cases = (
            ("gamma-a-gf", classical.tangent_derivative_poly(n), n + 1,
             2 ** (n + 1) * UniPoly("x", [0, *GAMMA_A.row(n)])),
            ("gamma-b-gf", classical.secant_derivative_poly(n), n, UniPoly("x", GAMMA_B.row(n))),
        )
        for name, dpoly, shift, want in cases:
            if dpoly.degree > shift:
                report.add(Check(name, n, False, f"degree {dpoly.degree} is above {shift}"))
                continue
            got, odd = _at_root(dpoly.coeffs, shift)
            if not odd.is_zero:
                report.add(Check(name, n, False, "odd power of the adjoined root survived"))
                continue
            report.expect(name, n, got, want)
    return report


def _target_cor33(n_max: int) -> Report:
    # Under the double-angle rules, (fD)^n(f) equals n! f^(n+1) (-i)^n L_n(i h)
    # and (fD)^n(g) equals 2 (n+1)! f^(n+2) (-i)^(n-1) N_n(i h), i^2 = -1.
    # Both right-hand sides must come out with zero imaginary component, read
    # off by index parity with no ring; the left-hand sides are read with
    # g = 2h and f = s, s^2 = 1 + h^2.
    from . import classical
    from .unipoly import UniPoly, _trimmed

    def real_part(witness, scale, u):
        # scale (-i)^u c_k (i h)^k is real for k = u mod 2: scale c_k (-1)^((3u+k)/2)
        c, parity = witness.coeffs, u % 2
        if any(c[1 - parity::2]):
            return "imaginary component survived"
        real, top = [0] * len(c), (-1) ** ((3 * u + parity) // 2) * scale
        real[parity::2] = [(-top if j % 2 else top) * x for j, x in enumerate(c[parity::2])]
        return _trimmed("h", real), 0

    def cases(n):
        return (("(fD)^n(f)", n + 1, real_part(classical.legendre_like(n, "h"), factorial(n), n)),
                ("(fD)^n(g)", n + 2,
                 real_part(classical.narayana_like(n, "h"), 2 * factorial(n + 1), n - 1)))
    return _specialize(Report("cor33"), _DOUBLE_ANGLE_RULES, "postD:f", ("f", "g"),
                       UniPoly("h", (1, 0, 1)), 2, 1, n_max, cases)


def _target_egf(n_max: int) -> Report:
    # Coefficients of the closed tangent/secant generating functions
    # (u + tan t) / (1 - u tan t) and sec t / (1 - u tan t), order by order,
    # against the recurrence-built polynomials.  Both are assembled by series
    # arithmetic only; they are exponential generating functions, so
    # coefficient n of each is P_n or Q_n itself.
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
               _target_prop12),
        Target("thm21", 12, "type A gamma rows expand to the Coxeter and associahedron h-rows",
               _target_thm21),
        Target("thm22", 12, "type B gamma rows expand to the Coxeter and associahedron h-rows",
               _target_thm22),
        Target("thm31", 12, "gamma row generating functions via the square root of 4x-1",
               _target_thm31),
        Target("thm32", 25, "the four coefficient expansions over the double-angle rules",
               _target_thm32),
        Target("cor33", 10, "weighted iterates against Legendre/Narayana values at i*h",
               _target_cor33),
        Target("prop41", 15, "quartic-rule iterates carry 4^k binomial rows",
               _target_prop41),
        Target("thm42", 12, "cubic-rule expansions and their Chebyshev specialization",
               _target_thm42),
        Target("thm43", 15, "single-step grammar carries the shifted type A gamma rows",
               _target_thm43),
        Target("thm44", 15, "three-letter grammar carries Motzkin prefix and cube face rows",
               _target_thm44),
        Target("egf", 12, "closed tangent/secant generating functions match the recurrences",
               _target_egf),
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
