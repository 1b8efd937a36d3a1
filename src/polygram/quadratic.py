"""Arithmetic in Z[x][s] / (s^2 - q(x)): one adjoined formal square root.

A constant modulus is allowed, so q = -1 gives the Gaussian integers over
any base letter.  Elements are kept reduced (no s^2 survives), and the
verification routines clear every denominator up front, so no rational
function arithmetic is ever needed: identities involving 1/sqrt(q) or
half-integer powers of q become polynomial statements about the two
components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classical import (DOUBLE_ANGLE_RULES, chebyshev_t, chebyshev_u, legendre_like,
                        narayana_like, secant_derivative_poly, tangent_derivative_poly)
from .grammar import DerivOp, operator_iterates
from .parser import parse_grammar
from .poly import MultiPoly, _Ring
from .report import Check, Report
from .triangles import GAMMA_A, GAMMA_B, factorial
from .unipoly import UniPoly

__all__ = [
    "ExtPoly",
    "ModulusMismatch",
    "QuadraticRing",
    "check_chebyshev_specialization",
    "check_imaginary_assoc_forms",
    "check_sqrt_gamma_forms",
]


class ModulusMismatch(ValueError):
    """Two extension elements over different moduli were combined."""


@dataclass(frozen=True)
class ExtPoly(_Ring):
    """a + b*s with s^2 = modulus; both components share the base letter."""

    a: UniPoly
    b: UniPoly
    modulus: UniPoly

    def __post_init__(self):
        if not (self.a.var == self.b.var == self.modulus.var):
            raise ValueError("components and modulus must share one letter")

    @property
    def is_real(self) -> bool:
        return self.b.is_zero

    def _coerced(self, other):
        if isinstance(other, ExtPoly):
            if other.modulus != self.modulus:
                raise ModulusMismatch(
                    f"moduli differ: {self.modulus} vs {other.modulus}")
            return other
        # Scalars and UniPolys lift through the trusted UniPoly coercion.
        lifted = self.a._coerced(other)
        if lifted is None:
            return None
        return ExtPoly(lifted, UniPoly._raw(lifted.var, ()), self.modulus)

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return ExtPoly(self.a + other.a, self.b + other.b, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return ExtPoly(-self.a, -self.b, self.modulus)

    def __mul__(self, other):
        # Scalar fast path: thm31 multiplies by a UniPoly in its inner loop.
        if isinstance(other, (int, UniPoly)):
            return ExtPoly(self.a * other, self.b * other, self.modulus)
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return ExtPoly(self.a * other.a + self.b * other.b * self.modulus,
                       self.a * other.b + self.b * other.a,
                       self.modulus)

    __rmul__ = __mul__

    def __str__(self):
        return f"({self.a}) + ({self.b})*s  [s^2 = {self.modulus}]"


class QuadraticRing:
    """Constructors for a fixed modulus q over its base letter."""

    def __init__(self, modulus: UniPoly):
        if modulus.is_zero:
            raise ValueError("modulus must be nonzero")
        self.modulus = modulus
        self.var = modulus.var
        self._modulus_powers = [UniPoly._raw(self.var, (1,))]

    def _lift(self, c):
        # Exact ints take the trusted path; a bool still meets the checks.
        if type(c) is int:
            return UniPoly._raw(self.var, (c,) if c else ())
        return UniPoly.constant(self.var, c) if isinstance(c, int) else c

    def of(self, a, b=0) -> ExtPoly:
        return ExtPoly(self._lift(a), self._lift(b), self.modulus)

    def zero(self) -> ExtPoly:
        return self.of(0, 0)

    def one(self) -> ExtPoly:
        return self.of(1, 0)

    def from_int(self, value: int) -> ExtPoly:
        return self.of(value, 0)

    def root(self) -> ExtPoly:
        return self.of(0, 1)

    def modulus_power(self, j: int) -> UniPoly:
        """q^j, read from a list in which each power is one product from the last."""
        if j < 0:
            raise ValueError(f"power must be >= 0, got {j}")
        powers = self._modulus_powers
        while len(powers) <= j:
            powers.append(powers[-1] * self.modulus)
        return powers[j]

    def root_power(self, k: int) -> ExtPoly:
        """s^k reduced: q^(k//2), times s when k is odd."""
        if k < 0:
            raise ValueError(f"power must be >= 0, got {k}")
        q_pow = self.modulus_power(k // 2)
        if k % 2:
            return self.of(0, q_pow)
        return self.of(q_pow, 0)

    def eval_poly(self, p: UniPoly, value: ExtPoly) -> ExtPoly:
        """Horner evaluation of an integer polynomial at a ring element."""
        acc = self.zero()
        for c in reversed(p.coeffs):
            acc = acc * value + self.from_int(c)
        return acc


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
    x = UniPoly.variable("x")
    q = 4 * x - 1
    ring = QuadraticRing(q)
    report = Report("thm31")
    for n in range(1, n_max + 1):
        row_a = UniPoly("x", GAMMA_A.row(n))
        row_b = UniPoly("x", GAMMA_B.row(n))
        cases = (
            # 2^(n+1) x a_n(x) q^(n+1) == sum_k [P_n]_k s^(n+1+k) q^(n+1-k)
            ("gamma-a-gf", tangent_derivative_poly(n), n + 1,
             2 ** (n + 1) * x * row_a * ring.modulus_power(n + 1)),
            # b_n(x) q^n == sum_k [Q_n]_k s^(n+k) q^(n-k)
            ("gamma-b-gf", secant_derivative_poly(n), n,
             row_b * ring.modulus_power(n)),
        )
        for name, dpoly, shift, lhs in cases:
            acc = ring.zero()
            for k, c in enumerate(dpoly.coeffs):
                if c:
                    # s^(shift+k) q^(shift-k) = s^(3 shift - k), as s^2 = q
                    acc = acc + ring.root_power(3 * shift - k) * c
            if not acc.is_real:
                report.add(Check(name, n, False, "odd power of the adjoined root survived"))
                continue
            ok = acc.a == lhs
            report.add(Check(name, n, ok, "" if ok else f"got {acc.a}, want {lhs}"))
    return report


def check_imaginary_assoc_forms(n_max: int) -> Report:
    """Weighted derivative iterates against Legendre/Narayana-type values at
    an imaginary argument.

    Under the double-angle rules, (fD)^n(f) equals n! f^(n+1) (-i)^n L_n(i h)
    and (fD)^n(g) equals 2 (n+1)! f^(n+2) (-i)^(n-1) N_n(i h), with i adjoined
    as the root of -1 over the letter h.  Both right-hand sides must come out
    with zero imaginary component.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    grammar = parse_grammar(DOUBLE_ANGLE_RULES)
    f, g = MultiPoly.variables(grammar.letters)
    op = DerivOp.post_mul("f")
    iterates = zip(operator_iterates(grammar, op, f, n_max),
                   operator_iterates(grammar, op, g, n_max))
    next(iterates)  # n = 0 is not checked
    h = MultiPoly.variable(("h",), "h")
    two_h = 2 * h
    one_plus_h2 = h * h + 1
    unit_sq = UniPoly("h", (1, 0, 1))
    ring = QuadraticRing(UniPoly("h", (-1,)))
    i_times_h = ring.of(UniPoly("h"), UniPoly.variable("h"))
    minus_i = -ring.root()
    report = Report("cor33")
    for n, (fd_f, fd_g) in enumerate(iterates, start=1):
        cases = (
            ("(fD)^n(f)", fd_f, legendre_like(n, "h"), factorial(n), n, n + 1),
            ("(fD)^n(g)", fd_g, narayana_like(n, "h"), 2 * factorial(n + 1), n - 1, n + 2),
        )
        for name, value, witness, scale, unit_power, f_power in cases:
            substituted = value.substitute("g", two_h)
            parity, reduced = substituted.substitute_square_with_parity("f", one_plus_h2)
            if parity != f_power % 2:
                report.add(Check(name, n, False, f"parity {parity}, expected {f_power % 2}"))
                continue
            got = UniPoly.from_multipoly(reduced, "h")
            rhs = (minus_i ** unit_power) * ring.eval_poly(witness, i_times_h)
            rhs = rhs * (unit_sq ** ((f_power - parity) // 2) * scale)
            if not rhs.is_real:
                report.add(Check(name, n, False, "imaginary component survived"))
                continue
            ok = rhs.a == got
            report.add(Check(name, n, ok, "" if ok else f"got {got}, want {rhs.a}"))
    return report


def _specialize_uv(p: MultiPoly, ring: QuadraticRing) -> ExtPoly:
    # u -> s, v -> x over s^2 = x^2 - 1
    # The x coefficients are grouped by u-exponent first, so each distinct
    # power of s costs one product and one add.
    iu = p.letters.index("u")
    iv = p.letters.index("v")
    by_u: dict[int, dict[int, int]] = {}
    for exps, c in p.terms.items():
        by_u.setdefault(exps[iu], {})[exps[iv]] = c
    acc = ring.zero()
    for e, x_terms in by_u.items():
        coeffs = [0] * (max(x_terms) + 1)
        for j, c in x_terms.items():
            coeffs[j] = c
        acc = acc + ring.root_power(e) * UniPoly._raw(ring.var, tuple(coeffs))
    return acc


def check_chebyshev_specialization(n_max: int) -> Report:
    """Derivative iterates of the cubic-rule grammar under u -> s, v -> x with
    s^2 = x^2 - 1, against n! s^(n+1) T_(n+1)(x) and n! s^(n+2) U_n(x).

    Half-integer powers of x^2 - 1 are exactly the odd powers of s, so the
    comparison is plain equality of reduced ring elements.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    grammar = parse_grammar("u -> u^2*v; v -> u^3")
    u, v = MultiPoly.variables(grammar.letters)
    d = DerivOp.plain()
    iterates = zip(operator_iterates(grammar, d, u * v, n_max),
                   operator_iterates(grammar, d, u * u, n_max))
    ring = QuadraticRing(UniPoly("x", (-1, 0, 1)))
    report = Report("thm42")
    for n, (d_uv, d_u2) in enumerate(iterates):
        fact = factorial(n)
        cases = (
            ("uv-specialized", d_uv, chebyshev_t(n + 1), n + 1),
            ("u^2-specialized", d_u2, chebyshev_u(n), n + 2),
        )
        for name, value, cheb, s_power in cases:
            got = _specialize_uv(value, ring)
            want = ring.root_power(s_power) * (cheb * fact)
            ok = got == want
            report.add(Check(name, n, ok,
                             "" if ok else f"got {got}, want {want}"))
    return report
