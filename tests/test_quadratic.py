import random

import pytest

from polygram import classical, verify
from polygram.quadratic import ExtPoly, QuadraticRing
from polygram.unipoly import UniPoly
from polygram.verify import run_target

_SPECIALIZED = ("uv-specialized", "u^2-specialized")


def product(x, y, q):
    """(a1 + b1 s)(a2 + b2 s) = (a1 a2 + b1 b2 q) + (a1 b2 + a2 b1) s, on UniPoly pairs."""
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + b1 * b2 * q, a1 * b2 + a2 * b1


def term_sum(q, terms):
    """The pair (a, b) of sum c * s^e * x^b over (e, b, c), each s^e taken as e
    products by s: the reference for ``collect_line``."""
    zero, one = UniPoly(q.var), UniPoly(q.var, (1,))
    x = UniPoly.variable(q.var)
    a = b = zero
    for e, k, c in terms:
        term = (c * x ** k, zero)
        for _ in range(e):
            term = product(term, (zero, one), q)
        a, b = a + term[0], b + term[1]
    return a, b


def test_defining_relation():
    x = UniPoly.variable("x")
    ring = QuadraticRing(x * x - 1)
    assert ring.collect_line([1], 2, 0) == ring.of(x * x - 1)
    assert ring.collect_line([1], 1, 0) == ring.of(0, 1)


_X = UniPoly.variable("x")


@pytest.mark.parametrize("cls, fields, others", [
    (ExtPoly, (_X, 2 * _X, 4 * _X - 1),
     [(_X + 1, 2 * _X, 4 * _X - 1), (_X, 2 * _X + 1, 4 * _X - 1), (_X, 2 * _X, 4 * _X)]),
], ids=["ExtPoly"])
def test_equal_fields_give_equal_values(cls, fields, others):
    a, b = cls(*fields), cls(*(UniPoly(f.var, f.coeffs) for f in fields))
    assert a == b and hash(a) == hash(b)
    for other in others:
        assert a != cls(*other)


def test_components_must_share_one_letter():
    x, y = UniPoly.variable("x"), UniPoly.variable("y")
    with pytest.raises(ValueError, match="components and modulus must share one letter"):
        ExtPoly(x, y, 4 * x - 1)
    with pytest.raises(ValueError, match="components and modulus must share one letter"):
        ExtPoly(x, x, 4 * y - 1)


def test_conjugate_product_collapses():
    # (x + s)(x - s) = x^2 - xs + sx - s^2 = x^2 - (x^2 - 1); the cross
    # terms cancel before the ring sees them, leaving the line [1, -1].
    x = UniPoly.variable("x")
    ring = QuadraticRing(x**2 - 1)
    assert ring.collect_line([1, -1], 0, 2) == ring.of(1)


def test_extpoly_has_no_arithmetic():
    # A value enters the ring only through collect_line or of; nothing
    # multiplies or adds one.
    x = UniPoly.variable("x")
    ring = QuadraticRing(x**2 - 1)
    e = ring.of(x + 2, 3 * x)
    for op in (lambda: e * x, lambda: x * e, lambda: e * 2, lambda: 2 * e,
               lambda: e * e, lambda: e + e):
        with pytest.raises(TypeError):
            op()


def test_root_power_reduction():
    x = UniPoly.variable("x")
    q = x * x + 1
    ring = QuadraticRing(q)
    assert ring.collect_line([1], 4, 0) == ring.of(q * q)
    assert ring.collect_line([1], 5, 0) == ring.of(UniPoly("x"), q * q)


def test_of_lifts_ints_and_still_refuses_bools():
    ring = QuadraticRing(UniPoly("x", (-1, 0, 1)))
    e = ring.of(3, 0)
    assert e.a.coeffs == (3,) and e.b.coeffs == ()
    assert ring.of(-2) == ring.of(UniPoly("x", (-2,)))
    with pytest.raises(TypeError):
        ring.of(True)


@pytest.mark.parametrize("max_e", [1, 9])
@pytest.mark.parametrize("var, modulus", [("h", (1, 0, 1)), ("x", (-1, 0, 1))])
def test_collect_line_reads_one_term_as_a_term_by_term_sum(var, modulus, max_e):
    # max_e = 1 never reduces by s^2 = q; max_e = 9 reaches q^4.  Each term
    # is a line of one, c * s^e * x^b; a line of several is summed below.
    rng = random.Random(f"collect-{var}-{modulus}-{max_e}")
    ring = QuadraticRing(UniPoly(var, modulus))
    power = [1]  # q^j by a double loop over plain lists
    for j in range(max_e // 2 + 1):
        assert ring.collect_line([1], 2 * j, 0) == ring.of(UniPoly(var, power))
        following = [0] * (len(power) + len(modulus) - 1)
        for i, a in enumerate(power):
            for k, c in enumerate(modulus):
                following[i + k] += a * c
        power = following
    for trial in range(60):
        e, b, c = rng.randint(0, max_e), rng.randint(0, 4), rng.randint(-3, 3) or 1
        assert ring.collect_line([c], e, b) == ring.of(*term_sum(ring.modulus, [(e, b, c)]))


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("modulus", [(1, 0, 1), (-1, 0, 1)], ids=["x^2+1", "x^2-1"])
def test_collect_line_matches_a_term_by_term_sum(modulus, scale):
    # Horner in q along a line equals the term sum of the same terms
    # c_k s^(e+2k) (scale*x)^(top-2k): K = 0..12 coefficients with zero and
    # negative entries anywhere, e = 0..3 (q^(e//2) times an odd or even part),
    # and a lowest x power of 0..3.
    rng = random.Random(f"line-{modulus}-{scale}")
    ring = QuadraticRing(UniPoly("x", modulus))
    for size in range(13):
        for e in range(4):
            for _ in range(8):
                coeffs = [rng.choice((0, -1, 1, rng.randint(-10 ** 12, 10 ** 12)))
                          for _ in range(size)]
                top = max(2 * size - 2, 0) + rng.randint(0, 3)
                terms = [(e + 2 * k, top - 2 * k, c * scale ** (top - 2 * k))
                         for k, c in enumerate(coeffs)]
                assert ring.collect_line(coeffs, e, top, scale) == ring.of(
                    *term_sum(ring.modulus, terms)), (coeffs, e, top)
    # no terms, so no power to refuse
    assert ring.collect_line([], -3, -9, scale) == ring.of(0)


@pytest.mark.parametrize("modulus, args", [
    ((-1, 4), ([1], 0, 0)),
    ((-1,), ([1], 0, 0)),
    ((1, 0, 2), ([1], 0, 0)),
    ((1, 0, 1), ([1], 0, 0, 3)),
    ((1, 0, 1), ([1], 0, 0, 0)),
    ((1, 0, 1), ([1], -1, 0)),
    ((1, 0, 1), ([1, 2], 0, 1)),
], ids=["4x-1", "-1", "2x^2+1", "scale-3", "scale-0", "s^-1", "x^-1"])
def test_collect_line_refuses_what_it_cannot_add_up(modulus, args):
    # Only x^2 +/- 1 deflates to y +/- 1, only a power of two is a shift, and
    # a negative power would be read off the wrong slots.
    with pytest.raises(ValueError, match="collect_line got"):
        QuadraticRing(UniPoly("x", modulus)).collect_line(*args)


def test_sqrt_gamma_forms():
    report = run_target("thm31", 12)
    assert report.ok
    assert {c.name for c in report.checks} == {"gamma-a-gf", "gamma-b-gf"}


def test_imaginary_assoc_forms():
    report = run_target("cor33", 10)
    assert report.ok
    assert len(report.checks) == 20


def test_chebyshev_specialization():
    report = run_target("thm42", 12)
    assert report.ok
    checks = [c for c in report.checks if c.name in _SPECIALIZED]
    assert len(checks) == 26
    anchors = [c for c in checks if c.n == 0]
    assert len(anchors) == 2 and all(c.ok for c in anchors)


def test_root_power_in_any_order_matches_direct_powers():
    x = UniPoly.variable("x")
    q = x * x - 1
    ring = QuadraticRing(q)
    order = list(range(41))
    random.Random(7).shuffle(order)
    for k in order:
        q_pow = q ** (k // 2)
        want = ring.of(UniPoly("x"), q_pow) if k % 2 else ring.of(q_pow, 0)
        assert ring.collect_line([1], k, 0) == want == ring.of(*term_sum(q, [(k, 0, 1)]))
        assert ring.collect_line([1], 2 * k, 0) == ring.of(q ** k)
    with pytest.raises(ValueError):
        ring.collect_line([1], -2, 0)


@pytest.mark.parametrize("bits", [0, 1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_affine_matches_a_naive_expansion(sign, bits):
    # p(sign + 2^bits t) as sum_k c_k (sign + 2^bits t)^k, one UniPoly power per
    # term; zeros anywhere, a trailing zero included, and the empty list.
    rng = random.Random(f"affine-{sign}-{bits}")
    step = UniPoly("t", (sign, 1 << bits))
    for size in [0] * 3 + list(range(1, 16)) * 4:
        asc = [rng.choice((0, 1, -1, rng.randint(-10 ** 9, 10 ** 9))) for _ in range(size)]
        kept = list(asc)
        got = classical._affine(asc, sign, bits)
        want = UniPoly("t")
        for k, c in enumerate(asc):
            want = want + c * step ** k
        assert len(got) == size and asc == kept
        assert UniPoly("t", got) == want, (asc, sign, bits)


def test_thm31_got_side_matches_a_term_by_term_sum():
    # Both parts of sum_k c_k s^(shift-k) over s^2 = 4x - 1, for P_n and Q_n
    # with n <= 40 and for each with its parity broken (an odd part appears).
    q = 4 * _X - 1
    for n in range(1, 41):
        for dpoly, shift in ((classical.tangent_derivative_poly(n), n + 1),
                             (classical.secant_derivative_poly(n), n)):
            for coeffs in (dpoly.coeffs, dpoly.coeffs[:-2] + (dpoly.coeffs[-2] + 1,) + (1,)):
                terms = [(shift - k, 0, c) for k, c in enumerate(coeffs)]
                assert verify._at_root(coeffs, shift) == term_sum(q, terms), (n, shift)
            assert verify._at_root(dpoly.coeffs, shift)[1].is_zero


def _bump_one_coefficient(real, bad_n, slot=-1):
    def patched(n, *args):
        p = real(n, *args)
        if n != bad_n:
            return p
        coeffs = list(p.coeffs)
        coeffs[slot] += 1
        return UniPoly(p.var, coeffs)
    return patched


@pytest.mark.parametrize("name", ["tangent_derivative_poly", "secant_derivative_poly"])
@pytest.mark.parametrize("slot, detail", [(-1, "got "), (-2, "odd power of the adjoined root")])
def test_sqrt_gamma_forms_catch_a_wrong_coefficient(monkeypatch, name, slot, detail):
    # slot -2 breaks the parity of P_n / Q_n, so an odd power of s survives
    monkeypatch.setattr(classical, name,
                        _bump_one_coefficient(getattr(classical, name), 5, slot))
    report = run_target("thm31", 8)
    assert not report.ok
    [bad] = [c for c in report.checks if not c.ok]
    assert bad.n == 5 and bad.detail.startswith(detail)


@pytest.mark.parametrize("name", ["chebyshev_t", "chebyshev_u"])
def test_chebyshev_specialization_catches_a_wrong_coefficient(monkeypatch, name):
    # chebyshev_t is asked for T_(n+1), chebyshev_u for U_n
    bad_n = 6
    shift = 1 if name == "chebyshev_t" else 0
    monkeypatch.setattr(classical, name,
                        _bump_one_coefficient(getattr(classical, name), bad_n + shift))
    report = run_target("thm42", 9)
    assert not report.ok
    assert {(c.name in _SPECIALIZED, c.n) for c in report.checks if not c.ok} == {(True, bad_n)}


@pytest.mark.parametrize("name", ["legendre_like", "narayana_like"])
@pytest.mark.parametrize("slot, detail", [(-1, "got "), (-2, "imaginary component survived")])
def test_imaginary_assoc_forms_catch_a_wrong_coefficient(monkeypatch, name, slot, detail):
    # slot -2 breaks the parity of L_n / N_n, so the value at i*h is not real
    monkeypatch.setattr(classical, name,
                        _bump_one_coefficient(getattr(classical, name), 4, slot))
    report = run_target("cor33", 7)
    [bad] = [c for c in report.checks if not c.ok]
    assert bad.n == 4 and bad.detail.startswith(detail)


@pytest.mark.parametrize("name", ["tangent_derivative_poly", "secant_derivative_poly"])
def test_scaled_tan_sec_catches_a_wrong_coefficient(monkeypatch, name):
    monkeypatch.setattr(classical, name,
                        _bump_one_coefficient(getattr(classical, name), 5))
    report = run_target("prop12", 8)
    assert {c.n for c in report.checks if not c.ok} == {5}
