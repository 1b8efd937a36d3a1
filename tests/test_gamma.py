import functools
import math
import random

import pytest

from conftest import CASES
from polygram import gamma
from polygram import triangles as tri
from polygram.gamma import FAMILIES, gamma_to_h, h_to_gamma
from polygram.oracles import descent_distribution


def _h_row(family, n):
    return tuple(FAMILIES[family][0].row(n))


def test_gamma_to_h_examples():
    assert gamma_to_h((1, 8), 3) == (1, 11, 11, 1)
    assert gamma_to_h((1,), 0) == (1,)
    assert gamma_to_h((1, 4), 2) == (1, 6, 1)


def test_h_to_gamma_examples():
    assert h_to_gamma((1, 11, 11, 1)) == (1, 8)
    assert h_to_gamma((1, 6, 1)) == (1, 4)


def test_h_to_gamma_rejects_non_palindromic():
    with pytest.raises(ValueError, match="not palindromic"):
        h_to_gamma((1, 2))


def test_gamma_vector_length_validation():
    with pytest.raises(ValueError, match="need 1 entries for d=1, got 2"):
        gamma_to_h((1, 2), 1)
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        gamma_to_h((1,), -1)


def test_h_polynomial_needs_h0():
    with pytest.raises(ValueError, match="an h-polynomial needs at least h_0"):
        h_to_gamma(())


def test_family_h_polynomials():
    assert _h_row("coxeter-a", 4) == (1, 11, 11, 1)
    assert _h_row("coxeter-a", 4) == descent_distribution(4)
    assert _h_row("coxeter-b", 2) == (1, 6, 1)
    assert _h_row("assoc-a", 2) == (1, 1)
    assert _h_row("assoc-b", 4) == (1, 16, 36, 16, 1)
    with pytest.raises(ValueError):
        _h_row("assoc-a", 0)


def test_structural_degree_with_trailing_zeros():
    # d comes from the declared length, not the honest degree
    h = gamma_to_h((0, 1), 2)
    assert h == (0, 1, 0) and len(h) - 1 == 2
    assert h_to_gamma(h) == (0, 1)


def test_roundtrip_and_palindromicity_random():
    rng = random.Random(1234)
    for _ in range(CASES):
        d = rng.randint(0, 20)
        gammas = tuple(rng.randint(-9, 9) for _ in range(d // 2 + 1))
        h = gamma_to_h(gammas, d)
        assert h == h[::-1]
        assert h_to_gamma(h) == gammas


def test_gamma_rows_expand_to_family_h_rows():
    for n in range(1, 13):
        assert gamma_to_h(tuple(tri.GAMMA_A.row(n)), n - 1) == tuple(tri.EULERIAN_A.row(n))
        assert gamma_to_h(tuple(tri.GAMMA_B.row(n)), n) == tuple(tri.EULERIAN_B.row(n))
        assert gamma_to_h(tuple(tri.ASSOC_GAMMA_A.row(n)), n - 1) \
            == tuple(tri.ASSOC_H_A.row(n))
        assert gamma_to_h(tuple(tri.ASSOC_GAMMA_B.row(n)), n) \
            == tuple(tri.ASSOC_H_B.row(n))


# The binomial-row expansion and peel that the addition-only kernel replaced,
# kept as a reference: gamma_i x^i (1+x)^(d-2i) added or taken away one
# binomial row at a time.  ``top`` stops the expansion at x^top.
@functools.lru_cache(maxsize=None)
def _comb_row(m):
    return tuple(math.comb(m, j) for j in range(m + 1))


def _comb_gamma_to_h(gammas, d, top=None):
    top = d if top is None else top
    coeffs = [0] * (top + 1)
    for i, gi in enumerate(gammas):
        for j, c in enumerate(_comb_row(d - 2 * i)[:top + 1 - i], start=i):
            coeffs[j] += gi * c
    return tuple(coeffs)


def _comb_peel(coeffs):
    d = len(coeffs) - 1
    residual = list(coeffs)
    gammas = []
    for i in range(d // 2 + 1):
        gi = residual[i]
        gammas.append(gi)
        for j, c in enumerate(_comb_row(d - 2 * i), start=i):
            residual[j] -= gi * c
    assert not any(residual)
    return tuple(gammas)


def test_expansion_matches_a_math_comb_reference():
    # Both parities, zeros, signs and 200-digit entries.
    rng = random.Random(60)
    big = 10 ** 200
    for d in range(61):
        for _ in range(3):
            gammas = tuple(rng.choice((0, 1, -1, rng.randint(-10**9, 10**9),
                                       rng.randint(-big, big)))
                           for _ in range(d // 2 + 1))
            h = gamma_to_h(gammas, d)
            assert h == _comb_gamma_to_h(gammas, d)
            assert h_to_gamma(h) == gammas
            assert _comb_peel(h) == gammas


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_matches_the_binomial_rows_on_every_family_row(family):
    h_triangle, triangle = FAMILIES[family]
    for n in range(1, 301):
        h = tuple(h_triangle.row(n))
        d = len(h) - 1
        gv = tuple(triangle.row(n))
        assert gamma_to_h(gv, d) == h, n
        assert h_to_gamma(h) == gv, n
        # Only the lower half of the reference: the kernel's output is the
        # full family row above, and that row is palindromic.
        m = d // 2
        assert _comb_gamma_to_h(gv, d, m) == h[:m + 1], n


@pytest.mark.parametrize("coeffs, calls", [
    ((1, 11, 11, 1), 1),         # odd d: the (1+x) remainder, on the first division
    ((7, 7), 1),
    ((2, 9, 14, 9, 2), None),    # even d: the check h(1) = sum_i gamma_i 2^(d-2i)
    ((1, 6, 1), None),
], ids=["d3", "d1", "d4", "d2"])
def test_a_wrong_division_reaches_the_residual_check(monkeypatch, coeffs, calls):
    real = gamma._over_one_plus_x
    seen = []

    def off_by_one(a):
        seen.append(a)
        out = real(a)
        if out:
            out[-1] += 1
        return out

    monkeypatch.setattr(gamma, "_over_one_plus_x", off_by_one)
    with pytest.raises(AssertionError, match="palindromic peel left a nonzero residual"):
        h_to_gamma(coeffs)
    if calls is not None:
        assert len(seen) == calls


@pytest.mark.parametrize("make", [
    lambda: h_to_gamma((1.5, 1.5)),
    lambda: h_to_gamma((1, True, 1)),
    lambda: h_to_gamma((1, 2.0, 1)),
    lambda: gamma_to_h((1, 2.0), 2),
    lambda: gamma_to_h((False,), 0),
    lambda: gamma_to_h((1,), 0.0),
    lambda: gamma_to_h((1, 2), 2.0),
    lambda: gamma_to_h((1,), True),
    # the type checks come first, before the degree and length checks
    lambda: gamma_to_h((1.5, 2, 3), -1),
    lambda: h_to_gamma((1, 2.5)),
], ids=["h-float", "h-bool", "h-float-middle", "gamma-float", "gamma-bool", "d-float",
        "d-float-long", "d-bool", "gamma-float-before-d", "h-float-before-palindrome"])
def test_non_int_entries_are_refused(make):
    with pytest.raises(TypeError, match="must be an int"):
        make()
