import math
import random

import pytest

from conftest import CASES
from polygram import triangles as tri
from polygram.gamma import (GammaVector, HPoly, associahedron_h, coxeter_h,
                            gamma_to_h, h_to_gamma)
from polygram.oracles import descent_distribution


def test_gamma_to_h_examples():
    assert gamma_to_h(GammaVector((1, 8), 3)).coeffs == (1, 11, 11, 1)
    assert gamma_to_h(GammaVector((1,), 0)).coeffs == (1,)
    assert gamma_to_h(GammaVector((1, 4), 2)).coeffs == (1, 6, 1)


def test_h_to_gamma_examples():
    assert h_to_gamma(HPoly((1, 11, 11, 1))).gammas == (1, 8)
    assert h_to_gamma(HPoly((1, 6, 1))).gammas == (1, 4)


def test_h_to_gamma_rejects_non_palindromic():
    with pytest.raises(ValueError, match="not palindromic"):
        h_to_gamma(HPoly((1, 2)))


def test_gamma_vector_length_validation():
    with pytest.raises(ValueError, match="need 1 entries for d=1, got 2"):
        GammaVector((1, 2), 1)
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        GammaVector((1,), -1)


def test_h_polynomial_needs_h0():
    with pytest.raises(ValueError, match="an h-polynomial needs at least h_0"):
        HPoly(())


@pytest.mark.parametrize("cls, fields, others", [
    (HPoly, ((1, 2, 1),), [((1, 2, 1, 0),), ((1, 3, 1),)]),
    (GammaVector, ((1, 2), 3), [((1, 3), 3), ((1, 2), 2)]),
], ids=["HPoly", "GammaVector"])
def test_equal_fields_give_equal_values(cls, fields, others):
    a, b = cls(*fields), cls(*(list(f) if isinstance(f, tuple) else f for f in fields))
    assert a == b and hash(a) == hash(b)
    for other in others:
        assert a != cls(*other)


def test_family_h_polynomials():
    assert coxeter_h("A", 4).coeffs == (1, 11, 11, 1)
    assert coxeter_h("A", 4).coeffs == descent_distribution(4)
    assert coxeter_h("B", 2).coeffs == (1, 6, 1)
    assert associahedron_h("A", 2).coeffs == (1, 1)
    assert associahedron_h("B", 4).coeffs == (1, 16, 36, 16, 1)
    with pytest.raises(ValueError):
        coxeter_h("C", 3)
    with pytest.raises(ValueError):
        associahedron_h("A", 0)


def test_structural_degree_with_trailing_zeros():
    # d comes from the declared length, not the honest degree
    h = gamma_to_h(GammaVector((0, 1), 2))
    assert h.coeffs == (0, 1, 0) and h.d == 2
    assert h_to_gamma(h) == GammaVector((0, 1), 2)


def test_roundtrip_and_palindromicity_random():
    rng = random.Random(1234)
    for _ in range(CASES):
        d = rng.randint(0, 20)
        gammas = tuple(rng.randint(-9, 9) for _ in range(d // 2 + 1))
        gv = GammaVector(gammas, d)
        h = gamma_to_h(gv)
        assert h.is_palindromic()
        assert h_to_gamma(h) == gv


def test_gamma_rows_expand_to_family_h_rows():
    for n in range(1, 13):
        assert gamma_to_h(GammaVector(tuple(tri.GAMMA_A.row(n)), n - 1)) == coxeter_h("A", n)
        assert gamma_to_h(GammaVector(tuple(tri.GAMMA_B.row(n)), n)) == coxeter_h("B", n)
        assert gamma_to_h(GammaVector(tuple(tri.ASSOC_GAMMA_A.row(n)), n - 1)) \
            == associahedron_h("A", n)
        assert gamma_to_h(GammaVector(tuple(tri.ASSOC_GAMMA_B.row(n)), n)) \
            == associahedron_h("B", n)


def _comb_gamma_to_h(gammas, d):
    coeffs = [0] * (d + 1)
    for i, gi in enumerate(gammas):
        for j in range(d - 2 * i + 1):
            coeffs[i + j] += gi * math.comb(d - 2 * i, j)
    return tuple(coeffs)


def test_expansion_matches_a_math_comb_reference():
    rng = random.Random(60)
    for d in range(61):
        for _ in range(3):
            gammas = tuple(rng.choice((0, 1, -1, rng.randint(-10**9, 10**9)))
                           for _ in range(d // 2 + 1))
            gv = GammaVector(gammas, d)
            h = gamma_to_h(gv)
            assert h.coeffs == _comb_gamma_to_h(gammas, d)
            assert h_to_gamma(h) == gv
