import random

import pytest

from polygram import triangles as tri


def test_gamma_a_values():
    assert tri.gamma_a(3, 1) == 2
    assert tri.gamma_a(4, 1) == 8
    assert tri.gamma_a(4, 2) == 0
    assert tri.GAMMA_A.row(1) == [1]
    assert tri.GAMMA_A.row(2) == [1]
    with pytest.raises(ValueError):
        tri.gamma_a(0, 0)


def test_gamma_b_values():
    assert tri.gamma_b(2, 1) == 4
    assert tri.gamma_b(3, 0) == 1 and tri.gamma_b(3, 1) == 20
    assert tri.gamma_b(4, 1) == 72 and tri.gamma_b(4, 2) == 80
    with pytest.raises(ValueError):
        tri.gamma_b(0, 0)


def test_eulerian_a_values():
    assert tri.EULERIAN_A.row(4) == [1, 11, 11, 1]
    assert tri.eulerian_a(5, 2) == 66
    assert all(tri.eulerian_a(n, 0) == 1 for n in range(1, 10))
    assert tri.eulerian_a(4, 9) == 0


def test_eulerian_b_values():
    assert tri.EULERIAN_B.row(2) == [1, 6, 1]
    assert sum(tri.EULERIAN_B.row(3)) == 48
    assert all(tri.eulerian_b(n, 0) == 1 for n in range(1, 8))


def test_narayana_and_squared_binomials():
    assert tri.narayana_h_a(4, 1) == 6
    assert tri.ASSOC_H_A.row(2) == [1, 1]
    assert tri.ASSOC_H_B.row(4) == [1, 16, 36, 16, 1]


def test_assoc_gamma_values():
    assert tri.assoc_gamma_b(4, 1) == 12 and tri.assoc_gamma_b(4, 2) == 6
    assert tri.assoc_gamma_a(3, 1) == 1
    assert tri.motzkin_left_h(1, 0) == 1 and tri.motzkin_left_h(1, 1) == 1
    assert tri.MOTZKIN_T.row(0) == [1]


def test_cube_face_counts():
    # the square: 4 vertices, 4 edges, 1 cell
    assert tri.CUBE_F.row(2) == [4, 4, 1]


def test_recurrences_match_closed_forms():
    for n in range(1, 13):
        for k in range(n + 2):
            assert tri.assoc_gamma_a(n, k) == tri.assoc_gamma_a_by_recurrence(n, k)
            assert tri.assoc_gamma_b(n, k) == tri.assoc_gamma_b_by_recurrence(n, k)


def test_left_factor_triangle_recurrence():
    # (n+1) T(n,k) = (2n+1-k) T(n-1,k-1) + 2 T(n-1,k) + 4(k+1) T(n-1,k+1)
    T = tri.motzkin_left_h
    for n in range(1, 21):
        for k in range(n + 1):
            lhs = (n + 1) * T(n, k)
            rhs = (2 * n + 1 - k) * T(n - 1, k - 1) + 2 * T(n - 1, k) \
                + 4 * (k + 1) * T(n - 1, k + 1)
            assert lhs == rhs


def test_row_sums():
    for n in range(1, 11):
        assert sum(tri.EULERIAN_A.row(n)) == tri.factorial(n)
        assert sum(tri.EULERIAN_B.row(n)) == 2 ** n * tri.factorial(n)
        assert sum(tri.ASSOC_H_A.row(n)) == tri.catalan(n)
        assert sum(tri.ASSOC_H_B.row(n)) == tri.binomial(2 * n, n)


def test_symmetries():
    for n in range(1, 11):
        row = tri.EULERIAN_A.row(n)
        assert row == row[::-1]
        row = tri.ASSOC_H_A.row(n)
        assert row == row[::-1]
        row = tri.ASSOC_H_B.row(n)
        assert row == row[::-1]


def test_lookup_and_oeis_aliases():
    assert tri.lookup_triangle("A101280") is tri.GAMMA_A
    assert tri.lookup_triangle("A008292") is tri.EULERIAN_A
    assert tri.lookup_triangle("A060187") is tri.EULERIAN_B
    assert tri.lookup_triangle("A055151") is tri.ASSOC_GAMMA_A
    assert tri.lookup_triangle("A089627") is tri.ASSOC_GAMMA_B
    assert tri.lookup_triangle("A107230") is tri.MOTZKIN_T
    assert tri.lookup_triangle("A038207") is tri.CUBE_F
    assert tri.lookup_triangle("gamma-b") is tri.GAMMA_B
    with pytest.raises(ValueError):
        tri.lookup_triangle("nope")


def test_bfile_export():
    lines = tri.bfile_lines(tri.GAMMA_B, 3)
    assert lines[0].startswith("#") and "offset 1" in lines[0]
    assert lines[1:] == ["1 1", "2 1", "3 4", "4 1", "5 20"]


def test_json_export():
    data = tri.triangle_json_dict(tri.GAMMA_A, 4)
    assert data["offset"] == 1 and data["oeis"] == "A101280"
    assert data["rows"] == [["1"], ["1"], ["1", "2"], ["1", "8"]]


def test_rows_far_past_the_recursion_limit():
    assert sum(tri.EULERIAN_A.row(1200)) == tri.factorial(1200)


def test_rows_do_not_depend_on_call_order():
    names = ("gamma-a", "gamma-b", "eulerian-a", "eulerian-b")
    in_order = {name: [tri.TRIANGLES[name].row(n) for n in range(1, 41)] for name in names}
    order = list(range(1, 41))
    random.Random(7).shuffle(order)
    for n in order:
        for name in names:
            assert tri.TRIANGLES[name].row(n) == in_order[name][n - 1]
            assert tri.lookup_triangle(name).row(n) == in_order[name][n - 1]
    for n in reversed(range(1, 41)):
        assert tri.assoc_gamma_b_by_recurrence(n, n // 2) == tri.assoc_gamma_b(n, n // 2)


# The six recurrence triangles, restated: value -> (first row, row length,
# keep, shift, lead) for t(n,k) = (keep t(n-1,k) + shift t(n-1,k-1)) / lead.
RECURRENCES = {
    tri.gamma_a: ((1,), lambda n: (n - 1) // 2 + 1,
                  lambda n, k: k + 1, lambda n, k: 2 * n - 4 * k, lambda n: 1),
    tri.gamma_b: ((1,), lambda n: n // 2 + 1,
                  lambda n, k: 2 * k + 1, lambda n, k: 4 * (n + 1 - 2 * k), lambda n: 1),
    tri.eulerian_a: ((1,), lambda n: n,
                     lambda n, k: k + 1, lambda n, k: n - k, lambda n: 1),
    tri.eulerian_b: ((1, 1), lambda n: n + 1,
                     lambda n, k: 2 * k + 1, lambda n, k: 2 * (n - k) + 1, lambda n: 1),
    tri.assoc_gamma_a_by_recurrence: (
        (1,), lambda n: (n - 1) // 2 + 1,
        lambda n, k: n + 2 * k + 1, lambda n, k: 4 * (n - 2 * k), lambda n: n + 1),
    tri.assoc_gamma_b_by_recurrence: (
        (1,), lambda n: n // 2 + 1,
        lambda n, k: n + 2 * k, lambda n, k: 4 * (n - 2 * k + 1), lambda n: n),
}


def _naive_rows(first, row_len, keep, shift, lead, n_max):
    rows = [list(first)]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        row = []
        for k in range(row_len(n)):
            val = 0
            if k < len(prev):
                val += keep(n, k) * prev[k]
            if 1 <= k <= len(prev):
                val += shift(n, k) * prev[k - 1]
            quotient, remainder = divmod(val, lead(n))
            assert remainder == 0
            row.append(quotient)
        rows.append(row)
    return rows


@pytest.mark.parametrize("value", list(RECURRENCES), ids=lambda f: f.__name__)
def test_recurrence_rows_match_a_per_k_reference(value):
    row_len = RECURRENCES[value][1]
    for n, want in enumerate(_naive_rows(*RECURRENCES[value], 60), start=1):
        assert len(want) == row_len(n)
        assert [value(n, k) for k in range(-1, len(want) + 1)] == [0, *want, 0]


def test_wrong_lead_raises_naming_n_and_k():
    # Eulerian numbers divided by n + 1: row 2 is (1, 1) before the division.
    rows = tri._triangle_rows("eulerian-a-wrong-lead", (1,), lambda n: n,
                              lambda n, k: k + 1, lambda n, k: n - k, lead=lambda n: n + 1)
    assert rows(1) == (1,)
    with pytest.raises(ArithmeticError, match=r"n=2, k=0"):
        rows(2)
