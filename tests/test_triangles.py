import json
import math
import random

import pytest

from polygram import triangles as tri


def test_gamma_a_values():
    assert tri.GAMMA_A.value(3, 1) == 2
    assert tri.GAMMA_A.value(4, 1) == 8
    assert tri.GAMMA_A.value(4, 2) == 0
    assert tri.GAMMA_A.row(1) == [1]
    assert tri.GAMMA_A.row(2) == [1]
    with pytest.raises(ValueError):
        tri.GAMMA_A.value(0, 0)


def test_gamma_b_values():
    assert tri.GAMMA_B.value(2, 1) == 4
    assert tri.GAMMA_B.value(3, 0) == 1 and tri.GAMMA_B.value(3, 1) == 20
    assert tri.GAMMA_B.value(4, 1) == 72 and tri.GAMMA_B.value(4, 2) == 80
    with pytest.raises(ValueError):
        tri.GAMMA_B.value(0, 0)


def test_eulerian_a_values():
    assert tri.EULERIAN_A.row(4) == [1, 11, 11, 1]
    assert tri.EULERIAN_A.value(5, 2) == 66
    assert all(tri.EULERIAN_A.value(n, 0) == 1 for n in range(1, 10))
    assert tri.EULERIAN_A.value(4, 9) == 0


def test_eulerian_b_values():
    assert tri.EULERIAN_B.row(2) == [1, 6, 1]
    assert sum(tri.EULERIAN_B.row(3)) == 48
    assert all(tri.EULERIAN_B.value(n, 0) == 1 for n in range(1, 8))


def test_narayana_and_squared_binomials():
    assert tri.ASSOC_H_A.value(4, 1) == 6
    assert tri.ASSOC_H_A.row(2) == [1, 1]
    assert tri.ASSOC_H_B.row(4) == [1, 16, 36, 16, 1]


def test_assoc_gamma_values():
    assert tri.ASSOC_GAMMA_B.value(4, 1) == 12 and tri.ASSOC_GAMMA_B.value(4, 2) == 6
    assert tri.ASSOC_GAMMA_A.value(3, 1) == 1
    assert tri.MOTZKIN_T.value(1, 0) == 1 and tri.MOTZKIN_T.value(1, 1) == 1
    assert tri.MOTZKIN_T.row(0) == [1]


def test_cube_face_counts():
    # the square: 4 vertices, 4 edges, 1 cell
    assert tri.CUBE_F.row(2) == [4, 4, 1]


def test_recurrences_match_closed_forms():
    for n in range(1, 13):
        for k in range(n + 2):
            assert tri.ASSOC_GAMMA_A.value(n, k) == tri.ASSOC_GAMMA_A_REC.value(n, k)
            assert tri.ASSOC_GAMMA_B.value(n, k) == tri.ASSOC_GAMMA_B_REC.value(n, k)


def test_left_factor_triangle_recurrence():
    # (n+1) T(n,k) = (2n+1-k) T(n-1,k-1) + 2 T(n-1,k) + 4(k+1) T(n-1,k+1)
    T = tri.MOTZKIN_T.value
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
    lines = list(tri.bfile_lines(tri.GAMMA_B, 3))
    assert lines[0].startswith("#") and "offset 1" in lines[0]
    assert lines[1:] == ["1 1", "2 1", "3 4", "4 1", "5 20"]


def test_table_rows_are_built_as_they_are_read(monkeypatch):
    built = []
    real = tri.CUBE_F.row_fn
    monkeypatch.setattr(tri.CUBE_F, "row_fn", lambda n: built.append(n) or real(n))
    rows = tri.CUBE_F.first_rows(50)
    assert built == []
    assert next(rows) == [1] and built == [0]
    lines = tri.bfile_lines(tri.CUBE_F, 50)
    assert next(lines).startswith("# cube-f") and built == [0]
    assert next(lines) == "0 1" and built == [0, 0]
    assert len(list(rows)) == 49 and built[-1] == 49


def test_json_export():
    data = json.loads("".join(tri.triangle_json_text(tri.GAMMA_A, 4)))
    assert data["offset"] == 1 and data["oeis"] == "A101280"
    assert data["rows"] == [["1"], ["1"], ["1", "2"], ["1", "8"]]


def test_json_text_is_the_compact_dump_built_row_by_row(monkeypatch):
    for triangle in tri.TRIANGLES.values():
        for rows in (0, 1, 2, 5):
            data = {"name": triangle.name, "oeis": triangle.oeis, "offset": triangle.first_n,
                    "rows": [[str(v) for v in row] for row in triangle.first_rows(rows)]}
            assert "".join(tri.triangle_json_text(triangle, rows)) == \
                json.dumps(data, separators=(",", ":")), (triangle.name, rows)
    built = []
    real = tri.CUBE_F.row_fn
    monkeypatch.setattr(tri.CUBE_F, "row_fn", lambda n: built.append(n) or real(n))
    pieces = tri.triangle_json_text(tri.CUBE_F, 50)
    assert next(pieces).startswith('{"name":"cube-f"') and built == []
    assert next(pieces) == '["1"]' and built == [0]
    assert next(pieces) == ',["2","1"]' and built == [0, 1]


def test_assoc_gamma_a_rows_are_the_catalan_binomial_products():
    for n in range(1, 300):
        assert tri.ASSOC_GAMMA_A.row(n) == [tri.catalan(k) * tri.binomial(n - 1, 2 * k)
                                            for k in range((n - 1) // 2 + 1)], n


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
        assert tri.ASSOC_GAMMA_B_REC.value(n, n // 2) == tri.ASSOC_GAMMA_B.value(n, n // 2)


# The six recurrence triangles, restated: name -> (triangle, first row, row
# length, keep, shift, lead) for t(n,k) = (keep t(n-1,k) + shift t(n-1,k-1)) / lead.
RECURRENCES = {
    "gamma_a": (tri.GAMMA_A, (1,), lambda n: (n - 1) // 2 + 1,
                lambda n, k: k + 1, lambda n, k: 2 * n - 4 * k, lambda n: 1),
    "gamma_b": (tri.GAMMA_B, (1,), lambda n: n // 2 + 1,
                lambda n, k: 2 * k + 1, lambda n, k: 4 * (n + 1 - 2 * k), lambda n: 1),
    "eulerian_a": (tri.EULERIAN_A, (1,), lambda n: n,
                   lambda n, k: k + 1, lambda n, k: n - k, lambda n: 1),
    "eulerian_b": (tri.EULERIAN_B, (1, 1), lambda n: n + 1,
                   lambda n, k: 2 * k + 1, lambda n, k: 2 * (n - k) + 1, lambda n: 1),
    "assoc_gamma_a_by_recurrence": (
        tri.ASSOC_GAMMA_A_REC, (1,), lambda n: (n - 1) // 2 + 1,
        lambda n, k: n + 2 * k + 1, lambda n, k: 4 * (n - 2 * k), lambda n: n + 1),
    "assoc_gamma_b_by_recurrence": (
        tri.ASSOC_GAMMA_B_REC, (1,), lambda n: n // 2 + 1,
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


@pytest.mark.parametrize("name", list(RECURRENCES))
def test_recurrence_rows_match_a_per_k_reference(name):
    triangle, *recurrence = RECURRENCES[name]
    row_len = recurrence[1]
    for n, want in enumerate(_naive_rows(*recurrence, 60), start=1):
        assert len(want) == row_len(n)
        assert [triangle.value(n, k) for k in range(-1, len(want) + 1)] == [0, *want, 0]


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_recurrence_rows_refuse_a_non_int_n(n):
    # The loop used to step 2.5 on to row 3 and read True as row 1.
    for triangle in (tri.GAMMA_A, tri.EULERIAN_B, tri.ASSOC_GAMMA_B_REC):
        with pytest.raises(TypeError, match="n must be an int"):
            triangle.row(n)


def test_wrong_lead_raises_naming_n_and_k():
    # Eulerian numbers divided by n + 1: row 2 is (1, 1) before the division.
    rows = tri._triangle_rows("eulerian-a-wrong-lead", (1,), lambda n: n,
                              lambda n, k: k + 1, lambda n, k: n - k, lead=lambda n: n + 1)
    assert rows(1) == (1,)
    with pytest.raises(ArithmeticError, match=r"n=2, k=0"):
        rows(2)


@pytest.mark.parametrize("triangle", [*tri.TRIANGLES.values(), tri.ASSOC_GAMMA_A_REC,
                                      tri.ASSOC_GAMMA_B_REC], ids=lambda t: t.name)
def test_value_reads_the_row_and_is_zero_off_it(triangle):
    for n in range(triangle.first_n, 61):
        row = triangle.row(n)
        assert row == [triangle.value(n, k) for k in range(len(row))]
        assert triangle.value(n, -1) == 0 and triangle.value(n, len(row)) == 0
    with pytest.raises(ValueError, match="rows start at"):
        triangle.row(triangle.first_n - 1)


# The closed forms, restated one entry at a time with math.comb.
CLOSED_FORMS = {
    "assoc-h-a": (lambda n: range(n),
                  lambda n, k: math.comb(n, k) * math.comb(n, k + 1) // n),
    "assoc-h-b": (lambda n: range(n + 1), lambda n, k: math.comb(n, k) ** 2),
    "assoc-gamma-b": (lambda n: range(n // 2 + 1),
                      lambda n, k: math.comb(2 * k, k) * math.comb(n, 2 * k)),
    "motzkin-T": (lambda n: range(n + 1),
                  lambda n, k: math.comb(n, k) * math.comb(n - k, (n - k) // 2)),
    "cube-f": (lambda n: range(n + 1), lambda n, k: math.comb(n, k) * 2 ** (n - k)),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_closed_form_rows_match_a_per_entry_reference(name):
    triangle = tri.TRIANGLES[name]
    support, entry = CLOSED_FORMS[name]
    for n in range(triangle.first_n, 121):
        assert triangle.row(n) == [entry(n, k) for k in support(n)]


def test_binomial_row_matches_math_comb():
    for m in range(200):
        assert tri.binomial_row(m) == [math.comb(m, j) for j in range(m + 1)]
