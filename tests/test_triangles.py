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
        assert sum(tri.ASSOC_H_A.row(n)) == math.comb(2 * n, n) // (n + 1)
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
    blocks = list(tri.bfile_rows(tri.GAMMA_B, 3))
    assert len(blocks[0]) == 1
    assert blocks[0][0].startswith("#") and "offset 1" in blocks[0][0]
    assert blocks[1:] == [["1 1"], ["2 1", "3 4"], ["4 1", "5 20"]]


def test_table_rows_are_built_as_they_are_read(monkeypatch):
    built = []
    real = tri.CUBE_F.row_fn
    monkeypatch.setattr(tri.CUBE_F, "row_fn", lambda n: built.append(n) or real(n))
    rows = tri.CUBE_F.first_rows(50)
    assert built == []
    assert next(rows) == [1] and built == [0]
    blocks = tri.bfile_rows(tri.CUBE_F, 50)
    assert next(blocks)[0].startswith("# cube-f") and built == [0]
    assert next(blocks) == ["0 1"] and built == [0, 0]
    assert next(blocks) == ["1 2", "2 1"] and built == [0, 0, 1]
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
        assert tri.ASSOC_GAMMA_A.row(n) == [math.comb(2 * k, k) // (k + 1)
                                            * tri.binomial(n - 1, 2 * k)
                                            for k in range((n - 1) // 2 + 1)], n


def test_motzkin_and_cube_rows_are_the_per_entry_closed_forms():
    # The rows step central binomials and shift binomial rows; each entry is
    # C(n, k) C(n - k, (n - k) // 2) and C(n, k) 2^(n - k).
    for n in range(301):
        assert tri.MOTZKIN_T.row(n) == [math.comb(n, k) * math.comb(n - k, (n - k) // 2)
                                        for k in range(n + 1)], n
        assert tri.CUBE_F.row(n) == [math.comb(n, k) * 2 ** (n - k) for k in range(n + 1)], n


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
    for n, want in enumerate(_naive_rows(*recurrence, 150), start=1):
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
                              lambda n: (1, 1), lambda n: (n, -1), lead=lambda n: n + 1)
    assert rows(1) == (1,)
    with pytest.raises(ArithmeticError, match=r"n=2, k=0"):
        rows(2)
    # Row 2 of this one is (2, 5, 0) before the division by 2: k = 0 divides.
    rows = tri._triangle_rows("first-bad-k-is-one", (2, 1), lambda n: n + 1,
                              lambda n: (1, 2), lambda n: (n, -1), lead=lambda n: 2)
    with pytest.raises(ArithmeticError, match=r"n=2, k=1"):
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


def _access_orders():
    # Up, down, m - 1 then m (as thm21 asks), far jumps both ways, repeats,
    # and a shuffle.
    shuffled = list(range(120))
    random.Random(11).shuffle(shuffled)
    return [list(range(150)), list(range(150, -1, -1)),
            [m - j for m in range(1, 100) for j in (1, 0)],
            [0, 300, 5, 250, 1, 2, 299, 300, 301, 3, 600, 599, 601, 0],
            [7, 7, 7, 8, 8, 7, 7, 9, 9, 8, 10, 0, 0, 1, 1],
            shuffled]


@pytest.mark.parametrize("order", _access_orders(), ids=("up", "down", "m-1-then-m",
                                                         "far", "repeats", "shuffled"))
def test_binomial_rows_and_factorials_do_not_depend_on_call_order(order):
    for m in order:
        assert tri.binomial_row(m) == [math.comb(m, j) for j in range(m + 1)], m
        assert tri.factorial(m) == math.factorial(m), m
        assert tri._central_binomials(m) == [math.comb(j, j // 2) for j in range(m + 1)], m
        assert tri._BINOMIAL_ROW[0] == m and tri._FACTORIAL[0] == m


def test_a_returned_binomial_row_is_the_callers_own():
    for m in (5, 6, 6, 7, 40, 40):
        row, central = tri.binomial_row(m), tri._central_binomials(m)
        row[0] += 1
        row.append(3)
        central[-1] += 1
        assert tri.binomial_row(m) == [math.comb(m, j) for j in range(m + 1)], m
        assert tri._central_binomials(m)[-1] == math.comb(m, m // 2), m
    # One row is held: the stepped row replaces the one it stepped from.
    tri.binomial_row(41)
    assert tri._BINOMIAL_ROW == (41, [math.comb(41, j) for j in range(42)])


def test_only_a_far_factorial_is_built_whole(monkeypatch):
    # The held factorial and the one after it cost no call to math.factorial;
    # any other n, far above or below, costs exactly one.
    whole = []
    full = math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: whole.append(n) or full(n))
    monkeypatch.setattr(tri, "_FACTORIAL", (0, 1))
    for n in (0, 1, 2, 2, 3, 3000, 3001, 3001, 10, 9, 11):
        assert tri.factorial(n) == full(n), n
    assert whole == [3000, 10, 9, 11]


def test_factorial_refuses_a_negative_or_non_int_n():
    for n in (-1, -50):
        with pytest.raises(ValueError):
            tri.factorial(n)
    for n in (3.0, True, "3", None):
        with pytest.raises(TypeError):
            tri.factorial(n)
