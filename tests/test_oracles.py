import ast
import itertools

import pytest

from polygram import oracles as orc
from polygram import triangles as tri


# Reference scan: every window of [n], checked one by one.
def scan_windows(n, signed):
    for perm in itertools.permutations(range(1, n + 1)):
        if not signed:
            yield perm
            continue
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * p for s, p in zip(signs, perm))


def scan_descents(w):
    # pi(0) = 0 is read in front of the window.
    w = (0, *w)
    return sum(w[i] > w[i + 1] for i in range(len(w) - 1))


def scan_is_alternating(w):
    # down-up: w1 > w2 < w3 > w4 ...
    return all(w[i] > w[i + 1] if i % 2 == 0 else w[i] < w[i + 1]
               for i in range(len(w) - 1))


def scan_histogram(n, signed):
    hist = [0] * (n + 1 if signed else n)
    for w in scan_windows(n, signed):
        hist[scan_descents(w)] += 1
    return tuple(hist)


def scan_alternating(n, signed):
    return sum(scan_is_alternating(w) for w in scan_windows(n, signed))


def test_descent_distribution_examples():
    assert orc.descent_distribution(4) == (1, 11, 11, 1)
    assert orc.descent_distribution(1) == (1,)
    assert orc.descent_distribution(3) == (1, 4, 1)


def test_descent_distribution_guard():
    with pytest.raises(ValueError, match="1 <= n <= 9"):
        orc.descent_distribution(10)
    with pytest.raises(ValueError):
        orc.descent_distribution(0)


def test_descent_b_distribution_examples():
    assert orc.descent_b_distribution(2) == (1, 6, 1)
    assert orc.descent_b_distribution(1) == (1, 1)
    assert sum(orc.descent_b_distribution(3)) == 48
    with pytest.raises(ValueError, match="1 <= n <= 7"):
        orc.descent_b_distribution(8)


def test_count_alternating_examples():
    assert orc.count_alternating(4, "A") == 5
    assert orc.count_alternating(1, "A") == 1
    assert orc.count_alternating(2, "B") == 4
    assert orc.count_alternating(2, "B") == 2 ** 2 * orc.count_alternating(2, "A")
    with pytest.raises(ValueError):
        orc.count_alternating(10, "A")
    with pytest.raises(ValueError):
        orc.count_alternating(8, "B")
    with pytest.raises(ValueError):
        orc.count_alternating(3, "C")


def test_guards_share_the_exported_bounds():
    assert (orc.MAX_PLAIN_N, orc.MAX_SIGNED_N) == (9, 7)
    with pytest.raises(ValueError, match=f"1 <= n <= {orc.MAX_PLAIN_N}"):
        orc.count_alternating(orc.MAX_PLAIN_N + 1, "A")
    with pytest.raises(ValueError, match=f"1 <= n <= {orc.MAX_SIGNED_N}"):
        orc.count_alternating(orc.MAX_SIGNED_N + 1, "B")


@pytest.mark.parametrize("n", range(1, 9))
def test_plain_walk_matches_naive_scan(n):
    assert orc.descent_distribution(n) == scan_histogram(n, False)
    assert orc.count_alternating(n, "A") == scan_alternating(n, False)


@pytest.mark.parametrize("n", range(1, 7))
def test_signed_walk_matches_naive_scan(n):
    assert orc.descent_b_distribution(n) == scan_histogram(n, True)
    assert orc.count_alternating(n, "B") == scan_alternating(n, True)


def test_values_at_the_guards():
    assert orc.count_alternating(9, "A") == 7936
    assert orc.count_alternating(7, "B") == 2 ** 7 * 272
    hist = orc.descent_b_distribution(7)
    assert sum(hist) == 645120
    assert list(hist) == tri.EULERIAN_B.row(7)


def test_path_count_examples():
    assert orc.motzkin_up_histogram(2)[1] == 1
    assert orc.motzkin_up_histogram(0)[0] == 1
    assert orc.left_factor_h_histogram(1) == (1, 1)
    with pytest.raises(ValueError, match="0 <= n <= 18"):
        orc.motzkin_up_histogram(19)
    with pytest.raises(ValueError):
        orc.left_factor_h_histogram(-1)


def test_descents_certify_eulerian_triangles():
    for n in range(1, 9):
        assert list(orc.descent_distribution(n)) == tri.EULERIAN_A.row(n)
    for n in range(1, 7):
        assert list(orc.descent_b_distribution(n)) == tri.EULERIAN_B.row(n)


def test_motzkin_paths_certify_assoc_gamma_a():
    for n in range(1, 13):
        hist = orc.motzkin_up_histogram(n - 1)
        for k in range(len(hist)):
            assert hist[k] == tri.ASSOC_GAMMA_A.value(n, k)


def test_left_factors_certify_motzkin_triangle():
    for n in range(15):
        hist = orc.left_factor_h_histogram(n)
        assert list(hist) == tri.MOTZKIN_T.row(n)


# Reference walks: every step, the last one included, is its own call, and
# each complete path is counted when no steps remain.
def unfolded_motzkin_walk(length):
    counts = [0] * (length // 2 + 1)

    def walk(remaining, height, ups):
        if height > remaining:
            return
        if remaining == 0:
            counts[ups] += 1
            return
        walk(remaining - 1, height + 1, ups + 1)
        if height:
            walk(remaining - 1, height - 1, ups)
        walk(remaining - 1, height, ups)

    walk(length, 0, 0)
    return tuple(counts)


def unfolded_left_factor_walk(length):
    counts = [0] * (length + 1)

    def walk(remaining, height, flats):
        if remaining == 0:
            counts[flats] += 1
            return
        walk(remaining - 1, height + 1, flats)
        if height:
            walk(remaining - 1, height - 1, flats)
        walk(remaining - 1, height, flats + 1)

    walk(length, 0, 0)
    return tuple(counts)


def test_path_walks_match_the_unfolded_walks():
    for n in range(15):
        assert orc.motzkin_up_histogram(n) == unfolded_motzkin_walk(n), n
        assert orc.left_factor_h_histogram(n) == unfolded_left_factor_walk(n), n


def test_alternating_doubling():
    for n in range(1, 8):
        assert orc.count_alternating(n, "B") == 2 ** n * orc.count_alternating(n, "A")


def test_oracles_import_nothing_from_polygram():
    # The oracles are the second route for the triangles and polynomials, so
    # they must not reach the code they certify.
    tree = ast.parse(open(orc.__file__, encoding="utf-8").read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] != "polygram", module
