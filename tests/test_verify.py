import random
from hashlib import sha256

import pytest

from conftest import random_poly
from polygram import classical, gamma, triangles, verify
from polygram.cli import main
from polygram.poly import MultiPoly
from polygram.report import Check, Report
from polygram.unipoly import UniPoly
from polygram.verify import TARGETS, run_all, run_target
from test_quadratic import term_sum

EXPECTED_TARGETS = [
    "alternating", "cor33", "egf", "prop12", "prop41",
    "thm11", "thm21", "thm22", "thm31", "thm32",
    "thm42", "thm43", "thm44",
]


def test_registry_names_are_exactly_the_documented_targets():
    assert sorted(TARGETS) == EXPECTED_TARGETS


def test_every_target_has_a_positive_default():
    assert all(t.default_n_max >= 1 for t in TARGETS.values())
    assert all(t.description for t in TARGETS.values())


def test_unknown_target_rejected():
    with pytest.raises(ValueError, match="unknown target"):
        run_target("thm99")


def test_bound_below_one_rejected_for_every_target():
    for name in EXPECTED_TARGETS:
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            run_target(name, 0)
    with pytest.raises(ValueError, match="n_max must be >= 1, got -1"):
        run_all(-1)


def test_report_without_checks_is_not_ok():
    assert Report("x").ok is False
    assert Report("x").lines() == ["x: FAIL"]
    assert Report("x", [Check("c", 1, True)]).ok is True


@pytest.mark.parametrize("cls, fields, others", [
    (Check, ("c", 1, True, ""), [("d", 1, True, ""), ("c", 2, True, ""),
                                 ("c", 1, False, ""), ("c", 1, True, "x")]),
], ids=["Check"])
def test_equal_fields_give_equal_values(cls, fields, others):
    a, b = cls(*fields), cls(*fields[:-1])
    assert a == b and hash(a) == hash(b)
    for other in others:
        assert a != cls(*other)


def test_reports_compare_by_value_and_stay_unhashable():
    assert Report("x", [Check("c", 1, True)]) == Report("x", [Check("c", 1, True)])
    assert Report("x") != Report("y")
    assert Report("x") != Report("x", [Check("c", 1, True)])
    with pytest.raises(TypeError):
        hash(Report("x"))


def test_run_all_covers_each_target_exactly_once():
    reports = run_all(3)
    assert [r.target for r in reports] == EXPECTED_TARGETS


def test_every_target_passes_at_small_bound():
    for name in EXPECTED_TARGETS:
        report = run_target(name, 5)
        assert report.ok, f"{name}: {[c for c in report.checks if not c.ok][:3]}"


def test_every_target_passes_at_default_bound():
    for name in EXPECTED_TARGETS:
        report = run_target(name)
        assert report.ok, f"{name}: {[c for c in report.checks if not c.ok][:3]}"


def test_report_shapes():
    report = run_target("thm32", 4)
    assert report.target == "thm32"
    assert {c.name for c in report.checks} == {"D^n(f)", "D^n(g)", "(fD)^n(f)", "(fD)^n(g)"}
    assert len(report.checks) == 16
    data = report.to_json_dict()
    assert data["ok"] is True and len(data["checks"]) == 16
    assert report.lines()[-1] == "thm32: PASS"


def lines_of(p):
    """The lines of p along (2, -2): key (a % 2, b + 2*(a // 2)) -> (lo, coeffs)
    with position a // 2, as the kernel holds them."""
    at = {}
    for (a, b), c in p.terms.items():
        at.setdefault((a % 2, b + 2 * (a // 2)), {})[a // 2] = c
    return {key: (min(ks), [ks.get(k, 0) for k in range(min(ks), max(ks) + 1)])
            for key, ks in at.items()}


def specialize(monkeypatch, polys, modulus, scale, cases):
    # _specialize's report over the given iterates, held as the kernel holds
    # them, one copy per start; cases(n) gives one case per start.
    from polygram import grammar

    monkeypatch.setattr(grammar, "_line_iterates", lambda *args: iter(map(lines_of, polys)))
    return verify._specialize(Report("t"), "f -> f; g -> g", "D", ("f",) * len(cases(0)),
                              modulus, scale, 0, len(polys) - 1, cases)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("parity", [None, 0, 1])
def test_root_free_check_matches_a_term_by_term_sum(monkeypatch, scale, parity):
    # First letter -> s and second -> scale*x, one term at a time, after
    # s^power is divided out, the terms spread over several lines; parity
    # None leaves the first letter's exponents mixed
    rng = random.Random(f"{scale}-{parity}")
    x = UniPoly.variable("x")
    for modulus in (x * x - 1, x * x + 1):
        polys, cases = [], []
        for n in range(150):
            power = n % 4
            p = random_poly(rng, ("f", "g"), max_terms=6)
            if parity is not None:
                p = MultiPoly(p.letters, {(a - a % 2 + parity, b): c
                                          for (a, b), c in p.terms.items()})
            want = term_sum(modulus, [(a, b, c * scale ** b) for (a, b), c in p.terms.items()])
            raised = MultiPoly(p.letters, {(a + power, b): c for (a, b), c in p.terms.items()})
            low = min(raised.terms, default=(power,))
            polys.append(raised)
            cases.append((("p", power, want), ("p", power, (want[0] + 1, want[1])),
                          ("p", low[0] + 1, want)))
        report = specialize(monkeypatch, polys, modulus, scale, cases.__getitem__)
        assert len(report.checks) == 3 * len(polys)
        assert max(len(lines_of(p)) for p in polys) > 2
        for n, raised in enumerate(polys):
            good, bumped, below = report.checks[3 * n:3 * n + 3]
            assert good == Check("p", n, True)
            assert not bumped.ok and bumped.detail.startswith("got ")
            if raised.terms:
                low = min(raised.terms)
                term = MultiPoly(raised.letters, {low: raised.terms[low]})
                detail = f"term {term} lies below the common power f^{low[0] + 1}"
                assert below == Check("p", n, False, detail)
            else:
                assert below == Check("p", n, True)


@pytest.mark.parametrize("modulus", [(-1, 0, 1), (1, 0, 1)], ids=["x^2-1", "x^2+1"])
def test_line_check_adds_the_root_free_check(monkeypatch, modulus):
    # An iterate on one line, trimmed at both ends as the kernel trims it, is
    # read through collect_line.  It must add exactly the Check the term sum
    # gives: a pass, a "got" failure, and the lowest term named when it lies
    # below the common power.
    rng = random.Random(f"line-check-{modulus}")
    q = UniPoly("x", modulus)

    def show(a, b):
        return f"({a}) + ({b})*s  [s^2 = {q}]"

    for scale in (1, 2):
        polys, cases, want = [], [], Report("t")
        for trial in range(150):
            size = trial % 7
            coeffs = [rng.choice((0, rng.randint(-9, 9))) for _ in range(size)]
            if coeffs:  # the kernel trims both ends
                coeffs[0], coeffs[-1] = coeffs[0] or 1, coeffs[-1] or -1
            low, top = rng.randint(0, 6), max(2 * size - 2, 0) + rng.randint(0, 3)
            p = MultiPoly(("f", "g"), {(low + 2 * k, top - 2 * k): c
                                       for k, c in enumerate(coeffs)})
            power = rng.randint(0, 7)
            terms = [(a - power, b, c * scale ** b) for (a, b), c in p.terms.items()]
            right = term_sum(q, terms if low >= power else [])
            polys.append(p)
            cases.append((("p", power, right), ("p", power, (right[0] + 1, right[1]))))
            for case in cases[-1]:
                if low < power and coeffs:
                    term = MultiPoly(("f", "g"), {(low, top): coeffs[0]})
                    want.add(Check("p", trial, False,
                                   f"term {term} lies below the common power f^{power}"))
                else:
                    ok = right == case[2]
                    want.add(Check("p", trial, ok,
                                   "" if ok else f"got {show(*right)}, want {show(*case[2])}"))
        assert all(len(lines_of(p)) <= 1 for p in polys)
        got = specialize(monkeypatch, polys, q, scale, cases.__getitem__)
        assert got == want, scale
        details = [c.detail for c in got.checks]
        assert "" in details and any("lies below the common power f^" in d for d in details)


def test_a_want_on_another_letter_fails_its_check(monkeypatch):
    # The got pair lies on the modulus's letter; a want on another letter is
    # a failed check, not an error.
    q = UniPoly("x", (-1, 0, 1))
    p = MultiPoly(("f", "g"), {(2, 0): 1})  # f^2 -> s^2 = x^2 - 1
    for want, ok in (((q, 0), True), ((UniPoly("y", q.coeffs), 0), False)):
        report = specialize(monkeypatch, [p], q, 1, lambda n: (("p", 0, want),))
        assert [c.ok for c in report.checks] == [ok]
    assert report.checks[0].detail == (
        "got (-1 + x^2) + (0)*s  [s^2 = -1 + x^2], want (-1 + y^2) + (0)*s  [s^2 = -1 + x^2]")


def test_a_failed_line_check_names_both_pairs(monkeypatch):
    # The failure text of a line check, an int part of the want printed as 0
    # like a zero UniPoly; an int part that matches passes.
    q = UniPoly("x", (1, 0, 1))
    p = MultiPoly(("f", "g"), {(1, 0): 3, (1, 2): 1})  # 3 s + s x^2
    cases = (("p", 0, (0, UniPoly("x", (3, 0, 1)))), ("p", 0, (1, 3)))
    report = specialize(monkeypatch, [p], q, 1, lambda n: cases)
    assert report.checks == [Check("p", 0, True), Check("p", 0, False, (
        "got (0) + (3 + x^2)*s  [s^2 = 1 + x^2], want (1) + (3)*s  [s^2 = 1 + x^2]"))]


@pytest.mark.parametrize("target, rules, off_line", [
    ("prop12", "_DOUBLE_ANGLE_RULES", "f -> f*g + g; g -> 4*f^2"),
    ("cor33", "_DOUBLE_ANGLE_RULES", "f -> f*g + g; g -> 4*f^2"),
    ("thm42", "_CUBIC_RULES", "u -> u^2*v + v; v -> u^3"),
])
def test_ring_targets_hold_one_line_per_iterate_only_on_the_line(monkeypatch, target, rules,
                                                                  off_line):
    # A passing ring target holds exactly one line per iterate; rules with a
    # move off the line (2, -2) spread its iterates over several lines, and
    # it fails.
    from polygram import grammar

    counts, real = [], grammar._line_iterates
    monkeypatch.setattr(grammar, "_line_iterates", lambda *args: (
        counts.append(len(lines)) or lines for lines in real(*args)))
    assert run_target(target).ok and set(counts) == {1}
    counts.clear()
    monkeypatch.setattr(verify, rules, off_line)
    assert not run_target(target, 4).ok and max(counts) > 1


def _t51_bumped(n, var="x", real=classical.chebyshev_t):
    return real(n, var) + int(n == 51)


# Failing ring sweeps: (target, n_max, module, name, value, sha256 of the
# lines of its ring checks joined by newlines).  thm42's grammar rows are left
# out: their stray terms are the reader's texts, pinned in test_kernel.py.
FAILING_RING_SWEEPS = [
    ("thm42", 100, classical, "chebyshev_t", _t51_bumped,
     "5e0453eb7ad969b1a33069de6acf6487864d05c967e5d93ffd9097c25c111084"),
    ("cor33", 40, verify, "_DOUBLE_ANGLE_RULES", "f -> f*g + g; g -> 4*f^2",
     "82bca61825c6d8346ca1390938bde626fad30d9675267afec7595092af68fa0f"),
    ("prop12", 40, verify, "_DOUBLE_ANGLE_RULES", "f -> f*g + g; g -> 4*f^2",
     "5189485ec07aeff352763c88afe06762becaf0e303edd916b63207ff88864585"),
    ("cor33", 40, verify, "_DOUBLE_ANGLE_RULES", "f -> f*g + f; g -> 4*f^2",
     "4679d4782c5a2444e761f85c81b0a4e67db7aba9ddafde7582055902c6e49ab6"),
    ("prop12", 40, verify, "_DOUBLE_ANGLE_RULES", "f -> f*g + f; g -> 4*f^2",
     "2414f0d258ff65822cc7b07a1dcbea3c23d2f298a2f26d121a4d8b9e20efa682"),
    ("cor33", 40, verify, "_DOUBLE_ANGLE_RULES", "f -> f*g; g -> 4*f^2 + g",
     "63d9fc2a7833662788100f31ac66abbc3536677107cc0345623ede3cbea0440e"),
    ("prop12", 40, verify, "_DOUBLE_ANGLE_RULES", "f -> f*g; g -> 4*f^2 + g",
     "fd377679ff5f5ba5cb515e87b0069f9d701ce28081a5b35b48d94b37e6415321"),
    ("thm42", 40, verify, "_CUBIC_RULES", "u -> u^2*v + v; v -> u^3",
     "bbf0da73bec8a4fd78707cd890ad7905104444a972c112d35a429cc83d1dd079"),
]


def failing_ring_report(monkeypatch, target, n_max, module, name, value):
    with monkeypatch.context() as patched:
        patched.setattr(module, name, value)
        return run_target(target, n_max)


@pytest.mark.parametrize("target, n_max, module, name, value, digest", FAILING_RING_SWEEPS,
                         ids=[f"{t}@{n}-{v if isinstance(v, str) else 'T51-bumped'}"
                              for t, n, _, _, v, _ in FAILING_RING_SWEEPS])
def test_failing_ring_sweep_texts_are_pinned(monkeypatch, target, n_max, module, name, value,
                                             digest):
    report = failing_ring_report(monkeypatch, target, n_max, module, name, value)
    lines = [line for c, line in zip(report.checks, report.lines())
             if c.name not in ("D^n(uv)", "D^n(u^2)")]
    assert not report.ok and sha256("\n".join(lines).encode()).hexdigest() == digest


class _BumpedRow:
    # A triangle whose row bad_n has 1 added at entry slot; other rows unchanged.
    def __init__(self, real, bad_n, slot):
        self.real, self.bad_n, self.slot = real, bad_n, slot

    def row(self, n):
        row = list(self.real.row(n))
        if n == self.bad_n:
            row[self.slot] += 1
        return row


def _bumped_binomial_row(bad_m, slot):
    def row(m):
        out = list(triangles.binomial_row(m))
        if m == bad_m:
            out[slot] += 1
        return out
    return row


# (target, row label, name verify reads, the row to bump, entry, failing n, failing k)
_LIVE_ROWS = [
    ("thm11", "(Dy)^n(y)", "EULERIAN_A", 5, 1, 5, 1),
    ("thm11", "(Dy)^n(z)", "EULERIAN_B", 5, 1, 5, 1),
    ("thm32", "D^n(f)", "GAMMA_B", 5, 1, 5, 1),
    ("thm32", "D^n(g)", "GAMMA_A", 5, 1, 5, 1),
    ("thm32", "(fD)^n(f)", "ASSOC_GAMMA_B_REC", 5, 1, 5, 1),
    ("thm32", "(fD)^n(g)", "ASSOC_GAMMA_A_REC", 5, 1, 5, 1),
    # prop41 and thm42 read binomial_row(n + 1); thm42 splits it into even
    # and odd slots, so entry 2 is even slot 1 and entry 3 odd slot 1.
    ("prop41", "D^n(uv)", "binomial_row", 6, 2, 5, 1),
    ("thm42", "D^n(uv)", "binomial_row", 6, 2, 5, 1),
    ("thm42", "D^n(u^2)", "binomial_row", 6, 3, 5, 1),
    # thm43 reads GAMMA_A.row(n + 1)
    ("thm43", "D^n(u)", "GAMMA_A", 6, 1, 5, 1),
    ("thm44", "D^n(t^2 u^2)", "MOTZKIN_T", 5, 1, 5, 1),
    ("thm44", "D^n(t^2 u)", "CUBE_F", 5, 1, 5, 1),
]


@pytest.mark.parametrize("target, label, name, bad_row, slot, bad_n, k", _LIVE_ROWS,
                         ids=[f"{t}-{label}" for t, label, *_ in _LIVE_ROWS])
def test_every_identity_row_reads_its_expected_triangle(monkeypatch, target, label, name,
                                                        bad_row, slot, bad_n, k):
    # One wrong entry in the expected row must fail exactly that (label, n).
    real = getattr(verify, name)
    if name == "binomial_row":
        monkeypatch.setattr(verify, name, _bumped_binomial_row(bad_row, slot))
    else:
        monkeypatch.setattr(verify, name, _BumpedRow(real, bad_row, slot))
    report = run_target(target, bad_n + 1)
    failures = [c for c in report.checks if not c.ok]
    assert [(c.name, c.n) for c in failures] == [(label, bad_n)]
    assert failures[0].detail.startswith(f"k={k}: got ")
    assert ", want " in failures[0].detail
    assert len(report.checks) > 1 and not report.ok


class _ReplacedRow:
    # A triangle whose row bad_n is ``bad``; other rows unchanged.
    def __init__(self, real, bad_n, bad):
        self.real, self.bad_n, self.bad = real, bad_n, bad

    def row(self, n):
        return list(self.bad) if n == self.bad_n else self.real.row(n)


def _with_h_row(monkeypatch, family, n, bad):
    h_triangle, gamma_triangle = gamma.FAMILIES[family]
    monkeypatch.setitem(gamma.FAMILIES, family,
                        (_ReplacedRow(h_triangle, n, bad), gamma_triangle))


def test_a_wrong_coxeter_family_h_row_fails_its_expansion_and_its_roundtrip(monkeypatch):
    _with_h_row(monkeypatch, "coxeter-a", 4, [1, 12, 12, 1])
    report = run_target("thm21", 6)
    assert len(report.checks) == 18
    assert [line for line in report.lines() if "FAIL" in line] == [
        "thm21: coxeter-h n=4: FAIL (gamma row 1,8 does not expand to 1,12,12,1)",
        "thm21: gamma-roundtrip n=4: FAIL (extracted 1,9, expected 1,8)",
        "thm21: FAIL",
    ]


def test_a_coxeter_h_row_that_h_to_gamma_refuses_fails_its_roundtrip(monkeypatch, capsys):
    # A non-palindromic built-in row is a fault in the table, not bad input:
    # the round trip records the refusal as a FAIL and the sweep goes on.
    _with_h_row(monkeypatch, "coxeter-a", 4, [1, 11, 11])
    report = run_target("thm21", 6)
    assert len(report.checks) == 18
    assert [line for line in report.lines() if "FAIL" in line] == [
        "thm21: coxeter-h n=4: FAIL (gamma row 1,8 does not expand to 1,11,11)",
        "thm21: gamma-roundtrip n=4: FAIL (h-polynomial [1, 11, 11] is not palindromic)",
        "thm21: FAIL",
    ]
    assert main(["verify", "--target", "thm21", "--n-max", "6"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        line for line in report.lines() if "FAIL" in line]


@pytest.mark.parametrize("bad", [[1, 16, 37, 16, 1], [1, 16, 36, 16]],
                         ids=["wrong-entry", "wrong-length"])
def test_a_wrong_assoc_family_h_row_fails_only_its_expansion(monkeypatch, bad):
    # d comes from n, so a row of the wrong length is a failed check, not a refusal.
    _with_h_row(monkeypatch, "assoc-b", 4, bad)
    report = run_target("thm22", 6)
    assert len(report.checks) == 18
    shown = ",".join(map(str, bad))
    assert [line for line in report.lines() if "FAIL" in line] == [
        f"thm22: assoc-h n=4: FAIL (gamma row 1,12,6 does not expand to {shown})",
        "thm22: FAIL",
    ]


def test_thm42_subtracts_without_negating(monkeypatch):
    # Each Chebyshev step x2 * T_(m-1) - T_(m-2) is one signed add: no
    # negated operand is built first.  The caches are emptied so that the
    # recurrences really run.
    negated, subtracted = [], []
    for cls in (UniPoly, MultiPoly):
        neg = cls.__neg__
        monkeypatch.setattr(cls, "__neg__", lambda p, neg=neg: negated.append(p) or neg(p))
    sub = UniPoly.__sub__
    monkeypatch.setattr(UniPoly, "__sub__", lambda a, b: subtracted.append(b) or sub(a, b))
    monkeypatch.setattr(triangles, "_TIPS", {})
    classical.chebyshev_t.cache_clear()
    classical.chebyshev_u.cache_clear()
    assert run_target("thm42", 20).ok
    assert subtracted and not negated
