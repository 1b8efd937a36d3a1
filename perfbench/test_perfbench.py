"""Tests of the benchmark's own logic: span arithmetic, the gate, the probe classifier."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from gate import Gate, classify_probe, sha256, verify_rows
from run import END_TO_END_UNITS, PER_LAYER, high_percentile, metric_unit, spread
from tracer import ROOT, Recorder, aggregate, self_times
from workloads import Job, apply_op, derive_jobs, derive_reference, groups_for


# ----------------------------------------------------------------------
# spans

def test_self_times_on_nested_tree():
    #   0 root      [0, 10]
    #   1 ├ a       [1, 4]
    #   2 ├ b       [5, 9]
    #   3 │ └ c     [6, 8]
    #   4 └ d       [9.5, 11]  runs past its parent and is clipped to 0.5
    starts = [0.0, 1.0, 5.0, 6.0, 9.5]
    ends = [10.0, 4.0, 9.0, 8.0, 11.0]
    parents = [ROOT, 0, 0, 2, 0]
    assert list(self_times(starts, ends, parents)) == [10 - 3 - 4 - 0.5, 3.0, 2.0, 2.0, 1.5]


def test_aggregate_sums_by_name():
    names = ["cli.main", "poly.mul"]
    table = aggregate(names, [0, 1, 1], [0.0, 1.0, 3.0], [10.0, 2.0, 7.0], [ROOT, 0, 0])
    assert table["poly.mul"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert table["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}


def test_recorder_nests_spans_and_counts():
    rec = Recorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = rec.wrap(leaf, "m.leaf", counter=lambda args, result: rec.count("m.n", result))
    outer = rec.wrap(lambda: wrapped_leaf(1) + wrapped_leaf(2), "m.outer")
    assert outer() == 5
    assert list(rec.parent) == [ROOT, 0, 0]
    assert rec.counters == {"m.n": 5}
    table = rec.aggregate()
    assert table["m.leaf"]["calls"] == 2
    assert table["m.outer"]["self_s"] <= table["m.outer"]["total_s"]


# ----------------------------------------------------------------------
# correctness gate

TEXT_REPORT = "thm32: D^n(f) n=1: ok\nthm32: D^n(f) n=2: ok\nthm32: PASS\n"
VERIFY = Job(("verify", "--target", "thm32", "--n-max", "2"), "verify")
TABLE = Job(("table", "--name", "gamma-a", "--rows", "3"), "digest")


def make_gate():
    return Gate({"checks": {VERIFY.id: 2},
                 "sha256": {TABLE.id: sha256(b"1\n1\n1 2\n")}})


def test_gate_accepts_correct_outputs():
    gate = make_gate()
    assert gate.problem(VERIFY, 0, TEXT_REPORT.encode(), b"") is None
    assert gate.problem(TABLE, 0, b"1\n1\n1 2\n", b"") is None


def test_gate_flags_flipped_check():
    out = TEXT_REPORT.replace("n=2: ok", "n=2: FAIL (expected 3)").replace("PASS", "FAIL")
    assert "not ok" in make_gate().problem(VERIFY, 0, out.encode(), b"")


def test_gate_flags_wrong_check_count():
    out = "thm32: D^n(f) n=1: ok\nthm32: PASS\n"
    assert "pinned 2" in make_gate().problem(VERIFY, 0, out.encode(), b"")


def test_gate_flags_changed_digest():
    assert "sha256" in make_gate().problem(TABLE, 0, b"1\n1\n1 3\n", b"")


def test_gate_flags_traceback_and_exit_status():
    err = b"Traceback (most recent call last):\n  ...\nRecursionError: maximum recursion depth\n"
    assert "RecursionError" in make_gate().problem(TABLE, 1, b"", err)
    assert "exit status 2" in make_gate().problem(TABLE, 2, b"", b"error: bad\n")


def test_gate_reads_verify_rows_from_json():
    payload = {"target": "all", "ok": True, "targets": [
        {"target": "thm32", "ok": True, "checks": [
            {"name": "D^n(f)", "n": 1, "ok": True, "detail": ""},
            {"name": "D^n(f)", "n": 2, "ok": True, "detail": ""}]}]}
    assert verify_rows(json.dumps(payload)) == verify_rows(TEXT_REPORT)


def test_gate_requires_repeatable_bytes_without_a_pin():
    gate = make_gate()
    job = Job(("oracle", "--which", "left-h", "--n", "3"), "digest")
    assert gate.problem(job, 0, b"1 2\n", b"") is None
    assert gate.problem(job, 0, b"1 2\n", b"") is None
    assert "expected" in gate.problem(job, 0, b"1 3\n", b"")


def test_gate_checks_derive_against_reference():
    job = derive_jobs(7)[0]
    letters = job.spec[0]
    terms = [{"coeff": str(c), "exps": list(e)}
             for e, c in sorted(derive_reference(job.spec).items())]
    good = json.dumps({"letters": list(letters), "terms": terms}).encode()
    assert Gate({"checks": {}, "sha256": {}}).problem(job, 0, good, b"") is None
    terms[0]["coeff"] = str(int(terms[0]["coeff"]) + 1)
    bad = json.dumps({"letters": list(letters), "terms": terms}).encode()
    assert "reference" in Gate({"checks": {}, "sha256": {}}).problem(job, 0, bad, b"")


# ----------------------------------------------------------------------
# failure probes

@pytest.mark.parametrize("returncode, stdout, stderr, expected", [
    (1, b"", b"Traceback (most recent call last):\nRecursionError: maximum\n", "crash"),
    (1, b"", b"", "crash"),
    (0, b"thm32: PASS\n", b"", "vacuous"),
    (2, b"", b"error: n_max must be >= 1, got 0\n", "refusal"),
    (0, b"thm32: D^n(f) n=1: ok\nthm32: PASS\n", b"", "ok"),
    (0, b"2*x^2 - 1\n", b"", "ok"),
    (1, b"thm32: D^n(f) n=1: FAIL (x)\nthm32: FAIL\n", b"", "failed"),
    (2, b"", b"usage: polygram\n", "other"),
])
def test_classify_probe(returncode, stdout, stderr, expected):
    assert classify_probe(returncode, stdout, stderr) == expected


# ----------------------------------------------------------------------
# workloads and statistics

def test_reference_derivation_by_hand():
    letters = ("f", "g")
    rules = {"f": {(1, 1): 1}, "g": {(2, 0): 4}}
    # D(f) = fg, D^2(f) = f g^2 + 4 f^3, and postD:f multiplies by f after D.
    assert derive_reference((letters, rules, "D", {(1, 0): 1}, 2)) == {(1, 2): 1, (3, 0): 4}
    assert apply_op(letters, rules, "postD:f", {(1, 0): 1}) == {(2, 1): 1}
    assert apply_op(letters, rules, "preD:g", {(1, 0): 1}) == {(1, 2): 1, (3, 0): 4}


def test_seeded_jobs_repeat_and_differ():
    assert derive_jobs(3) == derive_jobs(3)
    assert derive_jobs(3) != derive_jobs(4)
    for job in derive_jobs(random.Random(11).randint(0, 10 ** 6)):
        assert job.kind == "derive" and job.argv[-1] == "json"


def test_only_cli_mix_takes_the_seed():
    assert groups_for("ring-stress", 1) == groups_for("ring-stress", 2)
    assert groups_for("cli-mix", 1) != groups_for("cli-mix", 2)


def test_spread_and_high_percentile():
    assert spread([1.0, 1.0, 1.0]) == 0.0
    assert high_percentile(list(range(10))) is None
    assert high_percentile([float(v) for v in range(1, 21)]) == (50, 10.0)


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, metric_unit(name)) for name in PER_LAYER]
