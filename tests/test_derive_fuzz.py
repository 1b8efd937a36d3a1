"""Seeded fuzz test of ``derive``: generated rule text and mutated forms of it.

The rule text comes from the generator behind the benchmark's ``derive``
jobs (``perfbench/workloads.py``, loaded by path).  Every outcome must be
exit 0 with the iterate the generator's dict-based derivation predicts, or
exit 2 with exactly one ``error:`` line.  A mutated text that still reads as
a grammar is predicted from a small reader of the generator's sum-of-monomials
form, kept here and independent of ``polygram.parser``.
"""

import importlib.util
import json
import random
import re
import sys
from pathlib import Path

from polygram.cli import main

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses look their module up here
_spec.loader.exec_module(workloads)

_NAME = r"[A-Za-z][A-Za-z0-9]*"
_FACTOR = re.compile(rf"(?:(\d+)|({_NAME}))(?:\^(\d+))?")


def _read_poly(text, letters):
    """{exps: coeff} of a '+'-joined sum of '*'-joined factors, or None."""
    poly = {}
    for term in text.split("+"):
        coeff, exps = 1, [0] * len(letters)
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if not m:
                return None
            power = int(m.group(3) or 1)
            if m.group(1):
                coeff *= int(m.group(1)) ** power
            elif m.group(2) in letters:
                exps[letters.index(m.group(2))] += power
            else:
                return None
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + coeff
    return {e: c for e, c in poly.items() if c}


def _read_spec(grammar, start, op, n):
    """The generator's (letters, rules, op, start, n) for this text, or None."""
    rules = []
    for segment in re.sub(r"\s", "", grammar).split(";"):
        if not segment:
            continue
        lhs, arrow, rhs = segment.partition("->")
        if not arrow or not re.fullmatch(_NAME, lhs):
            return None
        rules.append((lhs, rhs))
    letters = tuple(lhs for lhs, _ in rules)
    if not rules or len(set(letters)) != len(letters):
        return None
    table = {lhs: _read_poly(rhs, letters) for lhs, rhs in rules}
    start_poly = _read_poly(start.replace(" ", ""), letters)
    if None in table.values() or start_poly is None:
        return None
    if op != "D" and op.split(":")[1] not in letters:
        return None
    return letters, table, op, start_poly, n


def _mutations(rng, text):
    """Truncated, one character dropped, one character doubled."""
    out = []
    for _ in range(2):
        out.append(text[:rng.randrange(len(text))])
        i = rng.randrange(len(text))
        out.append(text[:i] + text[i + 1:])
        i = rng.randrange(len(text))
        out.append(text[:i] + text[i] + text[i:])
    return out


def _run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _iterate(out):
    data = json.loads(out)
    return tuple(data["letters"]), {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]}


def test_generated_and_mutated_rule_text(capsys):
    rng = random.Random(2024)
    clean = refused = mutated_ok = 0
    for _ in range(60):
        job = workloads.random_derive_job(rng)
        argv = list(job.argv)
        letters = job.spec[0]
        code, out, err = _run(capsys, argv)
        assert code == 0, (argv, err)
        assert _iterate(out) == (letters, workloads.derive_reference(job.spec)), argv
        clean += 1
        grammar_at = argv.index("--grammar") + 1
        _, _, op, _, n = job.spec
        start = argv[argv.index("--start") + 1]
        for text in _mutations(rng, argv[grammar_at]):
            argv[grammar_at] = text
            code, out, err = _run(capsys, argv)
            spec = _read_spec(text, start, op, n)
            if spec is None:
                assert code == 2 and out == "", (text, code, out, err)
                assert len(err.splitlines()) == 1 and err.startswith("error:"), (text, err)
                refused += 1
            else:
                assert code == 0, (text, err)
                assert _iterate(out) == (spec[0], workloads.derive_reference(spec)), text
                mutated_ok += 1
    # The mix exercises both outcomes, not just one of them.
    assert clean == 60 and refused > 150 and mutated_ok > 50
