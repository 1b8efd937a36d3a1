"""Correctness gate for benchmark jobs and the classifier for failure probes.

Verify jobs are compared by their per-check rows ``(target, check, n, ok)``,
not by raw bytes, so a change to the report summary does not read as a
failure.  Derive jobs are recomputed independently; every other job is
compared by the sha256 of its stdout.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import Job, derive_reference

TRACEBACK = "Traceback (most recent call last)"

_ROW_RE = re.compile(r"^([^:]+): (.*) n=(-?\d+): (ok|FAIL)(?: \(.*\))?$")
_SUMMARY_RE = re.compile(r"^([^:]+): (PASS|FAIL)$")


def verify_rows(stdout: str) -> list[tuple[str, str, int, bool]]:
    """Per-check rows of a verify report, from its text or JSON form."""
    text = stdout.strip()
    if text.startswith("{"):
        data = json.loads(text)
        reports = data["targets"] if "targets" in data else [data]
        return [(r["target"], c["name"], c["n"], c["ok"])
                for r in reports for c in r["checks"]]
    rows = []
    for line in text.splitlines():
        m = _ROW_RE.match(line)
        if m:
            rows.append((m.group(1), m.group(2), int(m.group(3)), m.group(4) == "ok"))
        elif not _SUMMARY_RE.match(line):
            raise ValueError(f"unexpected verify line {line!r}")
    return rows


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive_matches(job: Job, stdout: str) -> bool:
    """Whether a ``derive --format json`` output equals the reference iterate."""
    data = json.loads(stdout)
    letters = job.spec[0]
    got = {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]}
    return tuple(data["letters"]) == letters and got == derive_reference(job.spec)


class Gate:
    """Judges job outputs against the pins; holds what one run has seen.

    ``pins`` maps ``checks`` to pinned verify row counts and ``sha256`` to
    pinned stdout digests, both keyed by job id.  A job with no pinned digest
    must print the same bytes every time it runs within this gate's life.
    """

    def __init__(self, pins: dict):
        self.checks = pins["checks"]
        self.digests = dict(pins["sha256"])
        self.seen: dict[str, str] = {}

    def problem(self, job: Job, returncode: int, stdout: bytes, stderr: bytes) -> str | None:
        """None when the job's outcome is correct, else a one-line reason."""
        err = stderr.decode("utf-8", "replace")
        if TRACEBACK in err:
            return "traceback on stderr: " + err.strip().splitlines()[-1]
        if returncode != 0:
            return f"exit status {returncode}"
        out = stdout.decode("utf-8")
        if job.kind == "verify":
            rows = verify_rows(out)
            bad = [r for r in rows if not r[3]]
            if bad:
                return f"check not ok: {bad[0]}"
            want = self.checks.get(job.id)
            if want is None:
                return "no pinned check count"
            if len(rows) != want:
                return f"{len(rows)} checks, pinned {want}"
            return None
        if job.kind == "derive" and not derive_matches(job, out):
            return "iterate differs from the reference derivation"
        digest = sha256(stdout)
        want = self.digests.get(job.id) or self.seen.setdefault(job.id, digest)
        if digest != want:
            return f"stdout sha256 {digest[:12]}, expected {want[:12]}"
        return None


def classify_probe(returncode: int, stdout: bytes, stderr: bytes) -> str:
    """ok, refusal, crash or vacuous, as the exit-code contract reads them.

    A refusal exits 2 with an ``error:`` line.  A crash shows a traceback,
    or exits 1 without a failed check.  A vacuous result is a PASS resting
    on zero checks.  Anything else is ``failed`` (a check failed, exit 1)
    or ``other``.
    """
    out = stdout.decode("utf-8", "replace")
    err = stderr.decode("utf-8", "replace")
    if TRACEBACK in err:
        return "crash"
    if returncode == 2:
        return "refusal" if any(l.startswith("error:") for l in err.splitlines()) else "other"
    is_report = any(_SUMMARY_RE.match(l) for l in out.splitlines())
    try:
        rows = verify_rows(out) if is_report else None
    except ValueError:
        rows = None
    if returncode == 1:
        return "failed" if rows and not all(r[3] for r in rows) else "crash"
    if returncode == 0:
        if is_report and rows == []:
            return "vacuous"
        return "ok" if out.strip() else "other"
    return "other"


UNCLASSIFIED = ("crash", "vacuous", "other")
