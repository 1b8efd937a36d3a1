"""Pass/fail reporting shared by the verification routines.

Failures are data, not exceptions: a check that misses is recorded with the
first offending position and the sweep continues, so a transcription error
in one row cannot hide later ones.
"""

from __future__ import annotations

from collections import namedtuple

Check = namedtuple("Check", "name n ok detail", defaults=("",))


class Report:
    """The checks of one target, in the order they ran."""

    __slots__ = ("target", "checks")

    def __init__(self, target: str, checks: list[Check] | None = None):
        self.target = target
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return self.target == other.target and self.checks == other.checks

    __hash__ = None  # mutable: checks are added as a sweep runs

    def __repr__(self):
        return f"Report(target={self.target!r}, checks={self.checks!r})"

    @property
    def ok(self) -> bool:
        """True when every check passed; a report with no checks proves nothing."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def expect(self, name: str, n: int, got, want) -> None:
        """Add a check that got == want, naming both values when they differ."""
        ok = got == want
        self.add(Check(name, n, ok, "" if ok else f"got {got}, want {want}"))

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"{self.target}: {c.name} n={c.n}: {status}{suffix}")
        out.append(f"{self.target}: {'PASS' if self.ok else 'FAIL'}")
        return out

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "n": c.n, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
        }
