"""Machine-readable verification reports shared by the checkers and the CLI."""

from __future__ import annotations

import json
import time


class Check:
    def __init__(self, name, passed, expected="", actual="", location=""):
        self.name = name
        self.passed = passed
        self.expected = expected
        self.actual = actual
        self.location = location  # anchor naming the claim being checked

    def to_dict(self):
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "expected": self.expected,
            "actual": self.actual,
            "location": self.location,
        }


class VerificationReport:
    """Checks under a title; started defaults to the time of construction,
    and finish() sets wall_time."""

    def __init__(self, title, checks=None, started=None, wall_time=0.0):
        self.title = title
        self.checks = [] if checks is None else checks
        self.started = time.monotonic() if started is None else started
        self.wall_time = wall_time

    def add(self, check: Check):
        self.checks.append(check)

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    def finish(self):
        self.wall_time = time.monotonic() - self.started
        return self

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def counts(self):
        ok = sum(1 for c in self.checks if c.passed)
        return {"pass": ok, "fail": len(self.checks) - ok}

    def to_dict(self):
        return {
            "title": self.title,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.counts,
            "wall_time": self.wall_time,
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), indent=2, **kw)

    def __str__(self):
        lines = [self.title]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}"
            if not c.passed:
                line += f" (expected {c.expected}, got {c.actual})"
            lines.append(line)
        counts = self.counts
        lines.append(f"  {counts['pass']} passed, {counts['fail']} failed")
        return "\n".join(lines)
