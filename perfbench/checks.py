"""Correctness checks applied to every op before any figure is printed.

An op fails on a non-PASS verdict, on a result that differs from the
workload's reference digest, on a non-zero exit, or on a shed or error
event.  Failed ops are counted, never dropped.
"""

from __future__ import annotations

import hashlib
import json


def report_rows(report) -> list[tuple]:
    """One row per run: (environment, cell, target, derivative, status,
    signature, simulated instructions, simulated cycles)."""
    return sorted(
        (
            env,
            cell,
            target,
            result.derivative,
            result.status.value,
            result.signature,
            result.instructions,
            result.cycles,
        )
        for (env, cell, target), result in report.results.items()
    )


def rows_digest(rows: list[tuple]) -> str:
    """SHA-256 over sorted result rows."""
    text = json.dumps([list(row) for row in rows], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    """SHA-256 over :func:`report_rows`."""
    return rows_digest(report_rows(report))


def judge_report(report, expected_runs: int, reference: str | None) -> list[str]:
    """Problems with one regression report; empty when the op passed."""
    problems = [
        f"{env}/{cell} on {target}: {result.status.value}"
        for (env, cell, target), result in sorted(report.results.items())
        if result.status.value != "pass"
    ]
    if len(report.results) != expected_runs:
        problems.append(f"{len(report.results)} runs, expected {expected_runs}")
    if reference is not None and report_digest(report) != reference:
        problems.append("result digest differs from the reference")
    return problems


class Tally:
    """Attempted and failed op counts, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems[:3]))
        return not problems

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
