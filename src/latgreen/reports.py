"""Small result records returned by cross-validation routines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an exact coefficient-level comparison."""

    passed: bool
    checked_through: int
    first_mismatch: int | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed


def compare(a: Sequence[int], b: Sequence[int], note: str) -> VerifyReport:
    """Entry-by-entry equality of two exact tables over their common length."""
    n = min(len(a), len(b)) - 1
    for i in range(n + 1):
        if a[i] != b[i]:
            return VerifyReport(False, n, i, note)
    return VerifyReport(True, n, note=note)


@dataclass
class ConditionReport:
    """One named condition inside a multi-part check."""

    name: str
    passed: bool
    detail: str = ""
