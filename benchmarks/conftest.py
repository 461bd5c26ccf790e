"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and checks
the rendered report (the same rows/series the paper plots) against its
golden file, ``benchmarks/reports/<name>.txt``; the pytest-benchmark timings
measure how long the reproduction takes.  The tests never write the golden
files: after an intended report change, ``python
benchmarks/regenerate_reports.py`` rewrites them for review.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import pytest

REPORTS_DIR = Path(__file__).parent / "reports"


def check_report(name: str, content: str) -> Path:
    """Fail unless ``content`` equals the golden report ``<name>.txt``."""
    path = REPORTS_DIR / f"{name}.txt"
    if content + "\n" != path.read_text(encoding="utf-8"):
        pytest.fail(
            f"report {name!r} differs from its golden file {path}; if the "
            f"change is intended, run python benchmarks/regenerate_reports.py "
            f"and review the diff",
            pytrace=False,
        )
    return path


@pytest.fixture
def save_report() -> Callable[[str, str], Path]:
    """Check a rendered report against ``benchmarks/reports/<name>.txt``."""
    return check_report
