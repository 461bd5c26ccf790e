"""The golden gate: a changed report fails, and its golden file stays as committed.

Every benchmark checks its rendered report with the ``save_report`` fixture
(``conftest.py``); a report that differs from ``benchmarks/reports/`` must
fail the run instead of overwriting the file it is checked against.
"""

from pathlib import Path

import pytest

REPORTS_DIR = Path(__file__).parent / "reports"


@pytest.mark.parametrize("name", sorted(path.stem for path in REPORTS_DIR.glob("*.txt")))
def test_changed_report_fails_and_leaves_its_golden_file(save_report, name):
    path = REPORTS_DIR / f"{name}.txt"
    before = path.read_bytes()
    report = before.decode("utf-8")[: -len("\n")]
    save_report(name, report)
    for changed in (report + " ", report.replace("\n", "\n ", 1), ""):
        with pytest.raises(pytest.fail.Exception, match="differs from its golden file"):
            save_report(name, changed)
    assert path.read_bytes() == before
