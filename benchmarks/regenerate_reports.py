"""Rewrite the golden reports in ``benchmarks/reports/`` from the current code.

The benchmark tests check each rendered report against its golden file and
never write it.  After an intended report change, regenerate every file and
review the diff before committing it::

    python benchmarks/regenerate_reports.py

The script calls each ``benchmarks/test_*.py`` benchmark with a stand-in for
pytest-benchmark's ``benchmark`` fixture that runs the function once,
untimed, and a ``save_report`` that writes the file.  So a golden file holds
exactly what its test checks, and the tests' own assertions still run.
Table 5 trains six networks, so a run takes about half a minute.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
REPORTS_DIR = HERE / "reports"


class RunOnce:
    """The ``benchmark`` fixture's call forms, running the function once."""

    def __call__(self, function: Callable, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, function: Callable, args=(), kwargs=None, **_timing):
        return function(*args, **(kwargs or {}))


def benchmark_tests() -> Iterator[Callable]:
    """Every test of ``benchmarks/test_*.py`` that times and saves a report."""
    for path in sorted(HERE.glob("test_*.py")):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, function in vars(module).items():
            if name.startswith("test_") and callable(function):
                parameters = inspect.signature(function).parameters
                if {"benchmark", "save_report"} <= set(parameters):
                    yield function


def main() -> int:
    written = []

    def write(name: str, content: str) -> Path:
        path = REPORTS_DIR / f"{name}.txt"
        path.write_text(content + "\n", encoding="utf-8")
        written.append(path.name)
        return path

    for test in benchmark_tests():
        test(benchmark=RunOnce(), save_report=write)
    print(f"wrote {len(written)} reports to {REPORTS_DIR}: {', '.join(sorted(written))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
