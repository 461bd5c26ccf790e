"""Output checks.  Each returns a list of problems; empty means correct.

* ``repro reproduce --skip table5``: the nine deterministic sections equal
  the golden files in ``benchmarks/reports/``.
* ``repro reproduce --benchmarks Caps-MN1`` (Table 5 included) and
  ``repro sweep``: the report equals the digest recorded in
  ``digests.json`` (per input plan for sweeps).
* warm passes: same bytes as the cold pass, and no simulation or training
  (the cache directory is left untouched, the CLI's own counters say 0).
* ``POST /v1/run``: a 200 whose report equals the CLI's for the same request.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Experiment -> golden report file, for the deterministic experiments, in
#: report order.
GOLDEN_REPORTS = {
    "fig04": "fig04_layer_breakdown.txt",
    "fig05": "fig05_stall_breakdown.txt",
    "fig06": "fig06_onchip_storage.txt",
    "fig07": "fig07_bandwidth.txt",
    "fig15": "fig15_rp_speedup.txt",
    "fig16": "fig16_pim_breakdown.txt",
    "fig17": "fig17_overall.txt",
    "fig18": "fig18_frequency.txt",
    "overhead": "overhead_analysis.txt",
}

#: Experiments of ``repro reproduce``, in report order.
EXPERIMENTS = (
    "fig04", "fig05", "fig06", "fig07", "fig15", "fig16", "fig17", "fig18", "table5", "overhead",
)

DIGESTS_PATH = Path(__file__).with_name("digests.json")
SEPARATOR = "=" * 78

_SECTION = re.compile(r"^={78}\n(\w+)\n={78}\n", re.MULTILINE)
_SWEEP_STATS = re.compile(
    r"(\d+) cells, (\d+) simulations executed, disk cache: (\d+) hits, (\d+) misses"
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def sections(text: str) -> Dict[str, str]:
    """The sections of a ``repro reproduce`` report, by experiment name."""
    parts = _SECTION.split(text)
    found: Dict[str, str] = {}
    for index in range(1, len(parts) - 1, 2):
        body = parts[index + 1]
        # Sections are joined by a blank line; the last ends with one newline.
        ending = "\n" if index + 2 >= len(parts) else "\n\n"
        found[parts[index]] = body[: -len(ending)] if body.endswith(ending) else body
    return found


def check_golden(text: str, golden_dir: Path) -> List[str]:
    """``repro reproduce --skip table5``: each section equals its golden file."""
    problems = []
    found = sections(text)
    for name, filename in GOLDEN_REPORTS.items():
        golden = (Path(golden_dir) / filename).read_text(encoding="utf-8")
        if found.get(name) is None:
            problems.append(f"reproduce: section {name} missing")
        elif found[name] + "\n" != golden:
            problems.append(f"reproduce: section {name} differs from {filename}")
    if not problems:
        expected = "\n\n".join(
            f"{SEPARATOR}\n{name}\n{SEPARATOR}\n{found[name]}" for name in GOLDEN_REPORTS
        )
        if text != expected + "\n":
            problems.append("reproduce: sections out of order, or text outside them")
    return problems


def check_digest(label: str, text: str, expected: Optional[str]) -> List[str]:
    if expected is None:
        return [f"{label}: no recorded digest"]
    return [] if digest(text) == expected else [f"{label}: report differs from its recorded digest"]


def check_warm(label: str, cold: str, warm: str) -> List[str]:
    return [] if cold == warm else [f"{label}: warm report differs from the cold one"]


def sweep_stats(stderr: str) -> Optional[Tuple[int, int, int, int]]:
    """``(cells, simulations, hits, misses)`` from the CLI's stat line."""
    match = _SWEEP_STATS.search(stderr)
    return tuple(int(group) for group in match.groups()) if match else None  # type: ignore[return-value]


def check_warm_sweep(stderr: str) -> List[str]:
    stats = sweep_stats(stderr)
    if stats is None:
        return ["sweep: no statistics line on stderr"]
    _, simulations, _, misses = stats
    if simulations or misses:
        return [f"sweep: warm pass ran {simulations} simulations with {misses} cache misses"]
    return []


def check_untouched(label: str, before: dict, after: dict) -> List[str]:
    """A warm pass must not write the caches: no simulation, no training."""
    return [] if before == after else [f"{label}: warm pass wrote the cache directory"]


def snapshot(directory: Path) -> dict:
    """``{relative path: (size, mtime_ns)}`` of every file below ``directory``."""
    root = Path(directory)
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def check_run_response(status: int, body: bytes, expected_report: Optional[str]) -> List[str]:
    """One ``POST /v1/run`` reply; ``expected_report`` is the CLI's stdout."""
    if status != 200:
        return [f"serve: HTTP {status}"]
    try:
        payload = json.loads(body.decode("utf-8"))
        report = payload["report"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return ["serve: reply is not a run result"]
    if not isinstance(report, str) or not report:
        return ["serve: empty report"]
    if expected_report is not None and report + "\n" != expected_report:
        return ["serve: report differs from the CLI's"]
    return []
