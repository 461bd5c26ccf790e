"""Record the report digests the output checks compare against.

Run from the root of a checkout whenever a change is *meant* to alter
simulated or trained results::

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: the SHA-256 of the ``repro reproduce``
report of :data:`perfbench.inputs.REPRODUCE_BENCHMARK` (Table 5 included)
and of the ``repro sweep`` report of every ``sweep-freq`` input plan
(:data:`perfbench.inputs.PLANS`).  A performance or simplicity change must
leave every one of them unchanged.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, inputs  # noqa: E402


def capture(argv) -> str:
    from repro import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=Path.cwd()))
    try:
        reproduce = capture(["reproduce", "--benchmarks", inputs.REPRODUCE_BENCHMARK, "--no-cache"])
        digests = {"reproduce": checks.digest(reproduce), "sweep-freq": {}}
        for plan in range(inputs.PLANS):
            spec = work / f"sweep-freq-{plan}.json"
            spec.write_text(json.dumps(inputs.sweep_freq_spec(plan)), encoding="utf-8")
            report = capture(["sweep", "--spec", str(spec), "--cache-dir", str(work / "cache")])
            digests["sweep-freq"][str(plan)] = checks.digest(report)
            print(f"sweep-freq plan {plan}: {digests['sweep-freq'][str(plan)][:12]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
