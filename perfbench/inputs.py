"""Seeded inputs of the workloads.

The seed draws the ``sweep-freq`` axis values and the ``serve`` request plan
(the hot/novel order and the novel values); the program only ever sees the
generated spec files and request bodies.  ``reproduce`` is a fixed job and
ignores the seed.  Sweep reports are checked against digests recorded per
input plan, so a seed selects plan ``seed % PLANS``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: The Table-1 benchmark ``reproduce`` runs every experiment for.  Table 5
#: then trains one network (~3 s) instead of six (~20 s), so one run holds
#: several cold passes.
REPRODUCE_BENCHMARK = "Caps-MN1"

#: Number of recorded sweep input plans (``digests.json``).
PLANS = 32

#: The four end-to-end design points ``benchmarks/bench_sweep.py`` sweeps.
DESIGNS = ["pim-capsnet", "all-in-pim", "rmas-pim", "rmas-gpu"]

#: Distinct PE frequencies of a ``sweep-freq`` plan (x 4 PE counts = points).
FREQUENCIES = 100

#: Experiments every ``serve`` request runs (the ``repro evaluate`` set).
SERVE_EXPERIMENTS = ["fig15", "fig16", "fig17"]

#: The hot scenarios: fewer than the server's 8 warm sessions.
HOT_SETS: List[List[str]] = [
    [],
    ["hmc.pe_frequency_mhz=625"],
    ["hmc.pes_per_vault=8"],
    ["pipeline_batches=16"],
]

#: Share of ``serve`` requests that name a scenario never seen before.
NOVEL_SHARE = 0.1


def plan_of(seed: int) -> int:
    return seed % PLANS


def sweep_freq_spec(seed: int) -> dict:
    """PE frequency x PEs per vault: eligible for the vectorized backend."""
    rng = random.Random(f"sweep-freq:{plan_of(seed)}")
    frequencies = set()
    while len(frequencies) < FREQUENCIES:
        frequencies.add(round(rng.uniform(200.0, 1250.0), 1))
    return {
        "name": f"perfbench-freq-{plan_of(seed)}",
        "axes": [
            {"key": "hmc.pe_frequency_mhz", "values": sorted(frequencies)},
            {"key": "hmc.pes_per_vault", "values": [4, 8, 16, 32]},
        ],
        "designs": DESIGNS,
        "kind": "end-to-end",
    }


def run_body(overrides: List[str]) -> dict:
    body: Dict[str, object] = {"experiments": list(SERVE_EXPERIMENTS)}
    if overrides:
        body["set"] = list(overrides)
    return body


def cli_argv(overrides: List[str]) -> List[str]:
    """The ``repro`` command that prints what ``POST /v1/run`` answers."""
    argv = ["reproduce", "--only", *SERVE_EXPERIMENTS]
    for override in overrides:
        argv += ["--set", override]
    return argv


class RequestPlan:
    """The seeded request sequence of ``serve``: ``(hot index or None, body)``.

    Not thread-safe: callers draw under their own lock, so the sequence of
    requests sent is the same for a seed whichever connection sends each.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve:{seed}")
        self._used = {312.5, 625.0}

    def next(self) -> Tuple[object, dict]:
        if self._rng.random() < NOVEL_SHARE:
            while True:
                frequency = round(self._rng.uniform(150.0, 1400.0), 3)
                if frequency not in self._used:
                    break
            self._used.add(frequency)
            return None, run_body([f"hmc.pe_frequency_mhz={frequency!r}"])
        index = self._rng.randrange(len(HOT_SETS))
        return index, run_body(HOT_SETS[index])
