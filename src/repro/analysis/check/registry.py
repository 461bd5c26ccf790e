"""The rule registry: stable IDs, severities and per-rule documentation.

Every invariant the checker enforces is registered here as a :class:`Rule`
with a stable ID the rest of the tooling hangs off: ``--select``/``--ignore``
filters, inline ``# repro: allow(RPR-...)`` suppressions, the JSON findings
artifact and the README rule table all speak these IDs.

ID scheme (three rule families plus cross-cutting hygiene):

* ``RPR-Dxxx`` -- determinism: the byte-identical-reports guarantee.
* ``RPR-Txxx`` -- concurrency: thread-safety of the shared-state modules.
* ``RPR-Cxxx`` -- consistency: dotted path literals vs. the live schemas.
* ``RPR-Hxxx`` -- hygiene: error-handling discipline.
* ``RPR-Sxxx`` -- the checker's own bookkeeping (unused suppressions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.check.findings import SEVERITIES


@dataclass(frozen=True)
class Rule:
    """One registered invariant.

    Attributes:
        rule_id: stable identifier (``RPR-D001``, ...).
        family: rule family (``determinism``, ``concurrency``, ``consistency``,
            ``hygiene``, ``checker``).
        severity: default severity of the rule's findings.
        summary: one-line description (the README rule-table entry).
        rationale: which repo invariant the rule encodes, and why.
        scope: human-readable description of where the rule applies.
    """

    rule_id: str
    family: str
    severity: str
    summary: str
    rationale: str
    scope: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.rule_id}: unknown severity {self.severity!r}; "
                f"choose from {list(SEVERITIES)}"
            )


#: All registered rules, in report order.
RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="RPR-D001",
        family="determinism",
        severity="error",
        summary="wall-clock or seedless RNG in a deterministic module",
        rationale=(
            "Reports must be byte-identical across runs: the golden-report "
            "regression gate (PR 1) and the warm-cache byte-identity "
            "guarantees (PRs 4-8) both die the moment simulation results "
            "depend on time.time()/datetime.now() or an unseeded RNG.  "
            "time.perf_counter() is allowed (stats go to stderr only)."
        ),
        scope=(
            "src/repro/** except repro/serve/ (uptime metrics are wall-clock "
            "by design); tests, benchmarks and examples are exempt"
        ),
    ),
    Rule(
        rule_id="RPR-D002",
        family="determinism",
        severity="error",
        summary="accumulation-reordering kernel in an exact-arithmetic module",
        rationale=(
            "PR 5's bit-exactness gate measured BLAS matmul/tensordot and "
            "einsum(optimize=True) to reorder FP32 accumulation, changing "
            "trained weights bit-for-bit; the gate rejected them.  The `@` "
            "operator, np.matmul, np.dot, np.tensordot and non-False einsum "
            "optimize= are therefore banned in the exact compute modules."
        ),
        scope="src/repro/capsnet/** and src/repro/arithmetic/**",
    ),
    Rule(
        rule_id="RPR-D003",
        family="determinism",
        severity="error",
        summary="iteration over an unordered set feeds rendered output",
        rationale=(
            "Set iteration order depends on PYTHONHASHSEED for strings; a "
            "report row, label list or joined string built by iterating a "
            "set directly can differ between runs.  Wrap the set in "
            "sorted(...) or iterate an ordered container instead.  "
            "Order-insensitive consumers (len/any/all/min/max/`in`) are fine."
        ),
        scope="src/repro/**",
    ),
    Rule(
        rule_id="RPR-T001",
        family="concurrency",
        severity="error",
        summary="module-level state mutated outside a lock in a threaded module",
        rationale=(
            "Modules that import threading/concurrent.futures run their "
            "functions on many threads (serve handlers, queue heartbeats, "
            "cache flushers).  Module-level registries, caches and flags in "
            "those modules must only be mutated inside a `with <lock>:` "
            "block, the pattern the experiment/strategy registries and both "
            "disk caches already follow."
        ),
        scope="src/repro/** modules importing threading or concurrent.futures",
    ),
    Rule(
        rule_id="RPR-T002",
        family="concurrency",
        severity="error",
        summary="cache file written without the atomic-publish pattern",
        rationale=(
            "The disk caches and the sweep work queue promise that readers "
            "only ever see complete files: every publish goes through a "
            "temp file + os.replace (or an O_CREAT|O_EXCL claim).  A plain "
            "write-mode open in those modules can expose a torn shard to a "
            "concurrent reader."
        ),
        scope="src/repro/engine/diskcache.py and src/repro/sweep/queue.py",
    ),
    Rule(
        rule_id="RPR-T003",
        family="concurrency",
        severity="error",
        summary="hardened-module write I/O bypasses the shared retry helper",
        rationale=(
            "The fault-injection PR hardened the disk caches and the sweep "
            "work queue against transient I/O errors: every publish runs "
            "under repro.faults.retry.with_retries (deterministic backoff, "
            "fatal errnos fail fast).  A new write path that bypasses the "
            "helper silently reintroduces lost-publish behavior under the "
            "exact faults the chaos suite injects.  O_CREAT|O_EXCL claim "
            "writes are exempt: a lost claim race is contention, not a "
            "fault."
        ),
        scope="src/repro/engine/diskcache.py and src/repro/sweep/queue.py",
    ),
    Rule(
        rule_id="RPR-C001",
        family="consistency",
        severity="error",
        summary="scenario override path not in the live Scenario schema",
        rationale=(
            "Dotted scenario paths (--set KEY=VALUE, sweep axes, "
            "with_overrides keys) are string literals that silently rot "
            "when a Scenario/HMCConfig field is renamed.  The checker "
            "resolves every literal against the live schema "
            "(override_keys / canonical_axis_key), so stale paths die in "
            "CI instead of at a user's terminal."
        ),
        scope="Python calls and CLI literals, sweep-spec JSON, markdown docs",
    ),
    Rule(
        rule_id="RPR-C002",
        family="consistency",
        severity="error",
        summary="experiment.metric path not offered by the experiment registry",
        rationale=(
            "Optimization objectives and constraints name dotted "
            "experiment.metric paths into the experiments' headline "
            "numbers.  The checker validates every literal against the "
            "live experiment registry and each result dataclass's numeric "
            "fields, so a renamed metric breaks the build, not a query."
        ),
        scope="Python calls and CLI literals, objective-spec JSON, markdown docs",
    ),
    Rule(
        rule_id="RPR-H001",
        family="hygiene",
        severity="error",
        summary="broad or bare exception handler",
        rationale=(
            "`except Exception` / bare `except` hide invariant violations "
            "the rest of the suite is built to surface (an unexpected "
            "KeyError becomes a silent wrong number).  Catch the specific "
            "errors a call site can raise.  Handlers that re-raise bare "
            "(cleanup-then-raise) are exempt; genuinely-broad swallowing "
            "handlers (a server's last-resort 500 path) carry an explicit "
            "allow annotation explaining why."
        ),
        scope="all checked Python files",
    ),
    Rule(
        rule_id="RPR-S001",
        family="checker",
        severity="warning",
        summary="suppression comment that suppresses nothing",
        rationale=(
            "An `# repro: allow(...)` annotation whose violation has since "
            "been fixed is dead weight that can mask a future regression "
            "at the same site; remove it."
        ),
        scope="all checked files, for rules that ran on the file",
    ),
)

#: Rule lookup by ID.
RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


def rule_ids() -> List[str]:
    """Every registered rule ID, in report order."""
    return [rule.rule_id for rule in RULES]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by ID."""
    try:
        return RULES_BY_ID[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; registered rules: {rule_ids()}"
        ) from None


def resolve_selection(
    select: Optional[Iterable[str]] = None, ignore: Optional[Iterable[str]] = None
) -> Set[str]:
    """The active rule-ID set under ``--select`` / ``--ignore`` filters.

    ``select`` starts from only the named rules (default: all), ``ignore``
    then removes rules.  Unknown IDs raise :class:`ValueError` listing the
    registered ones; selecting everything away raises too (an empty check
    would vacuously pass CI).
    """
    known = set(rule_ids())
    active = set(known)
    if select is not None:
        selected = {str(item).strip() for item in select if str(item).strip()}
        unknown = sorted(selected - known)
        if unknown:
            raise ValueError(
                f"unknown rule(s) in --select: {unknown}; "
                f"registered rules: {rule_ids()}"
            )
        active = selected
    if ignore is not None:
        ignored = {str(item).strip() for item in ignore if str(item).strip()}
        unknown = sorted(ignored - known)
        if unknown:
            raise ValueError(
                f"unknown rule(s) in --ignore: {unknown}; "
                f"registered rules: {rule_ids()}"
            )
        active -= ignored
    if not active:
        raise ValueError("the --select/--ignore combination leaves no rules active")
    return active


def format_rule_table() -> str:
    """The ``repro check --list-rules`` table (also the README source)."""
    from repro.analysis.tables import format_table

    return format_table(
        headers=["Rule", "Family", "Severity", "Checks"],
        rows=[
            [rule.rule_id, rule.family, rule.severity, rule.summary]
            for rule in RULES
        ],
        title=f"repro check rules ({len(RULES)})",
    )
