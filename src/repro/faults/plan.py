"""Fault plans: what fails, how, and on which call -- as replayable data.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries.  Each rule
names a registered fault point (or an ``fnmatch`` pattern over them, e.g.
``diskcache.*``), an action, and a *call-count window*: the rule fires on
calls ``after <= n < after + times`` of the matching point (0-indexed,
``times=None`` meaning forever).  Triggers are pure counters -- no wall
clock, no randomness -- so arming the same plan against the same workload
reproduces the same failures byte-identically.

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) and load from either inline JSON or a file
path (:meth:`FaultPlan.load`), which is exactly what the ``REPRO_FAULTS``
environment variable accepts::

    REPRO_FAULTS='{"rules": [{"point": "queue.done.publish", "action": "crash"}]}'

Validation is strict and early: unknown points, actions or errno names
raise :class:`ValueError` at construction, never silently no-op at the
fault site.
"""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Optional, Tuple

#: Schema version of the plan's JSON shape.
PLAN_SCHEMA_VERSION = 1

#: Every registered fault point, with the failure it simulates.  The
#: injection hook rejects unregistered names, so a typo at a call site (or
#: in a plan) fails loudly instead of never firing.
FAULT_POINTS: Dict[str, str] = {
    "diskcache.shard.read": "reading one simulation-cache shard file (a base or a delta)",
    "diskcache.flush.write": "writing a delta or compacted base temp file (torn writes)",
    "diskcache.flush.replace": "publishing a delta or compacted base via os.replace onto a new name",
    "modelcache.read": "reading a trained-model artifact from disk",
    "modelcache.write": "writing a model temp file during put (torn writes)",
    "modelcache.replace": "atomically publishing a model artifact via os.replace",
    "queue.lease.claim": "creating a shard lease file (O_CREAT|O_EXCL)",
    "queue.shard.execute": "executing a claimed shard's grid slice",
    "queue.done.publish": "publishing a shard's done-file (torn writes)",
    "queue.heartbeat.write": "writing/refreshing a worker heartbeat file",
    "sweep.point.execute": "executing one scalar sweep point",
    "serve.handler.execute": "executing a serve run/compare handler body",
}

#: The supported fault actions.
ACTIONS: Tuple[str, ...] = ("error", "truncate", "crash", "sleep")


@dataclass(frozen=True)
class FaultRule:
    """One injected failure.

    Attributes:
        point: registered fault-point name or ``fnmatch`` pattern over them
            (must match at least one registered point).
        action: ``error`` raises :class:`OSError` with errno ``error``;
            ``truncate`` tears the file the fault site is about to publish
            (keeps ``keep_bytes`` bytes, half the file by default);
            ``crash`` SIGKILLs the current process (uncatchable, like a
            power cut or an OOM kill); ``sleep`` stalls for ``seconds``
            through the injectable sleep hook.
        error: errno symbol for ``action="error"`` (``"EIO"``, ``"ENOSPC"``,
            ``"EACCES"``, ...).
        after: matching calls to skip before firing (0 = fire on the first).
        times: how many consecutive matching calls fire (``None`` = forever).
        seconds: stall duration for ``action="sleep"``.
        keep_bytes: bytes kept by ``action="truncate"`` (``None`` = half).
    """

    point: str
    action: str = "error"
    error: str = "EIO"
    after: int = 0
    times: Optional[int] = 1
    seconds: float = 0.0
    keep_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from {list(ACTIONS)}"
            )
        if not any(fnmatchcase(name, self.point) for name in FAULT_POINTS):
            raise ValueError(
                f"fault point pattern {self.point!r} matches no registered "
                f"point; registered: {sorted(FAULT_POINTS)}"
            )
        if self.action == "error":
            self.errno_code  # validates the symbol
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or null, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    @property
    def errno_code(self) -> int:
        """The numeric errno behind the rule's ``error`` symbol."""
        code = getattr(errno, self.error, None)
        if not isinstance(code, int):
            raise ValueError(f"unknown errno symbol {self.error!r}")
        return code

    def matches(self, name: str) -> bool:
        """True when this rule covers the named fault point."""
        return fnmatchcase(name, self.point)

    def triggers(self, seen: int) -> bool:
        """True when the ``seen``-th matching call (0-indexed) should fire."""
        if seen < self.after:
            return False
        return self.times is None or seen < self.after + self.times

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "action": self.action,
            "error": self.error,
            "after": self.after,
            "times": self.times,
            "seconds": self.seconds,
            "keep_bytes": self.keep_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        if not isinstance(payload, dict):
            raise ValueError(f"fault rule must be an object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - {
            "point", "action", "error", "after", "times", "seconds", "keep_bytes"
        })
        if unknown:
            raise ValueError(f"unknown fault rule key(s): {unknown}")
        if "point" not in payload:
            raise ValueError("fault rule is missing the required 'point' key")
        return cls(
            point=str(payload["point"]),
            action=str(payload.get("action", "error")),
            error=str(payload.get("error", "EIO")),
            after=int(payload.get("after", 0)),
            times=(
                None
                if payload.get("times", 1) is None
                else int(payload.get("times", 1))
            ),
            seconds=float(payload.get("seconds", 0.0)),
            keep_bytes=(
                None
                if payload.get("keep_bytes") is None
                else int(payload["keep_bytes"])
            ),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault rules; the first matching rule owns a point."""

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValueError(f"fault plan must be an object, got {type(payload).__name__}")
        schema = payload.get("schema", PLAN_SCHEMA_VERSION)
        if schema != PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fault plan schema {schema!r} "
                f"(this build reads schema {PLAN_SCHEMA_VERSION})"
            )
        rules = payload.get("rules", [])
        if not isinstance(rules, list):
            raise ValueError("fault plan 'rules' must be a list")
        return cls(rules=tuple(FaultRule.from_dict(rule) for rule in rules))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def load(cls, source: str) -> "FaultPlan":
        """A plan from inline JSON (leading ``{``) or a plan-file path."""
        stripped = source.strip()
        if stripped.startswith("{"):
            return cls.from_json(stripped)
        try:
            with open(source, encoding="utf-8") as stream:
                text = stream.read()
        except OSError as error:
            raise ValueError(
                f"fault plan source {source!r} is neither inline JSON nor a "
                f"readable file: {error}"
            ) from error
        return cls.from_json(text)
