"""Declarative capsule-network workload specs and the workload catalog.

PR 2 made *hardware* a first-class input (:class:`~repro.api.scenario.
Scenario`); this module opens the other half of the design space: the
*workload*.  A :class:`WorkloadSpec` describes one capsule network the way
Table 1 describes the paper's twelve benchmarks -- dataset shape, batch
size, capsule counts and dimensions, routing algorithm and iteration count
-- as a frozen, validated, JSON-round-trippable value::

    spec = WorkloadSpec(
        name="Caps-Custom",
        dataset={"name": "TRAFFIC-SIGNS", "image_shape": [3, 48, 48], "num_classes": 43},
        batch_size=128,
        num_low_capsules=2048,
        num_high_capsules=43,
        routing_iterations=4,
    )

The :class:`WorkloadCatalog` is the immutable name -> spec mapping every
run resolves benchmarks through: :func:`default_catalog` seeds it with the
Table-1 networks, and :meth:`WorkloadCatalog.with_specs` merges user-defined
specs on top, so custom networks flow through the same engine, figures and
comparison tooling as the paper's benchmarks.  Lookups are case-insensitive
(one shared normalization for the CLI, :class:`~repro.api.scenario.Scenario`
validation and the engine).

**Routing algorithms.**  ``routing`` accepts ``dynamic`` (Sabour et al.) or
``em`` (Hinton et al.); :meth:`WorkloadSpec.routing_workload` returns the
matching analytic model (:class:`~repro.workloads.rp_model.RoutingWorkload`
or :class:`~repro.workloads.em_model.EMRoutingWorkload`).  The performance
figures simulate EM workloads through the dynamic-equivalent footprint (the
vote tensor dominates both algorithms identically -- see
:mod:`repro.workloads.em_model`), so an ``em`` spec runs everywhere a
``dynamic`` one does.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.capsnet.datasets import DATASET_SPECS, DatasetSpec
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkConfig


class RoutingAlgorithm(str, Enum):
    """Routing algorithm of a capsule network workload."""

    DYNAMIC = "dynamic"
    EM = "em"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def routing_algorithm(value: Union[str, "RoutingAlgorithm"]) -> "RoutingAlgorithm":
    """Coerce a routing-algorithm name, with a helpful error on typos."""
    if isinstance(value, RoutingAlgorithm):
        return value
    try:
        return RoutingAlgorithm(str(value).strip().lower())
    except ValueError:
        known = [algorithm.value for algorithm in RoutingAlgorithm]
        raise ValueError(
            f"unknown routing algorithm {value!r}; choose from {known}"
        ) from None


def _int_field(value: object, label: str) -> int:
    """Coerce a numeric field to int, rejecting non-integral values."""
    if isinstance(value, int):
        return value
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a number, got {value!r}") from None
    if not number.is_integer():
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(number)


def _canonical_dataset_name(name: str) -> str:
    """Normalize a dataset name the way :func:`dataset_for_benchmark` does."""
    return str(name).strip().upper().replace(" ", "-").replace("_", "-")


def _dataset_from(value: object) -> Union[str, DatasetSpec]:
    """Resolve a workload's dataset field: a catalog name or an inline spec."""
    if isinstance(value, DatasetSpec):
        return _validated_dataset_spec(value)
    if isinstance(value, Mapping):
        known = {f.name for f in dataclasses.fields(DatasetSpec)}
        unknown = sorted(set(value) - known)
        if unknown:
            raise ValueError(
                f"unknown dataset key(s) {unknown}; valid keys: {sorted(known)}"
            )
        missing = sorted(known - set(value))
        if missing:
            raise ValueError(f"inline dataset spec is missing key(s) {missing}")
        shape = value["image_shape"]
        try:
            shape = tuple(_int_field(dim, "image_shape dimension") for dim in shape)
        except TypeError:
            raise ValueError(
                f"dataset image_shape must be (channels, height, width), got {shape!r}"
            ) from None
        spec = DatasetSpec(
            name=str(value["name"]),
            image_shape=shape,  # type: ignore[arg-type]
            num_classes=_int_field(value["num_classes"], "num_classes"),
        )
        return _validated_dataset_spec(spec)
    if isinstance(value, str):
        canonical = _canonical_dataset_name(value)
        if canonical not in DATASET_SPECS:
            raise ValueError(
                f"unknown dataset {value!r}; known datasets: {sorted(DATASET_SPECS)} "
                f"(or pass an inline spec with name/image_shape/num_classes)"
            )
        return canonical
    raise ValueError(
        f"dataset must be a known dataset name or an inline spec mapping, "
        f"got {type(value).__name__}"
    )


def _validated_dataset_spec(spec: DatasetSpec) -> DatasetSpec:
    if not spec.name or not str(spec.name).strip():
        raise ValueError("dataset name must be a non-empty string")
    shape = tuple(spec.image_shape)
    if len(shape) != 3 or any(int(dim) < 1 for dim in shape):
        raise ValueError(
            f"dataset image_shape must be three positive dimensions "
            f"(channels, height, width), got {spec.image_shape!r}"
        )
    if int(spec.num_classes) < 2:
        raise ValueError("dataset num_classes must be >= 2")
    if shape != spec.image_shape:
        spec = dataclasses.replace(spec, image_shape=shape)
    return spec


@dataclass(frozen=True)
class WorkloadSpec:
    """One declarative capsule-network workload (frozen, hashable).

    Attributes:
        name: workload name used in every report and lookup.
        dataset: a known dataset name (``"MNIST"``, case-insensitive) or an
            inline :class:`~repro.capsnet.datasets.DatasetSpec` for custom
            datasets.
        batch_size: batched input sets processed per inference (``NB``).
        num_low_capsules: number of low-level capsules (``NL``).
        num_high_capsules: number of high-level capsules (``NH``).
        routing_iterations: routing iterations (``I``).
        low_dim: scalars per low-level capsule (``CL``).
        high_dim: scalars per high-level capsule (``CH``).
        routing: routing algorithm, ``dynamic`` or ``em``.
    """

    name: str
    dataset: Union[str, DatasetSpec]
    batch_size: int
    num_low_capsules: int
    num_high_capsules: int
    routing_iterations: int = 3
    low_dim: int = 8
    high_dim: int = 16
    routing: RoutingAlgorithm = RoutingAlgorithm.DYNAMIC

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("workload name must be a non-empty string")
        object.__setattr__(self, "name", str(self.name).strip())
        object.__setattr__(self, "dataset", _dataset_from(self.dataset))
        object.__setattr__(self, "routing", routing_algorithm(self.routing))
        for field_name in (
            "batch_size",
            "num_low_capsules",
            "num_high_capsules",
            "routing_iterations",
            "low_dim",
            "high_dim",
        ):
            value = _int_field(getattr(self, field_name), field_name)
            object.__setattr__(self, field_name, value)
            if value < 1:
                raise ValueError(f"{field_name} must be >= 1")

    # ---------------------------------------------------------------- dataset

    @property
    def dataset_name(self) -> str:
        """The dataset's name (catalog key or the inline spec's own name)."""
        return self.dataset if isinstance(self.dataset, str) else self.dataset.name

    @property
    def dataset_spec(self) -> DatasetSpec:
        """Shape-level description of the workload's dataset."""
        if isinstance(self.dataset, DatasetSpec):
            return self.dataset
        return DATASET_SPECS[self.dataset]

    @property
    def is_custom_dataset(self) -> bool:
        """Whether the dataset is an inline spec rather than a Table-1 one."""
        return isinstance(self.dataset, DatasetSpec)

    # ------------------------------------------------------------ conversions

    @classmethod
    def from_benchmark(cls, config: BenchmarkConfig) -> "WorkloadSpec":
        """The spec equivalent of a Table-1 :class:`BenchmarkConfig`."""
        return cls(
            name=config.name,
            dataset=config.custom_dataset if config.custom_dataset else config.dataset,
            batch_size=config.batch_size,
            num_low_capsules=config.num_low_capsules,
            num_high_capsules=config.num_high_capsules,
            routing_iterations=config.routing_iterations,
            low_dim=config.low_dim,
            high_dim=config.high_dim,
            routing=config.routing,
        )

    def to_benchmark(self) -> BenchmarkConfig:
        """The :class:`BenchmarkConfig` the simulators consume."""
        return BenchmarkConfig(
            name=self.name,
            dataset=self.dataset_name,
            batch_size=self.batch_size,
            num_low_capsules=self.num_low_capsules,
            num_high_capsules=self.num_high_capsules,
            routing_iterations=self.routing_iterations,
            low_dim=self.low_dim,
            high_dim=self.high_dim,
            routing=self.routing.value,
            custom_dataset=self.dataset if self.is_custom_dataset else None,
        )

    def routing_workload(self):
        """The analytic routing model matching :attr:`routing`."""
        return routing_workload_for(self.to_benchmark())

    # ---------------------------------------------------------- serialization

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadSpec":
        """Build a spec from a plain dictionary (JSON-shaped).

        ``name``, ``dataset``, ``batch_size``, ``num_low_capsules`` and
        ``num_high_capsules`` are required; the remaining keys default to the
        CapsNet-MNIST structure.  Unknown keys raise :class:`ValueError`.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"workload data must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown workload key(s) {unknown}; valid keys: {sorted(known)}"
            )
        required = ("name", "dataset", "batch_size", "num_low_capsules", "num_high_capsules")
        missing = sorted(set(required) - set(data))
        if missing:
            raise ValueError(f"workload spec is missing required key(s) {missing}")
        return cls(**{key: data[key] for key in data})  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """Plain (JSON-ready) dictionary round-tripping through :meth:`from_dict`."""
        if isinstance(self.dataset, DatasetSpec):
            dataset: object = {
                "name": self.dataset.name,
                "image_shape": list(self.dataset.image_shape),
                "num_classes": self.dataset.num_classes,
            }
        else:
            dataset = self.dataset
        return {
            "name": self.name,
            "dataset": dataset,
            "batch_size": self.batch_size,
            "num_low_capsules": self.num_low_capsules,
            "num_high_capsules": self.num_high_capsules,
            "routing_iterations": self.routing_iterations,
            "low_dim": self.low_dim,
            "high_dim": self.high_dim,
            "routing": self.routing.value,
        }

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "WorkloadSpec":
        """Load a spec from a JSON file (``name`` defaults to the file stem)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ValueError(f"cannot read workload file {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON in workload file {path}: {error}") from None
        if isinstance(data, Mapping) and "name" not in data:
            data = {**data, "name": path.stem}
        return cls.from_dict(data)

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the spec as JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    def content_hash(self) -> str:
        """Content hash (SHA-256 hex) of the spec's canonical JSON form.

        Two specs hash equal exactly when :meth:`to_dict` matches -- the
        workload half of the persistent simulation cache's key.
        """
        from repro.engine.diskcache import canonical_digest

        return canonical_digest(self.to_dict())

    # ------------------------------------------------------------ convenience

    @property
    def network_scale(self) -> float:
        """The L * H * iterations size proxy (see :class:`BenchmarkConfig`)."""
        return float(
            self.num_low_capsules * self.num_high_capsules * self.routing_iterations
        )

    def describe(self) -> str:
        """Human readable one-line description."""
        return (
            f"{self.name}: {self.dataset_name}, BS={self.batch_size}, "
            f"L={self.num_low_capsules}x{self.low_dim}, "
            f"H={self.num_high_capsules}x{self.high_dim}, "
            f"{self.routing.value} routing, iter={self.routing_iterations}"
        )


def routing_workload_for(config: BenchmarkConfig):
    """The analytic routing model matching a benchmark's routing algorithm."""
    # Imported lazily: rp_model/em_model import repro.workloads.benchmarks.
    from repro.workloads.em_model import EMRoutingWorkload
    from repro.workloads.rp_model import RoutingWorkload

    if routing_algorithm(config.routing) is RoutingAlgorithm.EM:
        return EMRoutingWorkload(config)
    return RoutingWorkload(config)


class WorkloadCatalog:
    """Immutable, case-insensitively keyed name -> :class:`WorkloadSpec` map.

    A catalog is the single benchmark-resolution authority of one run: the
    scenario layer validates ``benchmarks`` selections against it, the engine
    resolves names through it, and the CLI lists it.  :func:`default_catalog`
    holds the Table-1 seed; :meth:`with_specs` layers user-defined specs on
    top (a spec reusing an existing name replaces it in place, new names
    append after the seed).
    """

    def __init__(self, specs: Iterable[WorkloadSpec] = ()) -> None:
        self._specs: Dict[str, WorkloadSpec] = {}
        self._canonical: Dict[str, str] = {}
        self._benchmarks: Dict[str, BenchmarkConfig] = {}
        for spec in specs:
            self._add(spec)

    def _add(self, spec: WorkloadSpec, benchmark: Optional[BenchmarkConfig] = None) -> None:
        if not isinstance(spec, WorkloadSpec):
            raise ValueError(
                f"catalog entries must be WorkloadSpec, got {type(spec).__name__}"
            )
        config = benchmark or spec.to_benchmark()
        existing = self._canonical.get(spec.name.casefold())
        if existing is not None and existing != spec.name:
            # Same name up to case: replace the entry *in place* (the merged
            # spec's casing wins, the catalog position stays).
            self._specs = {
                (spec.name if key == existing else key): value
                for key, value in self._specs.items()
            }
            self._benchmarks = {
                (spec.name if key == existing else key): value
                for key, value in self._benchmarks.items()
            }
        self._canonical[spec.name.casefold()] = spec.name
        self._specs[spec.name] = spec
        self._benchmarks[spec.name] = config

    # -------------------------------------------------------------- factories

    @classmethod
    def default(cls) -> "WorkloadCatalog":
        """The Table-1 catalog (shared immutable instance)."""
        return default_catalog()

    def with_specs(self, specs: Iterable[WorkloadSpec]) -> "WorkloadCatalog":
        """A new catalog with ``specs`` merged on top of this one."""
        merged = WorkloadCatalog()
        for name, spec in self._specs.items():
            merged._add(spec, self._benchmarks[name])
        for spec in specs:
            merged._add(spec)
        return merged

    # ---------------------------------------------------------------- lookups

    def canonical_name(self, name: str) -> str:
        """Resolve a (case-insensitive) name to its canonical catalog key."""
        canonical = self._canonical.get(str(name).strip().casefold())
        if canonical is None:
            raise KeyError(
                f"unknown workload {name!r}; known workloads: {self.names()}"
            )
        return canonical

    def resolve(self, names: Iterable[str]) -> List[str]:
        """Canonical keys of a benchmark selection (case-insensitive).

        Raises:
            ValueError: naming every unknown name at once, with the catalog.
        """
        names = [str(name) for name in names]
        unknown = [name for name in names if name not in self]
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown}; choose from {self.names()}"
            )
        return [self._canonical[name.strip().casefold()] for name in names]

    def get(self, name: str) -> WorkloadSpec:
        """Look up a workload spec by (case-insensitive) name."""
        return self._specs[self.canonical_name(name)]

    def benchmark(self, name: str) -> BenchmarkConfig:
        """The :class:`BenchmarkConfig` of one workload, by name."""
        return self._benchmarks[self.canonical_name(name)]

    def names(self) -> List[str]:
        """Canonical workload names: Table-1 order first, user specs after."""
        return list(self._specs)

    def specs(self) -> Tuple[WorkloadSpec, ...]:
        """Every spec, in catalog order."""
        return tuple(self._specs.values())

    # --------------------------------------------------------------- protocol

    def __contains__(self, name: object) -> bool:
        return str(name).strip().casefold() in self._canonical

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadCatalog):
            return NotImplemented
        return self.specs() == other.specs()

    def __hash__(self) -> int:
        return hash(self.specs())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkloadCatalog({len(self)} workloads)"


def _build_default_catalog() -> WorkloadCatalog:
    catalog = WorkloadCatalog()
    for name, config in BENCHMARKS.items():
        # Seed with the canonical Table-1 BenchmarkConfig objects so
        # ``catalog.benchmark(name) is BENCHMARKS[name]`` (golden invariant).
        catalog._add(WorkloadSpec.from_benchmark(config), config)
    return catalog


#: The Table-1 catalog, built once (the catalog itself is immutable).
_DEFAULT_CATALOG: Optional[WorkloadCatalog] = None


def default_catalog() -> WorkloadCatalog:
    """The immutable catalog seeded with the paper's Table-1 networks."""
    global _DEFAULT_CATALOG
    if _DEFAULT_CATALOG is None:
        _DEFAULT_CATALOG = _build_default_catalog()
    return _DEFAULT_CATALOG
