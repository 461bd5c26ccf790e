"""Analytic model of the routing procedure's computation and data movement.

The model follows the paper's accounting:

* **FLOP counts** use the per-equation expressions that also underlie the
  paper's per-vault workload model ``E`` (Eqs. 6-11): a length-``n`` dot
  product costs ``2n - 1`` operations, the squash of a ``CH``-dimensional
  vector costs ``3 CH + 19`` operations (multiplies, adds, the division and
  the inverse square root), and the softmax over ``NH`` entries costs
  ``4 NH`` operations per low-level capsule (exponentials, the accumulation
  and the normalizing divisions).
* **Variable footprints** count the FP32 storage of every operand of the
  routing procedure; the non-shareable intermediates (u_hat, s, v, b, c) are
  what Fig. 6(a) compares against GPU on-chip storage.
* **Traffic** is reported per equation and per iteration so the GPU model can
  decide which operands have to be re-streamed from off-chip memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.workloads.benchmarks import BenchmarkConfig
from repro.workloads.parallelism import RoutingEquation

#: Bytes per FP32 scalar.
FP32_BYTES = 4


@dataclass(frozen=True)
class IntermediateFootprint:
    """Sizes (bytes) of the routing procedure's operands for one benchmark.

    Attributes:
        low_capsules: input capsules ``u`` (``NB * NL * CL`` scalars).
        weights: transformation matrices ``W`` (``NL * NH * CL * CH``).
        predictions: prediction vectors ``u_hat`` (``NB * NL * NH * CH``).
        logits: agreement accumulators ``b`` (``NL * NH``).
        coefficients: routing coefficients ``c`` (``NL * NH``).
        weighted_sums: pre-squash sums ``s`` (``NB * NH * CH``).
        high_capsules: output capsules ``v`` (``NB * NH * CH``).
    """

    low_capsules: int
    weights: int
    predictions: int
    logits: int
    coefficients: int
    weighted_sums: int
    high_capsules: int

    @property
    def intermediate_bytes(self) -> int:
        """Bytes of the *non-shareable intermediates* (u_hat, b, c, s, v).

        These are the variables the paper identifies as exceeding GPU on-chip
        storage (Fig. 6a); the inputs ``u`` and the weights ``W`` are not
        counted because they are produced/consumed by adjacent layers.
        """
        return (
            self.predictions
            + self.logits
            + self.coefficients
            + self.weighted_sums
            + self.high_capsules
        )

    @property
    def total_bytes(self) -> int:
        """Bytes of every routing operand including inputs and weights."""
        return self.intermediate_bytes + self.low_capsules + self.weights

    def ratio_to_storage(self, on_chip_bytes: int) -> float:
        """Ratio of intermediate variables to a given on-chip storage size (Fig. 6a)."""
        if on_chip_bytes <= 0:
            raise ValueError("on_chip_bytes must be positive")
        return self.intermediate_bytes / float(on_chip_bytes)

    def as_dict(self) -> Dict[str, int]:
        """Per-variable byte sizes keyed by the paper's symbol names."""
        return {
            "u": self.low_capsules,
            "W": self.weights,
            "u_hat": self.predictions,
            "b": self.logits,
            "c": self.coefficients,
            "s": self.weighted_sums,
            "v": self.high_capsules,
        }


@dataclass(frozen=True)
class EquationTraffic:
    """Ideal (touch-each-operand-once) traffic of one routing equation."""

    read_bytes: int
    write_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


class RoutingWorkload:
    """Computation / data-movement model of the routing procedure.

    Args:
        config: the benchmark configuration (Table 1 row).
    """

    def __init__(self, config: BenchmarkConfig) -> None:
        self.config = config

    # -- shorthands -----------------------------------------------------------

    @property
    def _nb(self) -> int:
        return self.config.batch_size

    @property
    def _nl(self) -> int:
        return self.config.num_low_capsules

    @property
    def _nh(self) -> int:
        return self.config.num_high_capsules

    @property
    def _cl(self) -> int:
        return self.config.low_dim

    @property
    def _ch(self) -> int:
        return self.config.high_dim

    @property
    def iterations(self) -> int:
        """Number of routing iterations ``I``."""
        return self.config.routing_iterations

    # -- variable footprints ---------------------------------------------------

    def footprint(self) -> IntermediateFootprint:
        """Byte sizes of every routing operand."""
        nb, nl, nh, cl, ch = self._nb, self._nl, self._nh, self._cl, self._ch
        return IntermediateFootprint(
            low_capsules=nb * nl * cl * FP32_BYTES,
            weights=nl * nh * cl * ch * FP32_BYTES,
            predictions=nb * nl * nh * ch * FP32_BYTES,
            logits=nl * nh * FP32_BYTES,
            coefficients=nl * nh * FP32_BYTES,
            weighted_sums=nb * nh * ch * FP32_BYTES,
            high_capsules=nb * nh * ch * FP32_BYTES,
        )

    # -- FLOP counts -----------------------------------------------------------

    def flops_prediction(self) -> int:
        """Eq. 1: ``u_hat = u x W`` for every (batch, L, H) triple (executed once)."""
        return self._nb * self._nl * self._nh * self._ch * (2 * self._cl - 1)

    def flops_weighted_sum(self) -> int:
        """Eq. 2: ``s_j = sum_i c_ij u_hat`` per iteration."""
        return self._nb * self._nh * self._ch * (2 * self._nl - 1)

    def flops_squash(self) -> int:
        """Eq. 3: squash of every high capsule per iteration (``3 CH + 19`` each)."""
        return self._nb * self._nh * (3 * self._ch + 19)

    def flops_agreement(self) -> int:
        """Eq. 4: agreement dot products + accumulation per iteration."""
        dot = self._nb * self._nl * self._nh * (2 * self._ch - 1)
        accumulate = self._nl * self._nh * self._nb  # sum over the batch, then += b
        return dot + accumulate

    def flops_softmax(self) -> int:
        """Eq. 5: softmax over the H dimension for every low capsule per iteration."""
        return self._nl * 4 * self._nh

    def flops_per_equation(self) -> Dict[RoutingEquation, int]:
        """FLOPs of each equation for the whole routing procedure (all iterations)."""
        i = self.iterations
        return {
            RoutingEquation.PREDICTION: self.flops_prediction(),
            RoutingEquation.WEIGHTED_SUM: i * self.flops_weighted_sum(),
            RoutingEquation.SQUASH: i * self.flops_squash(),
            RoutingEquation.AGREEMENT: i * self.flops_agreement(),
            RoutingEquation.SOFTMAX: i * self.flops_softmax(),
        }

    def total_flops(self) -> int:
        """Total routing FLOPs including Eq. 1 and all iterations."""
        return sum(self.flops_per_equation().values())

    def iteration_flops(self) -> int:
        """FLOPs of a single routing iteration (Eqs. 2-5)."""
        return (
            self.flops_weighted_sum()
            + self.flops_squash()
            + self.flops_agreement()
            + self.flops_softmax()
        )

    # -- special function counts -------------------------------------------------

    def special_function_counts(self) -> Dict[str, int]:
        """Number of exp / division / inverse-sqrt evaluations per full routing run.

        Used by the PIM PE model (these lower to multi-step PE flows) and by
        the accuracy analysis.
        """
        i = self.iterations
        return {
            "exp": i * self._nl * self._nh,
            "div": i * (self._nl * self._nh + self._nb * self._nh),
            "inv_sqrt": i * self._nb * self._nh,
        }

    # -- traffic ----------------------------------------------------------------

    def traffic_per_equation(self) -> Dict[RoutingEquation, EquationTraffic]:
        """Ideal per-equation traffic for a *single* iteration (Eq. 1 once).

        Every operand is counted exactly once per use; the GPU / PIM models
        apply their own reuse and re-streaming policies on top of this.
        """
        fp = self.footprint()
        return {
            RoutingEquation.PREDICTION: EquationTraffic(
                read_bytes=fp.low_capsules + fp.weights,
                write_bytes=fp.predictions,
            ),
            RoutingEquation.SOFTMAX: EquationTraffic(
                read_bytes=fp.logits, write_bytes=fp.coefficients
            ),
            RoutingEquation.WEIGHTED_SUM: EquationTraffic(
                read_bytes=fp.predictions + fp.coefficients,
                write_bytes=fp.weighted_sums,
            ),
            RoutingEquation.SQUASH: EquationTraffic(
                read_bytes=fp.weighted_sums, write_bytes=fp.high_capsules
            ),
            RoutingEquation.AGREEMENT: EquationTraffic(
                read_bytes=fp.predictions + fp.high_capsules + fp.logits,
                write_bytes=fp.logits,
            ),
        }

    def iteration_traffic_bytes(self) -> int:
        """Ideal traffic of one routing iteration (Eqs. 2-5)."""
        traffic = self.traffic_per_equation()
        return sum(
            traffic[eq].total_bytes
            for eq in (
                RoutingEquation.SOFTMAX,
                RoutingEquation.WEIGHTED_SUM,
                RoutingEquation.SQUASH,
                RoutingEquation.AGREEMENT,
            )
        )

    def total_traffic_bytes(self) -> int:
        """Ideal traffic for the whole routing procedure."""
        traffic = self.traffic_per_equation()
        return (
            traffic[RoutingEquation.PREDICTION].total_bytes
            + self.iterations * self.iteration_traffic_bytes()
        )

    # -- synchronization ----------------------------------------------------------

    def aggregation_points(self) -> Dict[str, int]:
        """Count of aggregation (reduction) operations per full routing run.

        Aggregations are the source of the barrier synchronizations the paper
        identifies as the second stall contributor on GPUs:

        * Eq. 2 reduces over the L dimension for every (batch, H capsule).
        * Eq. 4 reduces over the batch dimension for every (L, H) pair.
        * Eq. 5 reduces over the H dimension for every L capsule
          (softmax denominator).
        """
        i = self.iterations
        return {
            "eq2_reduce_over_L": i * self._nb * self._nh,
            "eq4_reduce_over_B": i * self._nl * self._nh,
            "eq5_reduce_over_H": i * self._nl,
        }

    def total_aggregations(self) -> int:
        """Total number of reduction groups across the routing procedure."""
        return sum(self.aggregation_points().values())

    def synchronization_groups(self, warp_size: int = 32) -> Dict[str, int]:
        """Barrier-synchronized partial-reduction groups per full routing run.

        On a GPU each reduction is performed by thread groups of roughly
        ``warp_size`` partial values that synchronize through shared memory;
        the number of barrier events therefore scales with the *amount of
        data being reduced*, not just with the number of reduction outputs.
        This is what makes the synchronization overhead grow with the batch
        size (the paper's Observation 1: batching does not help the RP).
        """
        if warp_size < 1:
            raise ValueError("warp_size must be positive")
        i = self.iterations

        def groups(elements: int) -> int:
            return max(1, -(-elements // warp_size))

        return {
            "eq2_reduce_over_L": i * self._nb * self._nh * groups(self._nl),
            "eq4_reduce_over_B": i * self._nl * self._nh * groups(self._nb),
            "eq5_reduce_over_H": i * self._nl * groups(self._nh),
        }

    def total_synchronization_groups(self, warp_size: int = 32) -> int:
        """Total barrier-synchronized groups across the routing procedure."""
        return sum(self.synchronization_groups(warp_size).values())
