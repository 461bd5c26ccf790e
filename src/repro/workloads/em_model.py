"""Analytic workload model of Expectation-Maximization routing.

The paper's in-memory optimizations are "generally applicable to different
routing algorithms" (Sec. 2.2 / Sec. 4); EM routing (Hinton et al., 2018) is
the other algorithm it names.  This module models the EM routing procedure's
computation and data movement with the same interface style as
:class:`repro.workloads.rp_model.RoutingWorkload`, so the GPU simulator and
the distributor's inputs can be derived for it as well:

* the **E-step** computes, for every (batch, low capsule, high capsule)
  triple, a Gaussian log-likelihood over the ``CH`` pose dimensions and a
  responsibility softmax over the high capsules,
* the **M-step** re-estimates each high capsule's mean and variance from the
  responsibility-weighted votes and updates the capsule activation.

Like dynamic routing, the dominant operand is the vote tensor (the same size
as the prediction vectors u_hat), the responsibilities play the role of the
routing coefficients (but are per-batch, i.e. ``NB`` times larger), and both
steps contain aggregations that generate synchronization on a GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.workloads.benchmarks import BenchmarkConfig
from repro.workloads.rp_model import FP32_BYTES


@dataclass(frozen=True)
class EMFootprint:
    """Byte sizes of the EM routing operands.

    Attributes:
        votes: vote vectors (``NB * NL * NH * CH`` scalars; same as u_hat).
        responsibilities: per-batch responsibilities (``NB * NL * NH``).
        means: Gaussian means (``NB * NH * CH``).
        variances: Gaussian variances (``NB * NH * CH``).
        activations: high-capsule activations (``NB * NH``).
        low_capsules: input capsules (``NB * NL * CL``).
        weights: transformation matrices (``NL * NH * CL * CH``).
    """

    votes: int
    responsibilities: int
    means: int
    variances: int
    activations: int
    low_capsules: int
    weights: int

    @property
    def intermediate_bytes(self) -> int:
        """Non-shareable intermediates (votes, responsibilities, Gaussian stats)."""
        return (
            self.votes
            + self.responsibilities
            + self.means
            + self.variances
            + self.activations
        )

    @property
    def total_bytes(self) -> int:
        return self.intermediate_bytes + self.low_capsules + self.weights


class EMRoutingWorkload:
    """Computation / data-movement model of EM routing for one benchmark."""

    def __init__(self, config: BenchmarkConfig) -> None:
        self.config = config

    # -- shorthands -----------------------------------------------------------

    @property
    def iterations(self) -> int:
        return self.config.routing_iterations

    # -- footprints ------------------------------------------------------------

    def footprint(self) -> EMFootprint:
        cfg = self.config
        nb, nl, nh, cl, ch = (
            cfg.batch_size,
            cfg.num_low_capsules,
            cfg.num_high_capsules,
            cfg.low_dim,
            cfg.high_dim,
        )
        return EMFootprint(
            votes=nb * nl * nh * ch * FP32_BYTES,
            responsibilities=nb * nl * nh * FP32_BYTES,
            means=nb * nh * ch * FP32_BYTES,
            variances=nb * nh * ch * FP32_BYTES,
            activations=nb * nh * FP32_BYTES,
            low_capsules=nb * nl * cl * FP32_BYTES,
            weights=nl * nh * cl * ch * FP32_BYTES,
        )

    # -- FLOP counts -------------------------------------------------------------

    def flops_votes(self) -> int:
        """Vote computation (identical to Eq. 1 of dynamic routing)."""
        cfg = self.config
        return (
            cfg.batch_size
            * cfg.num_low_capsules
            * cfg.num_high_capsules
            * cfg.high_dim
            * (2 * cfg.low_dim - 1)
        )

    def flops_e_step(self) -> int:
        """One E-step: Gaussian log-likelihoods + responsibility softmax."""
        cfg = self.config
        pairs = cfg.batch_size * cfg.num_low_capsules * cfg.num_high_capsules
        # Per pair: (vote - mean)^2 / var summed over CH  ->  ~4*CH ops,
        # plus the exponential and the normalizing division.
        return pairs * (4 * cfg.high_dim + 2) + cfg.batch_size * cfg.num_low_capsules * (
            cfg.num_high_capsules - 1
        )

    def flops_m_step(self) -> int:
        """One M-step: weighted means, variances and activations."""
        cfg = self.config
        pairs = cfg.batch_size * cfg.num_low_capsules * cfg.num_high_capsules
        # Mean and variance accumulations are two MACs per vote element,
        # plus the per-capsule normalizations and the activation logistic.
        return pairs * (4 * cfg.high_dim) + cfg.batch_size * cfg.num_high_capsules * (
            3 * cfg.high_dim + 8
        )

    def iteration_flops(self) -> int:
        """FLOPs of one EM iteration."""
        return self.flops_e_step() + self.flops_m_step()

    def total_flops(self) -> int:
        """FLOPs of the whole EM routing pass (votes + all iterations)."""
        return self.flops_votes() + self.iterations * self.iteration_flops()

    # -- traffic -------------------------------------------------------------------

    def iteration_traffic_bytes(self) -> int:
        """Ideal traffic of one EM iteration (votes re-read twice, stats updated)."""
        fp = self.footprint()
        return (
            2 * fp.votes
            + 2 * fp.responsibilities
            + 2 * (fp.means + fp.variances)
            + 2 * fp.activations
        )

    def total_traffic_bytes(self) -> int:
        fp = self.footprint()
        vote_stage = fp.low_capsules + fp.weights + fp.votes
        return vote_stage + self.iterations * self.iteration_traffic_bytes()

    # -- special functions / aggregations ---------------------------------------------

    def special_function_counts(self) -> Dict[str, int]:
        """exp / div / inverse-sqrt evaluations per EM routing pass."""
        cfg = self.config
        i = self.iterations
        pairs = cfg.batch_size * cfg.num_low_capsules * cfg.num_high_capsules
        return {
            "exp": i * (pairs + cfg.batch_size * cfg.num_high_capsules),
            "div": i * (pairs + 2 * cfg.batch_size * cfg.num_high_capsules * cfg.high_dim),
            "inv_sqrt": 0,
        }

    def aggregation_points(self) -> Dict[str, int]:
        """Reduction groups per EM routing pass (the synchronization drivers)."""
        cfg = self.config
        i = self.iterations
        return {
            "e_step_softmax_over_H": i * cfg.batch_size * cfg.num_low_capsules,
            "m_step_reduce_over_L": i * cfg.batch_size * cfg.num_high_capsules * 2,
        }

    def total_aggregations(self) -> int:
        return sum(self.aggregation_points().values())
