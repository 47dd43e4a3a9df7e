"""End-to-end traffic-matrix estimation pipeline.

:class:`TMEstimator` wires together the three steps of the blueprint in
Section 6 — prior, least-squares refinement against the link counts, and
iterative proportional fitting against the marginals — and evaluates the
result against ground truth.  The Figure 11-13 experiments are thin wrappers
around this class that only differ in which prior they feed it.

The refinement solves against the routing matrix's CSR observation operator
(:meth:`~repro.topology.routing.RoutingMatrix.augmented_operator`) at every
network size; tomogravity goes through that operator's cached factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_positive_int
from repro.core.metrics import percent_improvement, rel_l2_temporal_error
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.estimation.ipf import iterative_proportional_fitting_series
from repro.estimation.linear_system import LinkLoadSystem
from repro.estimation.tomogravity import tomogravity_estimate
from repro.obs import get_tracer
from repro.estimation.entropy import entropy_estimate
from repro.registry import register_estimator

__all__ = [
    "EstimationResult",
    "TMEstimator",
    "make_tomogravity_estimator",
    "make_entropy_estimator",
]

@dataclass
class EstimationResult:
    """Outcome of running the estimation pipeline on one measurement series.

    Attributes
    ----------
    estimate:
        The estimated traffic-matrix series.  ``None`` for streamed runs
        that chose not to materialise the estimate (the per-bin errors are
        the deliverable there).
    prior:
        The prior series the pipeline started from (``None`` for streamed
        runs, which never materialise the prior).
    errors:
        Relative L2 temporal error of the estimate per bin (only when ground
        truth was supplied, otherwise ``None``).
    prior_errors:
        Error of the raw prior per bin, same caveat.
    """

    estimate: TrafficMatrixSeries | None
    prior: TrafficMatrixSeries | None
    errors: np.ndarray | None = None
    prior_errors: np.ndarray | None = None

    @property
    def mean_error(self) -> float:
        """Mean per-bin error of the refined estimate."""
        if self.errors is None:
            raise ValidationError("ground truth was not supplied; errors are unavailable")
        return float(np.mean(self.errors))

    def improvement_over(self, other: "EstimationResult") -> np.ndarray:
        """Per-bin percentage improvement of this estimate over ``other``."""
        if self.errors is None or other.errors is None:
            raise ValidationError("both results need ground-truth errors to compare")
        return percent_improvement(other.errors, self.errors)


class TMEstimator:
    """Three-step traffic-matrix estimator (prior → least squares → IPF).

    Parameters
    ----------
    method:
        Refinement method for step 2: ``"tomogravity"`` (default, weighted
        least squares) or ``"entropy"`` (KL-divergence regularised).
    use_marginals_in_refinement:
        Whether the ingress/egress rows are appended to the routing matrix in
        the least-squares step (the augmented system).  The paper's ingress
        and egress counts are always available, so this defaults to true.
    ipf_iterations:
        Iteration cap for the proportional-fitting step (at least 1).
    """

    def __init__(
        self,
        *,
        method: str = "tomogravity",
        use_marginals_in_refinement: bool = True,
        ipf_iterations: int = 50,
    ):
        if method not in ("tomogravity", "entropy"):
            raise ValidationError(f"unknown refinement method {method!r}")
        self._method = method
        self._augment = bool(use_marginals_in_refinement)
        self._ipf_iterations = require_positive_int(ipf_iterations, "ipf_iterations")

    def _observation_system(self, system: LinkLoadSystem):
        """The ``(B, Z)`` pair the refinement step solves against.

        Tomogravity gets ``B`` as the factor cached on the routing matrix
        (:meth:`~repro.topology.routing.RoutingMatrix.observation_factor`),
        so every run over one routing memo shares a single factorisation.
        """
        if self._augment:
            matrix, observations = system.augmented_system()
        else:
            matrix, observations = system.routing.sparse, system.link_loads
        if self._method == "tomogravity":
            matrix = system.routing.observation_factor(augmented=self._augment)
        return matrix, observations

    def _estimate_block(self, prior_vectors, matrix, observations, ingress, egress, n):
        """Refinement + IPF for one block of bins."""
        refine = tomogravity_estimate if self._method == "tomogravity" else entropy_estimate
        refined = refine(prior_vectors, matrix, observations)
        return iterative_proportional_fitting_series(
            refined.reshape(-1, n, n), ingress, egress, max_iterations=self._ipf_iterations
        )

    def estimate(
        self,
        system: LinkLoadSystem,
        prior: TrafficMatrixSeries,
        *,
        ground_truth: TrafficMatrixSeries | None = None,
    ) -> EstimationResult:
        """Run the pipeline over every bin of the measurement series.

        The materialised run is a streamed run over the in-memory cube
        (:meth:`estimate_stream` with the estimate collected), so both
        produce the same numbers bit for bit.

        Parameters
        ----------
        system:
            The observed link loads, marginals and routing matrix.
        prior:
            Prior traffic-matrix series (one matrix per measurement bin).
        ground_truth:
            When provided, per-bin errors of both the prior and the estimate
            are computed and stored on the result.
        """
        result = self.estimate_stream(
            system, prior, ground_truth_stream=ground_truth, collect_estimate=True
        )
        result.prior = prior
        return result

    def estimate_stream(
        self,
        system: LinkLoadSystem,
        prior_stream,
        *,
        ground_truth_stream=None,
        collect_estimate: bool = False,
        chunk_sink=None,
    ) -> EstimationResult:
        """Run the pipeline chunk by chunk over a streamed prior.

        Every stage of the pipeline is per-bin (the batched tomogravity,
        entropy and IPF drivers carry no state across bins), so feeding it
        ``(T_chunk, n, n)`` blocks gives every bin the same numbers in any
        chunking while holding only one chunk of ``n^2``-sized data.

        Parameters
        ----------
        system:
            The observed link loads, marginals and routing matrix.
        prior_stream:
            Prior traffic as a cube or :class:`repro.streaming.ChunkStream`
            covering the measurement bins.
        ground_truth_stream:
            Optional ground truth (cube or stream, same chunking); enables
            the per-bin error series on the result.
        collect_estimate:
            Materialise the estimated series on the result (costs the
            ``O(T n^2)`` cube the streaming path otherwise avoids).
        chunk_sink:
            Optional callable receiving every ``(t0, estimates_block)`` as it
            is produced — the out-of-core alternative to
            ``collect_estimate``: spill writers persist the blocks (e.g. as
            ``.npz`` shards) without this process ever holding the cube.
        """
        from repro.streaming import as_chunk_stream, zip_chunks

        prior_stream = as_chunk_stream(prior_stream)
        if prior_stream.n_bins != system.n_timesteps:
            raise ValidationError(
                f"prior has {prior_stream.n_bins} bins but the measurements have {system.n_timesteps}"
            )
        if prior_stream.n_nodes != system.n_nodes:
            raise ValidationError(
                f"prior has {prior_stream.n_nodes} nodes but the routing matrix has {system.n_nodes}"
            )
        n = system.n_nodes
        t = system.n_timesteps
        matrix, observations = self._observation_system(system)

        streams = [prior_stream]
        if ground_truth_stream is not None:
            streams.append(
                as_chunk_stream(ground_truth_stream, chunk_bins=prior_stream.chunk_bins)
            )
        errors = np.empty(t) if ground_truth_stream is not None else None
        prior_errors = np.empty(t) if ground_truth_stream is not None else None
        collected = np.empty((t, n, n)) if collect_estimate else None
        tracer = get_tracer()
        for t0, blocks in zip_chunks(*streams):
            prior_block = blocks[0]
            with tracer.span("estimate_chunk", t0=t0, bins=int(prior_block.shape[0])):
                stop = t0 + prior_block.shape[0]
                prior_vectors = prior_block.reshape(prior_block.shape[0], n * n)
                estimates = self._estimate_block(
                    prior_vectors,
                    matrix,
                    observations[t0:stop],
                    system.ingress[t0:stop],
                    system.egress[t0:stop],
                    n,
                )
                if collected is not None:
                    collected[t0:stop] = estimates
                if chunk_sink is not None:
                    chunk_sink(t0, estimates)
                if errors is not None:
                    truth_block = blocks[1]
                    errors[t0:stop] = rel_l2_temporal_error(truth_block, estimates)
                    prior_errors[t0:stop] = rel_l2_temporal_error(truth_block, prior_block)
        estimate_series = (
            TrafficMatrixSeries(collected, prior_stream.nodes, bin_seconds=prior_stream.bin_seconds)
            if collected is not None
            else None
        )
        return EstimationResult(
            estimate=estimate_series, prior=None, errors=errors, prior_errors=prior_errors
        )

    def compare_priors(
        self,
        system: LinkLoadSystem,
        priors: dict[str, TrafficMatrixSeries],
        ground_truth: TrafficMatrixSeries,
    ) -> dict[str, EstimationResult]:
        """Run the same pipeline once per named prior and return all results."""
        return {
            name: self.estimate(system, prior, ground_truth=ground_truth)
            for name, prior in priors.items()
        }


@register_estimator(
    "tomogravity",
    description="Weighted least-squares refinement against link counts, then IPF",
)
def make_tomogravity_estimator(**kwargs) -> TMEstimator:
    """Factory for the default tomogravity-refinement estimator."""
    return TMEstimator(method="tomogravity", **kwargs)


@register_estimator(
    "entropy",
    description="KL-divergence regularised refinement against link counts, then IPF",
)
def make_entropy_estimator(**kwargs) -> TMEstimator:
    """Factory for the entropy-regularised estimator."""
    return TMEstimator(method="entropy", **kwargs)
