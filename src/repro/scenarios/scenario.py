"""The declarative :class:`Scenario` configuration object.

A scenario names *what* to run — dataset, prior, estimator, optional
topology override — plus the scale and noise knobs, without saying *how*;
the how lives in :mod:`repro.scenarios.runner`.  Scenarios are frozen
dataclasses, so they hash, compare and round-trip through plain dicts,
which keeps batch configurations serialisable with nothing but ``json``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

from repro._validation import require_finite_nonnegative
from repro.errors import ValidationError
from repro.registry import (
    DATASETS,
    ESTIMATORS,
    PRIORS,
    TOPOLOGIES,
    canonical_name,
)

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """One named estimation run: registered components plus knobs.

    Attributes
    ----------
    dataset:
        Name of a registered dataset (``repro list datasets``).
    prior:
        Name of a registered prior strategy (``repro list priors``).
    estimator:
        Name of a registered estimator factory.
    topology:
        Optional registered topology overriding the dataset's own; its node
        set must match the dataset's.
    calibration_week, target_week:
        Week indices.  ``target_week=None`` lets the prior's ``week_mode``
        metadata pick the paper's default (same week, next week, or the
        dataset's calibration gap).
    n_weeks:
        Optional floor on the number of weeks synthesized.  By default just
        enough weeks for the calibration/target pair are generated; sweeps
        raise the floor to the grid-wide maximum so every cell of a dataset
        column shares one synthesis run (and therefore identical ground
        truth).
    bins_per_week, full_scale:
        Dataset scale knobs, as in the experiment drivers.
    max_bins:
        Cap on the number of bins pushed through the estimation pipeline.
    measurement_noise:
        Relative std of the simulated SNMP noise.
    seed:
        Seed for the measurement noise.
    dataset_seed:
        Optional override of the dataset factory's generation seed.
    measured_forward_fraction:
        Optional externally measured ``f`` for priors that use one.
    stream:
        Where the weeks come from, not which code runs them: every scenario
        runs through the same chunked pipeline.  ``False`` materialises the
        dataset (:func:`repro.synthesis.datasets.load_dataset`) and streams
        views over the in-memory week; the result carries the estimate.
        ``True`` opens a :class:`repro.synthesis.datasets.StreamingDataset`
        that regenerates each ``(T_chunk, n, n)`` block on demand, bounding
        peak memory by the chunk size instead of the series length; the
        estimate is spilled (explicit ``spill_dir``) or dropped.  Same-seed
        synthesis is bit-identical either way.
    chunk_bins:
        Chunk length (in bins) for streaming runs; ``None`` picks a size
        whose block fits a small fixed budget.
    spill_dir:
        Out-of-core results for streaming runs: per-bin error series (and
        the estimate cube, chunk by chunk) are written as ``.npz`` shards
        under this run directory, and the :class:`ScenarioResult` holds lazy
        handles that load on first use.  ``None`` spills automatically — to
        a fresh temporary run directory — once the estimated series reaches
        :data:`repro.scenarios.spill.SPILL_AUTO_MIN_BINS` bins; in-memory
        (non-streaming) runs never spill.
    spill_shard_bins:
        Bins per ``.npz`` shard when spilling (default 2048).  Smaller
        shards lower the peak memory of shard-at-a-time consumers
        (``repro report``, :meth:`~repro.scenarios.spill.SpilledSeries.iter_blocks`)
        at the cost of more files.
    name:
        Optional human label; defaults to ``"<dataset>/<prior>"``.
    """

    dataset: str
    prior: str
    estimator: str = "tomogravity"
    topology: str | None = None
    calibration_week: int = 0
    target_week: int | None = None
    n_weeks: int | None = None
    bins_per_week: int | None = None
    full_scale: bool = False
    max_bins: int | None = 48
    measurement_noise: float = 0.01
    seed: int = 0
    dataset_seed: int | None = None
    measured_forward_fraction: float | None = None
    stream: bool = False
    chunk_bins: int | None = None
    spill_dir: str | None = None
    spill_shard_bins: int | None = None
    name: str | None = None

    def __post_init__(self):
        for component in ("dataset", "prior", "estimator", "topology"):
            value = getattr(self, component)
            if value is not None:
                object.__setattr__(self, component, canonical_name(value))

    @property
    def label(self) -> str:
        """Display label: the explicit name, or ``"<dataset>/<prior>"``."""
        return self.name or f"{self.dataset}/{self.prior}"

    def validate(self) -> "Scenario":
        """Check components against the registries and knobs for sanity.

        Returns ``self`` so it chains; raises :class:`ValidationError` or
        :class:`repro.errors.RegistryError` with the valid choices named.
        """
        DATASETS.entry(self.dataset)
        PRIORS.entry(self.prior)
        ESTIMATORS.entry(self.estimator)
        if self.topology is not None:
            TOPOLOGIES.entry(self.topology)
        if self.calibration_week < 0:
            raise ValidationError("calibration_week must be >= 0")
        if self.target_week is not None and self.target_week < 0:
            raise ValidationError("target_week must be >= 0")
        if self.n_weeks is not None and self.n_weeks < 1:
            raise ValidationError("n_weeks must be >= 1 (or None for the minimum)")
        if self.max_bins is not None and self.max_bins < 1:
            raise ValidationError("max_bins must be >= 1 (or None for the whole week)")
        if self.bins_per_week is not None and self.bins_per_week < 2:
            raise ValidationError("bins_per_week must be >= 2")
        require_finite_nonnegative(self.measurement_noise, "measurement_noise")
        if self.chunk_bins is not None and self.chunk_bins < 1:
            raise ValidationError("chunk_bins must be >= 1 (or None for the default)")
        if self.spill_dir is not None and not self.stream:
            raise ValidationError("spill_dir only applies to streaming scenarios (set stream)")
        if self.spill_shard_bins is not None:
            if not self.stream:
                raise ValidationError(
                    "spill_shard_bins only applies to streaming scenarios (set stream)"
                )
            if self.spill_shard_bins < 1:
                raise ValidationError("spill_shard_bins must be >= 1 (or None for the default)")
        return self

    def to_dict(self) -> dict:
        """Plain-dict form; ``Scenario.from_dict(s.to_dict()) == s``."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Build a scenario from a plain dict, rejecting unknown keys."""
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValidationError(
                f"unknown Scenario fields {unknown}; valid fields: {sorted(valid)}"
            )
        for required in ("dataset", "prior"):
            if required not in data:
                raise ValidationError(f"Scenario requires the {required!r} field")
        return cls(**data)

    def replace(self, **changes) -> "Scenario":
        """A copy with the given fields replaced (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)
