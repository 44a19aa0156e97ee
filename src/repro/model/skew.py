"""Skew-aware dirtying: the analytic model under hotspot workloads.

The paper's model assumes uniform record updates (Section 2.5); the
testbed additionally runs **hotspot** workloads (a fraction ``h`` of the
records receives a fraction ``p`` of the accesses).  This module extends
the dirtying mathematics to that case so partial-checkpoint sizes and
minimum durations stay predictable under skew -- and the testbed
validates the extension (tests/test_skew_model.py).

Records are laid out contiguously, so the hot record set occupies the
first ``ceil(h·N)`` segments.  Per-segment update rates become a
two-point mixture:

    u_hot  = λ·N_ru·p / N_hot,        u_cold = λ·N_ru·(1−p) / N_cold,

and every uniform-case formula generalises by summing the exponential
terms over the two classes.  Skew *shrinks* partial checkpoints: hot
segments saturate (they are dirty regardless), while cold segments dirty
more slowly than under uniformity, so the expected flush count drops --
the effect measured in ``tests/test_edge_configurations.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..params import SystemParameters
from ..workload import AccessDistribution, WorkloadSpec
from .duration import flush_time

_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 500


@dataclass(frozen=True)
class SegmentRateMixture:
    """Per-segment update rates under a two-class (hot/cold) workload."""

    n_hot: int
    n_cold: int
    u_hot: float
    u_cold: float

    @property
    def n_segments(self) -> int:
        return self.n_hot + self.n_cold

    @property
    def mean_rate(self) -> float:
        total = self.n_hot * self.u_hot + self.n_cold * self.u_cold
        return total / self.n_segments

    def expected_dirty(self, window: float) -> float:
        """Expected distinct segments updated within ``window`` seconds."""
        if window < 0:
            raise ConfigurationError(f"window must be >= 0, got {window!r}")
        hot = self.n_hot * -math.expm1(-self.u_hot * window)
        cold = self.n_cold * -math.expm1(-self.u_cold * window)
        return hot + cold


def segment_rates(params: SystemParameters,
                  spec: WorkloadSpec) -> SegmentRateMixture:
    """Resolve the per-segment rate mixture implied by ``spec``.

    UNIFORM degenerates to a single class; HOTSPOT maps the hot record
    range onto whole segments (records are contiguous, so the mapping is
    exact up to the one straddling segment).  ZIPF has no two-point
    form and is not supported here.
    """
    n = params.n_segments
    total_rate = params.record_update_rate
    if spec.distribution is AccessDistribution.UNIFORM:
        return SegmentRateMixture(n_hot=0, n_cold=n, u_hot=0.0,
                                  u_cold=total_rate / n)
    if spec.distribution is not AccessDistribution.HOTSPOT:
        raise ConfigurationError(
            "segment_rates supports UNIFORM and HOTSPOT distributions; "
            f"got {spec.distribution!r}")
    hot_records = max(1, int(params.n_records * spec.hot_fraction))
    n_hot = max(1, min(n - 1, round(hot_records / params.records_per_segment)))
    n_cold = n - n_hot
    p = spec.hot_probability
    return SegmentRateMixture(
        n_hot=n_hot,
        n_cold=n_cold,
        u_hot=total_rate * p / n_hot,
        u_cold=total_rate * (1.0 - p) / n_cold,
    )


def skewed_minimum_duration(
    params: SystemParameters,
    spec: WorkloadSpec,
    dirty_window_intervals: float = 2.0,
) -> float:
    """The minimum partial-checkpoint interval under a skewed workload.

    The same fixed point as the uniform case
    (:func:`repro.model.duration.minimum_duration`) with the mixture
    dirty-count in place of the single exponential.
    """
    if dirty_window_intervals <= 0:
        raise ConfigurationError(
            f"dirty_window_intervals must be positive, "
            f"got {dirty_window_intervals!r}")
    mixture = segment_rates(params, spec)
    floor = params.segment_io_time / params.n_bdisks
    t = params.full_checkpoint_time
    for _ in range(_FIXED_POINT_MAX_ITER):
        dirty = mixture.expected_dirty(dirty_window_intervals * t)
        t_next = max(floor, flush_time(params, dirty))
        if abs(t_next - t) <= _FIXED_POINT_TOL * max(t, 1e-30):
            return t_next
        t = t_next
    return t


def skewed_flush_count(
    params: SystemParameters,
    spec: WorkloadSpec,
    interval: float,
    dirty_window_intervals: float = 2.0,
) -> float:
    """Expected segments a partial checkpoint flushes, under skew."""
    if interval < 0:
        raise ConfigurationError(f"interval must be >= 0, got {interval!r}")
    mixture = segment_rates(params, spec)
    return mixture.expected_dirty(dirty_window_intervals * interval)
