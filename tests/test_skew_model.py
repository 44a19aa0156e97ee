"""Tests for the skew-aware dirtying model, cross-validated in the testbed."""

from __future__ import annotations

import pytest

from tests.helpers import build_system
from repro.errors import ConfigurationError
from repro.model.duration import minimum_duration
from repro.model.skew import (
    segment_rates,
    skewed_flush_count,
    skewed_minimum_duration,
)
from repro.params import SystemParameters
from repro.workload import AccessDistribution, WorkloadSpec

HOTSPOT = WorkloadSpec(distribution=AccessDistribution.HOTSPOT,
                       hot_fraction=0.05, hot_probability=0.95)


class TestSegmentRates:
    def test_uniform_degenerates_to_single_class(self, paper_params):
        mixture = segment_rates(paper_params, WorkloadSpec())
        assert mixture.n_hot == 0
        assert mixture.n_cold == paper_params.n_segments
        assert mixture.u_cold == pytest.approx(
            paper_params.segment_update_rate)

    def test_hotspot_rates_conserve_total(self, paper_params):
        mixture = segment_rates(paper_params, HOTSPOT)
        total = (mixture.n_hot * mixture.u_hot
                 + mixture.n_cold * mixture.u_cold)
        assert total == pytest.approx(paper_params.record_update_rate)

    def test_hot_segments_much_hotter(self, paper_params):
        mixture = segment_rates(paper_params, HOTSPOT)
        assert mixture.u_hot > 100 * mixture.u_cold
        assert mixture.n_hot == pytest.approx(
            0.05 * paper_params.n_segments, rel=0.05)

    def test_zipf_unsupported(self, paper_params):
        spec = WorkloadSpec(distribution=AccessDistribution.ZIPF)
        with pytest.raises(ConfigurationError):
            segment_rates(paper_params, spec)

    def test_expected_dirty_limits(self, paper_params):
        mixture = segment_rates(paper_params, HOTSPOT)
        assert mixture.expected_dirty(0.0) == 0.0
        assert mixture.expected_dirty(1e9) == pytest.approx(
            paper_params.n_segments)
        with pytest.raises(ConfigurationError):
            mixture.expected_dirty(-1.0)


class TestSkewedDuration:
    def test_uniform_spec_matches_uniform_model(self, paper_params):
        skewed = skewed_minimum_duration(paper_params, WorkloadSpec())
        uniform = minimum_duration(paper_params)
        assert skewed == pytest.approx(uniform, rel=1e-9)

    def test_skew_shortens_minimum_at_moderate_load(self):
        """Hotspot concentration leaves most cold segments clean, so the
        partial checkpoint is smaller and the fixed point lower."""
        params = SystemParameters.paper_defaults().replace(lam=100.0)
        skewed = skewed_minimum_duration(params, HOTSPOT)
        uniform = minimum_duration(params)
        assert skewed < 0.7 * uniform

    def test_flush_count_monotone_in_interval(self, paper_params):
        counts = [skewed_flush_count(paper_params, HOTSPOT, t)
                  for t in (1.0, 10.0, 100.0)]
        assert counts == sorted(counts)

    def test_validation(self, paper_params):
        with pytest.raises(ConfigurationError):
            skewed_minimum_duration(paper_params, HOTSPOT,
                                    dirty_window_intervals=0)
        with pytest.raises(ConfigurationError):
            skewed_flush_count(paper_params, HOTSPOT, -1.0)


class TestTestbedCrossValidation:
    def test_simulated_hotspot_flush_counts_match_model(self, small_params):
        """The skew model predicts the testbed's partial-checkpoint sizes."""
        system = build_system(small_params, "FUZZYCOPY", seed=12,
                              workload=HOTSPOT)
        system.run(4.0)
        system.reset_measurements()
        system.run(8.0)
        history = system.checkpointer.history
        assert history
        measured = sum(c.segments_flushed for c in history) / len(history)
        intervals = [b.began_at - a.began_at
                     for a, b in zip(history, history[1:])]
        mean_interval = (sum(intervals) / len(intervals)
                         if intervals else history[0].duration)
        predicted = skewed_flush_count(small_params, HOTSPOT, mean_interval)
        assert measured == pytest.approx(predicted, rel=0.25)

    def test_simulated_duration_bounded_by_skewed_fixed_point(
            self, small_params):
        """The fixed point is the bandwidth-limited *lower bound*.

        Skewed checkpoints here flush only a dozen segments, so the
        testbed pays pipeline-fill quantization (ceil(n / io_depth) disk
        rounds) the fluid model ignores; measured durations land between
        1x and ~2.5x the fixed point.  At uniform full-size checkpoints
        the two agree within 10% (see test_validation.py).
        """
        system = build_system(small_params, "FUZZYCOPY", seed=12,
                              workload=HOTSPOT)
        system.run(4.0)
        system.reset_measurements()
        system.run(8.0)
        history = system.checkpointer.history
        durations = [c.duration for c in history]
        measured = sum(durations) / len(durations)
        predicted = skewed_minimum_duration(small_params, HOTSPOT)
        assert predicted * 0.95 < measured < predicted * 2.5
