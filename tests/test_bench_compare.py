"""The ``repro bench --compare`` regression gate.

The bench trajectory (``BENCH_<n>.json`` per perf PR) is only useful if
a later PR cannot silently regress it, so the gate itself is under
test: :func:`repro.bench.compare_bench` must flag every metric that
fell beyond tolerance, tolerate additive schema growth, and -- through
both CLI front ends -- turn a flagged regression into a nonzero exit.
The CLI tests stub :func:`repro.bench.run_harness` so no real
measurement runs; what is under test is the gating, not the clock.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.bench import (COMPARED_METRICS, DEFAULT_COMPARE_TOLERANCE,
                         compare_bench)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _payload(scale: float = 1.0, pr: int = 8) -> dict:
    """A structurally valid bench payload with all rates scaled."""
    return {
        "schema_version": 1,
        "pr": pr,
        "created_unix": 0.0,
        "python": "3.11",
        "platform": "test",
        "quick": True,
        "repeats": 1,
        "results": {
            "engine_events": {
                "events": 1000,
                "wall_seconds": 0.1,
                "events_per_second": 500_000.0 * scale,
            },
            "simulated_txns": {
                "algorithm": "FUZZYCOPY",
                "simulated_seconds": 1.0,
                "committed": 300,
                "engine_events": 1000,
                "wall_seconds": 0.1,
                "txns_per_second": 10_000.0 * scale,
                "events_per_second": 30_000.0 * scale,
            },
            "recovery_replay": {
                "algorithm": "FUZZYCOPY",
                "transactions_replayed": 200,
                "wall_seconds": 0.01,
                "replayed_per_second": 100_000.0 * scale,
                "verified": True,
            },
            "sweep_wall_clock": {
                "cells": 4,
                "simulated_seconds_per_cell": 0.5,
                "wall_seconds": 0.2,
                "cells_per_second": 20.0 * scale,
                "workers": 1,
            },
        },
    }


class TestCompareBench:
    def test_identical_payloads_pass(self):
        report, regressions = compare_bench(_payload(), _payload())
        assert regressions == []
        assert "PASS" in report
        # every gated metric appears in the report
        for section, key in COMPARED_METRICS:
            assert f"{section}.{key}" in report

    def test_improvement_passes(self):
        report, regressions = compare_bench(_payload(), _payload(scale=3.0))
        assert regressions == []
        assert "+200.0%" in report

    def test_injected_regression_fails(self):
        # a 50% drop on every rate, far beyond the 30% default tolerance
        report, regressions = compare_bench(_payload(), _payload(scale=0.5))
        assert len(regressions) == len(COMPARED_METRICS)
        assert "FAIL" in report and "REGRESSION" in report

    def test_single_metric_regression_is_isolated(self):
        current = _payload()
        current["results"]["simulated_txns"]["txns_per_second"] *= 0.1
        report, regressions = compare_bench(_payload(), current)
        assert len(regressions) == 1
        assert "simulated_txns.txns_per_second" in regressions[0]

    def test_drop_within_tolerance_passes(self):
        slower = _payload(scale=1 - DEFAULT_COMPARE_TOLERANCE + 0.05)
        _, regressions = compare_bench(_payload(), slower)
        assert regressions == []

    def test_tolerance_is_configurable(self):
        slightly_slower = _payload(scale=0.9)
        _, loose = compare_bench(_payload(), slightly_slower, tolerance=0.2)
        _, tight = compare_bench(_payload(), slightly_slower, tolerance=0.05)
        assert loose == []
        assert len(tight) == len(COMPARED_METRICS)

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_bench(_payload(), _payload(), tolerance=1.5)
        with pytest.raises(ValueError):
            compare_bench(_payload(), _payload(), tolerance=-0.1)

    def test_missing_metric_skipped_not_failed(self):
        # an older baseline predating a metric must stay usable
        baseline = _payload(pr=7)
        del baseline["results"]["sweep_wall_clock"]["cells_per_second"]
        report, regressions = compare_bench(baseline, _payload(scale=0.01))
        assert "missing; skipped" in report
        assert not any("sweep_wall_clock" in entry for entry in regressions)


class TestCliGate:
    """``repro bench --compare`` exits nonzero on an injected regression."""

    @pytest.fixture()
    def stub_harness(self, monkeypatch):
        """Make the harness instant and steerable via a mutable scale."""
        knob = {"scale": 1.0}

        def fake_run_harness(quick=False, pr=None, repeats=None, workers=1):
            return _payload(scale=knob["scale"],
                            pr=8 if pr is None else pr)

        import repro.bench
        monkeypatch.setattr(repro.bench, "run_harness", fake_run_harness)
        return knob

    def test_regression_exits_nonzero(self, tmp_path, stub_harness, capsys):
        from repro.cli import main
        baseline = tmp_path / "BENCH_7.json"
        baseline.write_text(json.dumps(_payload(pr=7)))
        stub_harness["scale"] = 0.4  # inject a 60% across-the-board drop
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--out", str(tmp_path / "b.json"),
                  "--compare", str(baseline)])
        assert excinfo.value.code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_no_regression_exits_zero(self, tmp_path, stub_harness, capsys):
        from repro.cli import main
        baseline = tmp_path / "BENCH_7.json"
        baseline.write_text(json.dumps(_payload(pr=7)))
        assert main(["bench", "--quick", "--out", str(tmp_path / "b.json"),
                     "--compare", str(baseline)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tolerance_flag_loosens_gate(self, tmp_path, stub_harness):
        from repro.cli import main
        baseline = tmp_path / "BENCH_7.json"
        baseline.write_text(json.dumps(_payload(pr=7)))
        stub_harness["scale"] = 0.4
        assert main(["bench", "--quick", "--out", str(tmp_path / "b.json"),
                     "--compare", str(baseline),
                     "--tolerance", "0.9"]) == 0


class TestSchemaCheckerAgainst:
    """``check_schema.py bench --against`` gates on a baseline file."""

    @staticmethod
    def _checker():
        spec = importlib.util.spec_from_file_location(
            "check_schema", REPO_ROOT / "scripts" / "check_schema.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_against_regression_exits_one(self, tmp_path, capsys):
        checker = self._checker()
        doc = tmp_path / "BENCH_8.json"
        base = tmp_path / "BENCH_7.json"
        doc.write_text(json.dumps(_payload(scale=0.3)))
        base.write_text(json.dumps(_payload(pr=7)))
        assert checker.main(["bench", str(doc),
                             "--against", str(base)]) == 1

    def test_against_clean_exits_zero(self, tmp_path):
        checker = self._checker()
        doc = tmp_path / "BENCH_8.json"
        base = tmp_path / "BENCH_7.json"
        doc.write_text(json.dumps(_payload(scale=1.2)))
        base.write_text(json.dumps(_payload(pr=7)))
        assert checker.main(["bench", str(doc),
                             "--against", str(base)]) == 0

    def test_invalid_document_still_fails_structurally(self, tmp_path):
        checker = self._checker()
        doc = tmp_path / "broken.json"
        broken = _payload()
        broken["results"]["recovery_replay"]["verified"] = False
        doc.write_text(json.dumps(broken))
        assert checker.main(["bench", str(doc)]) == 1


class TestAllFailuresReported:
    """One invocation reports EVERY failure, never just the first.

    The gate's whole value is the full damage report: a checker that
    stops at the first regressed metric turns a three-metric regression
    into three CI round-trips.
    """

    def test_compare_report_names_every_regressed_metric(self):
        # Three independent drops -> all three named in report AND list.
        current = _payload()
        current["results"]["engine_events"]["events_per_second"] *= 0.1
        current["results"]["simulated_txns"]["txns_per_second"] *= 0.1
        current["results"]["sweep_wall_clock"]["cells_per_second"] *= 0.1
        report, regressions = compare_bench(_payload(), current)
        assert len(regressions) == 3
        for name in ("engine_events.events_per_second",
                     "simulated_txns.txns_per_second",
                     "sweep_wall_clock.cells_per_second"):
            assert any(name in entry for entry in regressions)
            assert name in report

    def test_cli_compare_output_names_every_regressed_metric(
            self, tmp_path, capsys):
        from repro.cli import main
        knob_payload = _payload()
        knob_payload["results"]["simulated_txns"]["txns_per_second"] *= 0.1
        knob_payload["results"]["recovery_replay"][
            "replayed_per_second"] *= 0.1

        def fake_run_harness(quick=False, pr=None, repeats=None, workers=1):
            return knob_payload

        import repro.bench
        import unittest.mock
        baseline = tmp_path / "BENCH_7.json"
        baseline.write_text(json.dumps(_payload(pr=7)))
        with unittest.mock.patch.object(repro.bench, "run_harness",
                                        fake_run_harness):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--quick", "--out", str(tmp_path / "b.json"),
                      "--compare", str(baseline)])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "simulated_txns.txns_per_second" in out
        assert "recovery_replay.replayed_per_second" in out

    def test_checker_reports_structural_and_regression_together(
            self, tmp_path, capsys):
        # A document that is BOTH semantically broken (zero rate,
        # unverified recovery) and regressed must surface all three
        # failure classes from the one run -- the --against compare must
        # not be short-circuited by the validation errors.
        checker = TestSchemaCheckerAgainst._checker()
        doc_payload = _payload(scale=0.3)  # regressed across the board
        doc_payload["results"]["engine_events"]["events_per_second"] = 0.0
        doc_payload["results"]["recovery_replay"]["verified"] = False
        doc = tmp_path / "BENCH_8.json"
        base = tmp_path / "BENCH_7.json"
        doc.write_text(json.dumps(doc_payload))
        base.write_text(json.dumps(_payload(pr=7)))
        assert checker.main(["bench", str(doc),
                             "--against", str(base)]) == 1
        captured = capsys.readouterr()
        assert "rate must be > 0" in captured.err
        assert "not oracle-verified" in captured.err
        assert "REGRESSION" in captured.out
        # every rate dropped 70%: each gated metric is in the compare
        # report, not just the first
        assert "simulated_txns.txns_per_second" in captured.out
        assert "sweep_wall_clock.cells_per_second" in captured.out

    def test_checker_regression_only_still_reported(self, tmp_path, capsys):
        # A structurally clean document must still run (and fail) the
        # baseline compare.
        checker = TestSchemaCheckerAgainst._checker()
        doc = tmp_path / "BENCH_8.json"
        base = tmp_path / "BENCH_7.json"
        doc.write_text(json.dumps(_payload(scale=0.3)))
        base.write_text(json.dumps(_payload(pr=7)))
        assert checker.main(["bench", str(doc),
                             "--against", str(base)]) == 1
        captured = capsys.readouterr()
        assert "satisfies" in captured.out
        assert "REGRESSION" in captured.out
