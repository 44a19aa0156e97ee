"""``scripts/check_schema.py``: one validator, three kinds, exit 0/1/2.

What these tests pin down:

* a livebench report that admits acknowledged-data loss (nonzero
  ``oracle_mismatches``) exits 1, and an intact one exits 0;
* structural and semantic violations of one document are all listed
  in a single pass;
* an unreadable document exits 2;
* a real ``repro metrics --json`` payload and every registered
  workload scenario exit 0;
* only the ``metrics``, ``workload`` and ``livebench`` kinds exist.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_schema", REPO_ROOT / "scripts" / "check_schema.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()

#: a killed-and-recovered live-bench report, shaped like
#: ``repro.live.client.run_live_bench``'s output
LIVEBENCH_REPORT = {
    "schema_version": 1,
    "kind": "livebench",
    "config": {"duration": 2.0, "rate": 150.0, "seed": 3, "scale": 2048,
               "workers": 4, "checkpoint_interval": 0.8,
               "flush_interval": 0.005},
    "workload": {"offered": 300, "acked": 298, "failed": 2,
                 "duration": 2.0, "rate": 150.0},
    "latency": {"unit": "seconds", "count": 298, "mean": 0.008,
                "p50": 0.006, "p95": 0.015, "p99": 0.03, "max": 0.05},
    "stalls": {"transactions_attributed": 298, "checkpoint_windows": 2,
               "checkpoint_stall_seconds": 0.01, "quantiles": {}},
    "checkpoints": {"completed": 2, "wal_fsyncs": 120},
    "crash": {"killed": True, "hold_phase": "pre-install",
              "oracle_mismatches": 0, "durable_commits": 298,
              "shadow_records": 40, "shadow_verified": 40,
              "consistent": True},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_intact_livebench_report_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "ok.json", LIVEBENCH_REPORT)
    assert checker.main(["livebench", path]) == 0
    assert "satisfies schemas/livebench.schema.json" in capsys.readouterr().out


def test_livebench_report_with_oracle_mismatches_exits_one(tmp_path, capsys):
    report = copy.deepcopy(LIVEBENCH_REPORT)
    report["crash"]["oracle_mismatches"] = 3
    path = _write(tmp_path, "lost.json", report)
    assert checker.main(["livebench", path]) == 1
    err = capsys.readouterr().err
    assert "does NOT satisfy" in err
    assert "3 mismatch(es)" in err


def test_structural_and_semantic_violations_reported_in_one_pass(
        tmp_path, capsys):
    report = copy.deepcopy(LIVEBENCH_REPORT)
    del report["stalls"]                       # structural
    report["config"]["seed"] = "three"         # structural
    report["workload"]["acked"] = 301          # semantic: acked > offered
    report["latency"]["p99"] = 0.001           # semantic: not monotone
    path = _write(tmp_path, "both.json", report)
    assert checker.main(["livebench", path]) == 1
    err = capsys.readouterr().err
    assert "missing required property 'stalls'" in err
    assert "$.config.seed: expected type integer" in err
    assert "acked exceeds offered" in err
    assert "percentiles must be monotone" in err


def test_missing_document_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert checker.main(["livebench", missing]) == 2
    assert "error reading inputs" in capsys.readouterr().err


def test_undecodable_document_exits_two(tmp_path, capsys):
    path = tmp_path / "garbled.json"
    path.write_text("{not json")
    assert checker.main(["metrics", str(path)]) == 2
    assert "error reading inputs" in capsys.readouterr().err


def test_metrics_payload_from_the_cli_exits_zero(tmp_path, capsys):
    from repro.cli import main
    assert main(["metrics", "--preset", "fig4b-small", "--duration", "0.5",
                 "--json"]) == 0
    path = tmp_path / "metrics.json"
    path.write_text(capsys.readouterr().out)
    assert checker.main(["metrics", str(path)]) == 0
    assert "satisfies schemas/metrics.schema.json" in capsys.readouterr().out


def test_every_registered_workload_scenario_exits_zero(capsys):
    assert checker.main(["workload"]) == 0
    assert "all registered scenarios satisfies" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["bench", "x.json"], ["metrics"]])
def test_unknown_kind_or_missing_doc_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        checker.main(argv)
    assert exc.value.code == 2
    capsys.readouterr()
