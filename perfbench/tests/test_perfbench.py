"""Tests of the benchmark itself: its arithmetic, its crash cut, and a
smoke run of each workload at minimal size.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import livephase  # noqa: E402
import restartphase  # noqa: E402
from stats import (covered, cut_to_durable, durable_sizes, median,  # noqa: E402
                   parse_proc_io, percentile, self_times, write_amp)


# -- percentiles ---------------------------------------------------------------

def test_median_of_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([]) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 45) == 45
    assert percentile(values, 90) == 90


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 99) == 989   # 10 samples above
    assert percentile(list(range(999)), 99) is None   # only 9 above
    assert percentile([5.0], 50) == 5.0
    assert percentile([], 50) is None


# -- self times ------------------------------------------------------------------

def test_covered_merges_overlapping_children_and_clips():
    assert covered((0.0, 10.0), [(1, 3), (2, 4), (8, 12)]) == 5.0
    assert covered((0.0, 10.0), [(-5, -1), (11, 12)]) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        (1, 0, "parent", 0.0, 10.0, None),
        (2, 1, "child", 1.0, 3.0, None),
        (3, 1, "child", 2.0, 4.0, None),      # overlaps span 2
        (4, 2, "grandchild", 1.5, 2.5, None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(7.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def _op(keys, value, sent, done, reply):
    op = livephase.Op(keys, value)
    op.sent, op.done, op.reply = sent, done, reply
    return op


def test_commit_path_parts_sum_to_the_round_trip():
    # host.submit 1.0-1.009; queue wait to 1.001, execute to 1.0015,
    # the flush 1.004-1.007 (encode 0.5 ms, fsync 1 ms) acks it.
    spans = [
        (1, 0, "host.submit", 1.000, 1.009, 7),
        (2, 1, "dispatch.wait", 1.0002, 1.001, None),
        (3, 1, "dispatch.run", 1.001, 1.0015, None),
        (4, 9, "wal.flush", 1.004, 1.007, None),
        (5, 4, "wal.encode", 1.0041, 1.0046, [30, "U"]),
        (6, 4, "fsync", 1.005, 1.006, 100),
    ]
    op = _op((1, 2), 1, 0.999, 1.0095, {"ok": True, "txn_id": 7,
                                       "commit_lsn": 3, "latency": 0.0085})
    windows = livephase.Windows()
    windows.add(0.0, 2.0)
    parts = livephase.commit_path([op], spans, windows)
    rtt = parts.pop("rtt")
    assert rtt == pytest.approx(0.0105)
    assert sum(parts.values()) == pytest.approx(rtt)
    assert parts["tick_wait"] == pytest.approx(0.0025)
    assert parts["encode"] == pytest.approx(0.0005)
    assert parts["fsync"] == pytest.approx(0.001)
    assert parts["ack_wake"] == pytest.approx(0.002)


def test_restart_parts_sum_to_the_restart_time():
    spans = [
        (1, 0, "wal.scan", 0.30, 0.50, None),            # torn-tail repair
        (2, 0, "host.recover", 0.60, 1.60, None),
        (3, 2, "wal.read", 0.61, 0.90, None),
        (4, 3, "wal.scan", 0.61, 0.89, None),            # inside read_wal
        (5, 2, "store.load", 0.90, 1.00, None),
        (6, 2, "oracle.seed", 1.00, 1.05, None),
        (7, 2, "redo.feed", 1.05, 1.40, None),
        (8, 2, "wal.hydrate", 1.40, 1.45, None),
    ]
    parts = restartphase.restart_layers(spans, restart_s=2.0)
    assert parts["repair_scan_s"] == pytest.approx(0.2)
    assert parts["read_wal_s"] == pytest.approx(0.29)
    assert parts["recover_s"] == pytest.approx(1.0)
    assert parts["interp_s"] == pytest.approx(1.0)
    assert parts["recover_self_s"] == pytest.approx(0.16)
    assert sum(parts[k] for k in restartphase.TELESCOPING) == pytest.approx(2.0)


# -- /proc write amplification ------------------------------------------------------

PROC_IO = """rchar: 5653584
wchar: 67110611
syscr: 604
syscw: 23
read_bytes: 0
write_bytes: {}
cancelled_write_bytes: 0
"""


def test_parse_proc_io():
    io = parse_proc_io(PROC_IO.format(4096))
    assert io["write_bytes"] == 4096
    assert io["syscw"] == 23


def test_write_amp_is_bytes_written_per_acknowledged_user_byte():
    before = parse_proc_io(PROC_IO.format(1000))
    after = parse_proc_io(PROC_IO.format(1000 + 3 * 16 * 100))
    written = after["write_bytes"] - before["write_bytes"]
    assert write_amp(written, acked_updates=100) == pytest.approx(3.0)
    assert write_amp(written, acked_updates=0) is None


# -- fsync-size truncation ------------------------------------------------------------

def test_durable_sizes_keeps_the_latest_and_ignores_a_torn_line():
    assert durable_sizes("5 10\n6 3\n5 40\n") == {5: 40, 6: 3}
    assert durable_sizes("5 10\n5 4") == {5: 10}
    assert durable_sizes("") == {}


def test_cut_to_durable(tmp_path):
    synced = tmp_path / "wal.jsonl"
    synced.write_bytes(b"x" * 100)
    never = tmp_path / "checkpoint.npz.tmp"
    never.write_bytes(b"y" * 30)
    reused = tmp_path / "checkpoint.npz"
    reused.write_bytes(b"z" * 20)
    (tmp_path / "subdir").mkdir()
    sizes = {synced.stat().st_ino: 60, reused.stat().st_ino: 500}
    assert cut_to_durable(tmp_path, sizes) == 40 + 30
    assert synced.stat().st_size == 60
    assert never.stat().st_size == 0
    assert reused.stat().st_size == 20          # never extended


# -- the whole benchmark ------------------------------------------------------------------

def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["db-8mb", "db-1mb"])
def test_smoke_run_passes_its_gates(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace == "1"
                                         else "end_to_end"]}
    # at minimal size tails lack their ten samples and the short live
    # windows may hold no checkpoint, so only a subset is reported
    assert result["metrics"] and set(result["metrics"]) <= names
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert not any((ROOT / ".perfbench-work").glob("run-*"))


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").symlink_to(BENCH)
    done = _run(tmp_path, "--workload", "db-1mb", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
    assert os.listdir(tmp_path) == ["perfbench"]
