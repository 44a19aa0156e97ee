"""A crashed data directory, and restarts of the live server on it.

The directory is built by the live host's own ``DurableLog`` and
``ImageStore``: uniform 5-update transactions flushed in groups, an
image installed after the first quarter of the log, and a torn
half-line at the end (a flush the crash cut short).  Each restart is
timed from spawning the server until it prints its ready line.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from serverproc import BenchError, Client, Server
from stats import median, self_times

#: transactions per group flush while building the log
GROUP = 250
#: records whose restarted value is read back over the socket
SAMPLE_RECORDS = 300
#: the parts of :func:`restart_layers` that sum to the restart time
TELESCOPING = ("read_wal_s", "image_load_s", "oracle_s", "redo_s",
               "hydrate_s", "recover_self_s", "repair_scan_s", "startup_s")


def restart_inputs(seed: int, scale: int, n_txns: int) -> List[Tuple[int, ...]]:
    """The seeded record ids of each transaction in the crashed log."""
    from repro.params import SystemParameters
    from repro.sim.rng import RandomStreams
    from repro.txn.workload import WorkloadGenerator
    from repro.workload.spec import WorkloadSpec

    generator = WorkloadGenerator(SystemParameters.scaled_down(scale),
                                  WorkloadSpec(), RandomStreams(seed))
    return [generator.make_transaction(0.0).record_ids for _ in range(n_txns)]


def build_state(directory: Path, scale: int,
                txns: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """Write the crashed state; return every record's committed value.

    Transaction ``i`` writes value ``i`` to each of its records.
    """
    from repro.live.store import ImageStore
    from repro.live.wal import DurableLog, encode_record
    from repro.params import SystemParameters

    params = SystemParameters.scaled_down(scale)
    log = DurableLog(params, directory / "wal.jsonl", fsync=True)
    store = ImageStore(directory, fsync=True)
    values = np.zeros(params.n_records, dtype=np.int64)
    image_at = len(txns) // 4
    for txn_id, keys in enumerate(txns, 1):
        for key in keys:
            log.append_update(txn_id, key, txn_id)
        log.append_commit(txn_id)
        values[list(keys)] = txn_id
        if txn_id % GROUP == 0 or txn_id == image_at:
            log.flush()
        if txn_id == image_at:
            store.install(1, log.stable_lsn, values)
    log.flush()
    torn = log.append_update(len(txns) + 1, txns[0][0], len(txns) + 1)
    log.close()
    line = encode_record(torn)
    with open(directory / "wal.jsonl", "ab") as wal:
        wal.write(line[:len(line) // 2])
    return values


def expected_recovery(n_txns: int) -> Dict[str, object]:
    """What restart must report on a state from :func:`build_state`."""
    return {
        "checkpoint_id": 1,
        "records_scanned": n_txns * 6,      # 5 updates + 1 commit each
        "transactions_replayed": n_txns - n_txns // 4,
        "updates_dropped": 0,
        "torn_tail": True,
    }


def digest(directory: Path) -> str:
    """SHA-256 of the WAL: each set-up and each restart sees the same one."""
    return hashlib.sha256((directory / "wal.jsonl").read_bytes()).hexdigest()


def torn_tail(directory: Path) -> bytes:
    """The unterminated half-line at the end of a built WAL."""
    data = (directory / "wal.jsonl").read_bytes()
    return data[data.rindex(b"\n") + 1:]


def retear(directory: Path, torn: bytes) -> None:
    """Put back the torn half-line a restart's repair cut off.

    Restart rewrites nothing else (no checkpoints run, and the shutdown
    flush has nothing to write), so the state can be restarted again in
    place instead of being copied, which would add disk writes.
    """
    with open(directory / "wal.jsonl", "r+b") as wal:
        end = wal.seek(0, 2)
        wal.seek(max(0, end - len(torn)))
        if wal.read() != torn:
            wal.write(torn)


def sample_keys(seed: int, values: np.ndarray,
                txns: Sequence[Tuple[int, ...]]) -> List[int]:
    """A seeded sample plus every record of the last 50 transactions."""
    rng = np.random.default_rng([seed, 7])
    keys = set(rng.choice(values.size, size=min(SAMPLE_RECORDS, values.size),
                          replace=False).tolist())
    for record_ids in txns[-50:]:
        keys.update(record_ids)
    return sorted(keys)


def restart_once(src: str, work: Path, state: Path, scale: int, *,
                 trace: bool, registry: List[Server], values: np.ndarray,
                 torn: bytes, wal_digest: str, expected: Dict[str, object],
                 keys: List[int]) -> dict:
    """Restart on ``state``; time it and check the result."""
    retear(state, torn)
    if digest(state) != wal_digest:
        raise BenchError("the crashed WAL changed between restarts")
    server = Server(src, work, state, scale, None, trace, registry)
    restart_s = server.ready_s
    recovery = server.ready["recovery"]
    for key, value in expected.items():
        if recovery[key] != value:
            raise BenchError(f"restart reported {key}={recovery[key]!r}, "
                             f"expected {value!r}: {recovery}")
    client = Client(server.port)
    try:
        mismatches = client.request({"op": "verify"})["mismatches"]
        if mismatches:
            raise BenchError(f"oracle mismatches after restart: {mismatches}")
        wrong = []
        for key in keys:
            got = client.request({"op": "get", "record": key})["value"]
            if got != int(values[key]):
                wrong.append((key, got, int(values[key])))
        if wrong:
            raise BenchError(f"restart lost committed values: {wrong[:5]}")
    finally:
        client.close()
    rss = server.peak_rss_mb()
    spans = server.dump_spans() if trace else None
    server.shutdown()
    return {"restart_s": restart_s, "peak_rss_mb": rss, "spans": spans,
            "recovery": recovery,
            "wal_bytes": (state / "wal.jsonl").stat().st_size}


def restart_layers(spans: list, restart_s: float) -> Dict[str, float]:
    """Split one traced restart into named parts (seconds).

    The parts telescope to ``restart_s``: ``startup`` is what remains
    outside ``LiveHost.recover`` and the torn-tail repair scan
    (interpreter start, imports, allocation, socket bind), and
    ``recover_self`` is what remains inside ``recover`` outside the
    wrapped calls.
    """
    recover = next(row for row in spans if row[2] == "host.recover")
    reads = {row[0] for row in spans if row[2] == "wal.read"}
    under = [row for row in spans if row[1] == recover[0]]

    def total(rows) -> float:
        return sum(row[4] - row[3] for row in rows)

    repair = total(row for row in spans
                   if row[2] == "wal.scan" and row[1] not in reads)
    parts = {
        "read_wal_s": total(r for r in under if r[2] == "wal.read"),
        "image_load_s": total(r for r in under if r[2] == "store.load"),
        "oracle_s": total(r for r in under if r[2].startswith("oracle.")),
        "redo_s": total(r for r in under if r[2].startswith("redo.")),
        "hydrate_s": total(r for r in under if r[2] == "wal.hydrate"),
    }
    recover_s = recover[4] - recover[3]
    parts["recover_self_s"] = self_times(spans)[recover[0]]
    parts["repair_scan_s"] = repair
    parts["recover_s"] = recover_s
    parts["interp_s"] = restart_s - recover_s
    parts["startup_s"] = restart_s - recover_s - repair
    return parts


def median_layers(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: median([row[key] for row in rows]) for key in rows[0]}
