"""The durable WAL: :class:`~repro.wal.log.LogManager` over a real file.

The simulated log *models* stability -- ``flush()`` moves the volatile
tail into an in-memory "stable" list and charges modelled disk time.
:class:`DurableLog` keeps every simulated behaviour (LSNs, group-flush
accounting, ``when_stable`` waiters, truncation, the newly-stable drain
feeding the oracle) and adds the real thing: before the base class marks
the tail stable, the records are serialized to an append-only file,
written, and fsynced.  Only then does ``flush()`` fire stability
waiters, so an acknowledgement sent from a ``when_stable`` callback is
backed by bytes the kernel has promised are on the platter.

The on-disk format is one JSON array per line, first element a one-byte
type tag, remaining elements the record's fields in declaration order.
Newline-framed JSON keeps the file greppable and makes torn-write
handling trivial: after SIGKILL the final line may be incomplete, and
:func:`read_wal` drops exactly that suffix -- which is correct, because
records that never finished reaching the file were never fsynced, so no
acknowledgement depended on them.  Only that final, unterminated line
may fail to decode; an interior line that does is real corruption and
raises :class:`~repro.errors.WALCorruptionError` rather than silently
discarding acknowledged records.

Opening a :class:`DurableLog` over an existing file *repairs* a torn
tail first: the file is truncated to the durable prefix before it is
reopened for append, so new records can never be written onto the back
of a partial line (which would fuse them into one undecodable line and
lose every later record at the next restart).  A flush whose write or
fsync fails (a short write followed by ENOSPC, say) is undone the same
way before the error propagates: the file is cut back to its size after
the last successful sync and the append handle reopened, so the retried
tail lands on a clean line boundary and no bytes buffered by the failed
write can reach the file later.

Truncation (checkpoint log reclamation) rewrites the file through the
same temp-file + fsync + :func:`os.replace` discipline the image store
uses, so a crash during truncation leaves either the old or the new
file, never a hybrid.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError, WALCorruptionError
from ..params import SystemParameters
from ..wal.log import FlushResult, LogManager
from ..wal.lsn import LSNAllocator
from ..wal.records import (
    AbortRecord,
    BeginCheckpointRecord,
    CommitRecord,
    EndCheckpointRecord,
    LogicalUpdateRecord,
    LogRecord,
    MediaFailureRecord,
    MediaRestoreRecord,
    UpdateRecord,
)

__all__ = ["DurableLog", "encode_record", "decode_record", "read_wal",
           "scan_wal"]

#: type tag -> record class, and the reverse, for the line format
_TAG_TO_CLASS = {
    "U": UpdateRecord,
    "L": LogicalUpdateRecord,
    "C": CommitRecord,
    "A": AbortRecord,
    "B": BeginCheckpointRecord,
    "E": EndCheckpointRecord,
    "F": MediaFailureRecord,
    "R": MediaRestoreRecord,
}
_CLASS_TO_TAG = {cls: tag for tag, cls in _TAG_TO_CLASS.items()}


def encode_record(record: LogRecord) -> bytes:
    """One record as a newline-terminated JSON line."""
    tag = _CLASS_TO_TAG[type(record)]
    fields: List = list(record)
    if tag == "B":
        # the active-transaction tuple must round-trip as a list
        fields[3] = list(fields[3])
    payload = json.dumps([tag] + fields, separators=(",", ":"))
    return payload.encode("ascii") + b"\n"


def decode_record(line: str) -> LogRecord:
    """Inverse of :func:`encode_record` (raises on unknown tags)."""
    obj = json.loads(line)
    cls = _TAG_TO_CLASS[obj[0]]
    fields = obj[1:]
    if cls is BeginCheckpointRecord:
        fields[3] = tuple(fields[3])
    return cls(*fields)


def scan_wal(data: bytes) -> Tuple[List[LogRecord], int]:
    """Parse ``data`` as WAL lines; return ``(records, durable_bytes)``.

    ``durable_bytes`` is the length of the trusted prefix: the whole
    buffer normally, or everything up to a torn final line.  Every flush
    writes newline-terminated lines, so a crash can only leave a partial
    line at the very end with no terminator; a *terminated* line that
    fails to decode (or a partial line that is not last -- impossible
    without the terminated case) is corruption, not tearing, and raises
    :class:`WALCorruptionError`.
    """
    records: List[LogRecord] = []
    durable = 0
    offset = 0
    size = len(data)
    while offset < size:
        newline = data.find(b"\n", offset)
        terminated = newline >= 0
        end = newline + 1 if terminated else size
        line = data[offset:newline] if terminated else data[offset:]
        if line:
            try:
                records.append(decode_record(line.decode("ascii")))
            except (ValueError, KeyError, IndexError, TypeError,
                    UnicodeDecodeError) as exc:
                if terminated:
                    raise WALCorruptionError(
                        f"undecodable WAL line at byte {offset}: "
                        f"{line[:80]!r}") from exc
                # The torn tail: a partial final line whose flush never
                # completed, so nothing in it was ever acknowledged.
                break
        durable = end
        offset = end
    return records, durable


def read_wal(path: os.PathLike) -> Tuple[List[LogRecord], bool]:
    """Load every durable record from ``path``.

    Returns ``(records, torn)`` where ``torn`` reports whether a
    trailing partial line was discarded (the signature of a crash midway
    through a group flush; everything before it is intact and trusted).
    A missing file is an empty log.  An undecodable *interior* line
    raises :class:`WALCorruptionError` (see :func:`scan_wal`).
    """
    path = Path(path)
    if not path.exists():
        return [], False
    data = path.read_bytes()
    records, durable = scan_wal(data)
    return records, durable < len(data)


class DurableLog(LogManager):
    """A :class:`LogManager` whose stability promise is an fsynced file."""

    def __init__(self, params: SystemParameters, path: os.PathLike, *,
                 fsync: bool = True, **kwargs) -> None:
        if params.stable_log_tail:
            raise ConfigurationError(
                "DurableLog provides stability through flush+fsync; "
                "stable_log_tail would mark records durable before any "
                "byte reaches the file")
        super().__init__(params, **kwargs)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: fsync on every flush (off only for tests that measure the
        #: framing independent of disk latency)
        self.fsync_enabled = fsync
        self.fsync_count = 0
        #: bytes of torn tail cut off an existing file before reopening
        self.repaired_bytes = self._repair_torn_tail()
        self._file = open(self.path, "ab")
        #: file size after the last successful sync: every byte below it
        #: is a whole, durable record line
        self._durable_size = self._file.tell()

    def _repair_torn_tail(self) -> int:
        """Truncate a torn final line off an existing file.

        Must happen before the file is reopened for append: writing new
        records after a partial line would fuse them into one
        undecodable line, and the *next* restart would then lose every
        record from the tear onward -- acknowledged-data loss.  Returns
        the number of bytes discarded (0 when the file is clean or
        absent).  Truncation to the durable prefix is idempotent, so a
        crash racing this repair just means it runs again next start.
        """
        if not self.path.exists():
            return 0
        data = self.path.read_bytes()
        _, durable = scan_wal(data)  # raises WALCorruptionError if rotten
        torn_bytes = len(data) - durable
        if torn_bytes:
            with open(self.path, "r+b") as file:
                file.truncate(durable)
                self._sync_file(file)
        return torn_bytes

    # -- durability ----------------------------------------------------------
    def _sync_file(self, file) -> None:
        file.flush()
        if self.fsync_enabled:
            os.fsync(file.fileno())
            self.fsync_count += 1

    def _sync_directory(self) -> None:
        """Make the rename of a rewritten log durable (POSIX: fsync the
        directory, or the entry itself may not survive)."""
        if not self.fsync_enabled:
            return
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def flush(self) -> FlushResult:
        """Write and fsync the tail, then let the base class mark it stable.

        Ordering is the whole point: waiters registered via
        ``when_stable`` fire inside ``super().flush()``, and anything
        they trigger (commit acknowledgements) must be preceded by the
        fsync.
        """
        if self._tail:
            data = b"".join(encode_record(r) for r in self._tail)
            try:
                self._file.write(data)
                self._sync_file(self._file)
            except OSError:
                self._rewind()
                raise
            self._durable_size += len(data)
        return super().flush()

    def _rewind(self) -> None:
        """Undo a failed flush: cut the file back to its durable size.

        The tail stays queued, so the next flush writes it again whole.
        The append handle is closed first (a failure to flush whatever
        it still buffers is expected and ignored) and reopened after the
        cut, so no byte of the failed write can land behind the retry.
        """
        try:
            self._file.close()
        except OSError:
            pass
        os.truncate(self.path, self._durable_size)
        self._file = open(self.path, "ab")

    def truncate_stable_before(self, lsn: int) -> int:
        """Reclaim old records in memory *and* on disk, atomically."""
        reclaimed = super().truncate_stable_before(lsn)
        if reclaimed:
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "wb") as file:
                file.write(b"".join(encode_record(r) for r in self._stable))
                self._sync_file(file)
            self._file.close()
            os.replace(tmp, self.path)
            self._sync_directory()
            self._file = open(self.path, "ab")
            self._durable_size = self._file.tell()
        return reclaimed

    # -- restart -------------------------------------------------------------
    def hydrate(self, records: Sequence[LogRecord]) -> None:
        """Adopt ``records`` (from :func:`read_wal`) as the stable log.

        Called once at restart, before any new appends: the stable list,
        stable horizon, and the LSN allocator all resume exactly where
        the previous process durably left off.  The records are *not*
        offered to ``drain_newly_stable`` -- recovery feeds the oracle
        directly, and re-draining would double-apply.
        """
        if self._tail or self._stable:
            raise ConfigurationError("hydrate() requires a fresh log")
        self._stable = list(records)
        if records:
            last = max(record.lsn for record in records)
            self._stable_lsn = records[-1].lsn
            self._allocator = LSNAllocator(start=last)

    def close(self) -> None:
        self._file.close()
