"""Arithmetic the benchmark reports with: percentiles, self times, write
amplification and the cut of files back to their last fsynced size.

Everything here is pure (or touches only the files it is given) so the
benchmark's own tests can pin it without starting a server.
"""

from __future__ import annotations

import math
import os
import stat
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: a tail percentile (from the 90th up) is reported only with this many
#: samples strictly beyond it; fewer and the value is one outlier's
TAIL_SAMPLES = 10
TAIL_FROM = 90

#: bytes of user data one update carries (8 B record id + 8 B value)
UPDATE_BYTES = 16


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when it is not supported.

    Below :data:`TAIL_FROM` one sample suffices.  A tail percentile
    needs at least :data:`TAIL_SAMPLES` samples ranked above it;
    otherwise it is not reported.
    """
    n = len(values)
    if n == 0:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if q >= TAIL_FROM and n - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def median(values: Sequence[float]) -> Optional[float]:
    """The middle value (mean of the middle two for an even count)."""
    n = len(values)
    if n == 0:
        return None
    ordered = sorted(values)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval first; overlapping children
    (spans of different threads) are counted once.
    """
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    ``spans`` rows are ``(span_id, parent_id, name, start, end, ...)``;
    parent 0 is the root.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for row in spans:
        children.setdefault(row[1], []).append((row[3], row[4]))
    return {row[0]: (row[4] - row[3])
            - covered((row[3], row[4]), children.get(row[0], ()))
            for row in spans}


def parse_proc_io(text: str) -> Dict[str, int]:
    """``/proc/<pid>/io`` as a dict of integer counters."""
    out: Dict[str, int] = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if value.strip():
            out[key.strip()] = int(value)
    return out


def write_amp(written_bytes: int, acked_updates: int) -> Optional[float]:
    """Bytes the server sent to storage per byte of acknowledged data.

    ``written_bytes`` is a ``write_bytes`` delta of ``/proc/<pid>/io``;
    acknowledged data counts :data:`UPDATE_BYTES` per update.  None when
    nothing was acknowledged.
    """
    if acked_updates <= 0:
        return None
    return written_bytes / (acked_updates * UPDATE_BYTES)


def durable_sizes(fsync_log: str) -> Dict[int, int]:
    """Inode -> file size at its latest fsync, from the launcher's log.

    Each line is ``<inode> <size>``, appended after the fsync returned.
    A torn final line (the process was killed mid-write) is ignored:
    the fsync it describes finished, but nothing acknowledged can have
    depended on it yet.
    """
    sizes: Dict[int, int] = {}
    # split("\n") leaves the unterminated remainder last; drop it
    for line in fsync_log.split("\n")[:-1]:
        inode, size = line.split()
        sizes[int(inode)] = int(size)
    return sizes


def cut_to_durable(directory: os.PathLike, sizes: Dict[int, int]) -> int:
    """Truncate each regular file in ``directory`` to its last fsynced size.

    A file whose inode never reached an fsync is cut to zero bytes.  A
    file is never extended: an inode number reused by a newer file can
    carry an older, larger size.  Returns the number of bytes cut.
    """
    cut = 0
    for path in sorted(Path(directory).iterdir()):
        info = path.lstat()
        if not stat.S_ISREG(info.st_mode):
            continue
        keep = min(info.st_size, sizes.get(info.st_ino, 0))
        if keep < info.st_size:
            os.truncate(path, keep)
            cut += info.st_size - keep
    return cut
