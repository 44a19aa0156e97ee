#!/usr/bin/env python3
"""Standalone entry point for the canonical perf harness.

The measurements live in :mod:`repro.bench` (so the ``repro bench``
CLI subcommand and the tests share them); this script just makes the
harness runnable without installing the package::

    python benchmarks/harness.py [--quick] [--out PATH] [--pr N]

writes ``BENCH_<pr>.json`` (default: in the current directory) and
prints the human-readable summary.  Validate the output with::

    python scripts/check_schema.py bench BENCH_7.json
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
