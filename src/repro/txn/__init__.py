"""Transaction processing (paper Sections 2.5, 2.6).

Transactions arrive at rate ``lam``, each updating ``N_ru`` distinct,
uniformly chosen records, costing ``C_trans`` instructions of their own
work.  They use shadow-copy updates (buffer locally, install at commit by
overwriting) and REDO-only logging.  The transaction manager coordinates
with the active checkpointer through three hooks: access guards (two-color
aborts), install hooks (copy-on-update snapshots), and LSN stamping.
"""

from .transaction import Transaction, TransactionState
from .manager import TransactionManager, TransactionStats
from .workload import WorkloadGenerator

__all__ = [
    "Transaction",
    "TransactionManager",
    "TransactionState",
    "TransactionStats",
    "WorkloadGenerator",
]
