"""Shared flash-management primitives (valid-page bookkeeping, the space engine).

Used by both the baseline on-device FTL (:mod:`repro.ftl`) and the paper's
host-side NoFTL (:mod:`repro.core`) so the comparison between them isolates
*where* management runs and *what it knows* — not incidental implementation
differences.
"""

from repro.mapping.blockinfo import BlockInfo, BlockState, BookkeepingError, DieBookkeeping
from repro.mapping.engine import FlashSpaceEngine, SpaceFullError
from repro.mapping.stats import ManagementStats

__all__ = [
    "BlockInfo",
    "BlockState",
    "BookkeepingError",
    "DieBookkeeping",
    "FlashSpaceEngine",
    "ManagementStats",
    "SpaceFullError",
]
