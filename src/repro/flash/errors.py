"""Exception hierarchy for the native flash simulator.

Every error raised by :mod:`repro.flash` derives from :class:`FlashError`, so
callers that want blanket handling of device-level failures can catch a single
type.  The concrete subclasses mirror the failure modes of real NAND flash
hardware: addressing outside the device geometry, violating the
program/erase discipline, exceeding endurance, and touching blocks that were
retired to the bad-block table.
"""

from __future__ import annotations


class FlashError(Exception):
    """Base class for all errors raised by the flash simulator."""


class ConfigError(FlashError, ValueError):
    """A flash-layer object was constructed with invalid parameters.

    Subclasses ``ValueError`` so existing ``except ValueError`` callers
    (and tests) keep working, while ``except FlashError`` blanket
    handlers see it too — the repo's typed-error discipline
    (``errors.typed-discipline`` lint rule).
    """


class AddressError(FlashError):
    """A physical address does not exist in the device geometry."""


class ProgramError(FlashError):
    """A PROGRAM PAGE command violated NAND programming rules.

    Raised when programming a page that has not been erased since it was
    last programmed, or when programming pages of a block out of order
    (NAND requires strictly sequential page programming within a block).
    """


class EraseError(FlashError):
    """An ERASE BLOCK command could not be performed."""


class CopybackError(FlashError):
    """A COPYBACK command violated its constraints.

    Real NAND copyback moves a page through the on-die page register and is
    only possible within one die (and, on strict hardware, within one
    plane).
    """


class ReadError(FlashError):
    """A READ PAGE command targeted a page with no readable content."""


class WearOutError(FlashError):
    """A block exceeded its rated program/erase endurance."""


class BadBlockError(FlashError):
    """The command targeted a block in the bad-block table."""


class DataError(FlashError):
    """Page payload does not fit the geometry (too large, wrong type)."""


class TransientReadError(ReadError):
    """A READ PAGE failed recoverably (ECC miss); a retry may succeed.

    Real NAND reports correctable-but-failed reads that succeed under a
    read-retry sequence with shifted reference voltages.  Raised only by
    fault injection (:mod:`repro.faults`); the management layer answers
    with bounded retry followed by a salvage relocation (scrub).
    """

    def __init__(self, die: int, block: int, page: int) -> None:
        super().__init__(f"transient read failure at die {die} block {block} page {page}")
        self.die = die
        self.block = block
        self.page = page


class ProgramFaultError(ProgramError):
    """A PROGRAM PAGE failed in the cell array (grown bad block).

    Raised before the page is committed: the block's previously programmed
    pages remain readable, but the block must be retired.  The management
    layer salvages the live pages and re-drives the write to a fresh
    frontier.
    """

    def __init__(self, die: int, block: int, page: int) -> None:
        super().__init__(f"program failure at die {die} block {block} page {page}")
        self.die = die
        self.block = block
        self.page = page


class DieFailedError(FlashError):
    """A whole die stopped accepting programs and erases.

    Models the die-level failure domain of the paper's 64-die board.  The
    failure is *write-side*: previously programmed pages remain readable
    (so live data can be rebuilt onto surviving dies), but every PROGRAM,
    ERASE and COPYBACK on the die fails.
    """

    def __init__(self, die: int, op: str = "") -> None:
        detail = f" ({op})" if op else ""
        super().__init__(f"die {die} has failed; writes and erases rejected{detail}")
        self.die = die
        self.op = op


class PowerCutError(FlashError):
    """The simulated power was cut at a scheduled device operation.

    Everything volatile — host mapping tables, buffer pool, unflushed WAL
    pages — is lost; only programmed flash pages survive.  Harnesses catch
    this, rebuild state via OOB recovery and replay the WAL.
    """

    def __init__(self, op_number: int) -> None:
        super().__init__(f"power cut injected at device operation {op_number}")
        self.op_number = op_number
