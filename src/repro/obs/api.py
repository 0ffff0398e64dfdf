"""Observability contracts: the ``Snapshottable`` protocol and key grammar.

Every statistics producer in the system — :class:`~repro.flash.stats.FlashStats`,
:class:`~repro.mapping.stats.ManagementStats`,
:class:`~repro.db.buffer.BufferStats`, :class:`~repro.obs.events.EventBus` —
speaks one API: ``snapshot() -> dict[str, float]``.  Keys are dotted,
lower-level producers use *local* keys (``gc_copybacks``,
``flash.program_page``); the :class:`~repro.obs.registry.MetricRegistry`
prepends the namespace (``mgmt.``, ``region.rgHot.``) when a producer is
registered as a source, yielding the global key space documented in
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import re
from typing import Callable, Protocol, runtime_checkable

#: Pinned root namespaces of the global snapshot key space.  The schema
#: test (`tests/obs/test_schema.py`) asserts every registry key starts
#: with one of these; adding a root is an intentional, reviewed change.
ROOT_NAMESPACES: tuple[str, ...] = (
    "flash",    # native device counters (FlashStats)
    "mgmt",     # management-layer totals (ManagementStats, FTL or summed regions)
    "region",   # per-region breakdowns: region.<name>.<counter>
    "db",       # DBMS-side counters (db.buffer.*)
    "trace",    # event-bus counters
    "workload", # benchmark-driver metrics (TPS, transaction latencies)
    "faults",   # fault injection & recovery accounting (FaultStats)
)

_KEY_RE = re.compile(r"^[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*$")


class MetricKeyError(ValueError):
    """A metric key violates the dotted-name grammar or collides."""


@runtime_checkable
class Snapshottable(Protocol):
    """Anything that can report its current state as flat numeric metrics."""

    def snapshot(self) -> dict[str, float]:
        """Return a flat ``{dotted_key: number}`` view of current state."""
        ...


def check_key(key: str) -> str:
    """Validate one metric key against the grammar; returns it unchanged."""
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise MetricKeyError(
            f"invalid metric key {key!r}: want dot-separated [A-Za-z0-9_]+ segments"
        )
    return key


def prefixed(prefix: str, values: dict[str, float]) -> dict[str, float]:
    """Namespace every key of ``values`` under ``prefix``."""
    check_key(prefix)
    return {f"{prefix}.{check_key(key)}": value for key, value in values.items()}


#: A metrics source: either a ``Snapshottable`` or a zero-arg callable
#: returning the same flat dict shape.
SourceLike = Snapshottable | Callable[[], dict[str, float]]


def read_source(source: SourceLike) -> dict[str, float]:
    """Pull one snapshot out of a source (object or callable)."""
    if callable(source) and not hasattr(source, "snapshot"):
        return source()
    return source.snapshot()
