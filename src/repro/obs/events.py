"""Cross-layer structured event bus.

One stream covering the whole stack: a host I/O (``layer="host"``, with
region/object attribution), the mapping decisions it triggers
(``layer="mapping"``: GC victim selection, wear levelling,
translation-page traffic) and the native commands that execute it
(``layer="flash"``: per-die reads/programs/erases/copybacks, each with
its ``start_us``/``end_us`` execution interval).

One bus is shared per device (``FlashDevice.events``); every producer
emits only when a bus is attached, so the hot path pays a single ``is not
None`` test when observability is off.

Events are kept in a bounded ring buffer (oldest dropped first, drops
counted) and can be streamed to JSON-lines for offline analysis.
"""

from __future__ import annotations

import json
from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, IO, Iterable

#: The pinned layer vocabulary; ``emit`` rejects anything else so event
#: consumers can rely on it.
LAYERS: tuple[str, ...] = ("host", "mapping", "flash", "faults")


@dataclass(frozen=True)
class ObsEvent:
    """One structured observability event.

    Attributes:
        ts_us: virtual timestamp of the event (caller's clock).
        layer: one of :data:`LAYERS`.
        kind: event type within the layer (``"write"``, ``"gc_collect"``,
            ``"program_page"``, ...).
        attrs: attribution — ``die``, ``block``, ``page``, ``region``,
            ``obj`` (database object / group id), ``lba``, counts, ...
    """

    ts_us: float
    layer: str
    kind: str
    attrs: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One compact JSON object (stable key order) for JSONL export."""
        payload = {"ts_us": self.ts_us, "layer": self.layer, "kind": self.kind}
        payload.update(sorted(self.attrs.items()))
        return json.dumps(payload, sort_keys=False, separators=(",", ":"))


class EventBus:
    """Bounded ring buffer of :class:`ObsEvent` plus live subscribers."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("event bus capacity must be positive")
        self.capacity = capacity
        self.events: deque[ObsEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._subscribers: list[Callable[[ObsEvent], None]] = []

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def emit(self, ts_us: float, layer: str, kind: str, **attrs: object) -> None:
        """Append one event; oldest events are evicted at capacity."""
        if layer not in LAYERS:
            raise ValueError(f"unknown event layer {layer!r}; want one of {LAYERS}")
        event = ObsEvent(ts_us=ts_us, layer=layer, kind=kind, attrs=attrs)
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)

    def subscribe(self, callback: Callable[[ObsEvent], None]) -> Callable[[], None]:
        """Register a live consumer; returns an unsubscribe callable."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def between(self, start_us: float, end_us: float) -> list[ObsEvent]:
        """Events with ``start_us <= ts_us <= end_us``."""
        return [e for e in self.events if start_us <= e.ts_us <= end_us]

    def by_layer(self, layer: str) -> list[ObsEvent]:
        """Events of one layer, in arrival order."""
        return [e for e in self.events if e.layer == layer]

    def matching(self, layer: str | None = None, kind: str | None = None,
                 **attrs: object) -> list[ObsEvent]:
        """Events filtered by layer, kind and exact attr values."""
        out = []
        for e in self.events:
            if layer is not None and e.layer != layer:
                continue
            if kind is not None and e.kind != kind:
                continue
            if any(e.attrs.get(k) != v for k, v in attrs.items()):
                continue
            out.append(e)
        return out

    def snapshot(self) -> dict[str, float]:
        """Flat counters over the buffered window (``Snapshottable``)."""
        tally = _TallyCounter(f"{e.layer}.{e.kind}" for e in self.events)
        out: dict[str, float] = {
            "events": float(len(self.events)),
            "dropped": float(self.dropped),
        }
        for key, count in sorted(tally.items()):
            out[key] = float(count)
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self, out: IO[str]) -> int:
        """Write every buffered event as one JSON object per line."""
        return write_jsonl(self.events, out)


def write_jsonl(events: Iterable[ObsEvent], out: IO[str]) -> int:
    """Stream ``events`` to ``out`` as JSON-lines; returns lines written."""
    count = 0
    for event in events:
        out.write(event.to_json())
        out.write("\n")
        count += 1
    return count
