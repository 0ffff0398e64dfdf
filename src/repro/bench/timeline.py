"""ASCII timelines from the event bus's flash commands.

Turns the ``layer="flash"`` events of an :class:`~repro.obs.events.EventBus`
(``device.attach_event_bus()``) into a per-die Gantt chart — the fastest
way to *see* GC interference, placement imbalance, or striping patterns.
Every native command emits one such event, the engine's packed commands
included; its ``ts_us`` is the issue time and its ``start_us``/``end_us``
attributes bound the execution:

::

    die  0 |RRRW...CCCCCCE..R|
    die  1 |.RW..R...RRR.....|

One column is a fixed slice of virtual time; the glyph is the op that
occupied most of it (R read, W program, C copyback, E erase, m metadata,
'.' idle).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import cast

from repro.bench.errors import BenchConfigError
from repro.obs.events import ObsEvent

#: glyph per op, by share of the time slice it occupies
_GLYPHS = {
    "read_page": "R",
    "program_page": "W",
    "copyback": "C",
    "erase_block": "E",
    "read_metadata": "m",
}


def _span(event: ObsEvent) -> tuple[int, float, float]:
    """A flash command's die and execution interval."""
    attrs = event.attrs
    return (
        cast(int, attrs["die"]),
        cast(float, attrs["start_us"]),
        cast(float, attrs["end_us"]),
    )


def _queue_us(event: ObsEvent) -> float:
    """Time a command waited between issue and the start of execution."""
    return max(0.0, _span(event)[1] - event.ts_us)


def render_timeline(
    events: Iterable[ObsEvent],
    start_us: float | None = None,
    end_us: float | None = None,
    width: int = 80,
    dies: list[int] | None = None,
) -> str:
    """Render per-die occupancy of ``[start_us, end_us]`` as ASCII rows.

    Args:
        events: bus events (e.g. ``bus.events``); layers other than
            ``flash`` are ignored.
        start_us / end_us: window; defaults to the events' extent.
        width: characters per row (one per time slice).
        dies: which dies to show; defaults to every die present.
    """
    spans = [(e.kind, *_span(e)) for e in events if e.layer == "flash"]
    if not spans:
        return "(no events)"
    if width < 2:
        raise BenchConfigError("width must be >= 2")
    lo = min(s[2] for s in spans) if start_us is None else start_us
    hi = max(s[3] for s in spans) if end_us is None else end_us
    if hi <= lo:
        raise BenchConfigError("empty time window")
    slice_us = (hi - lo) / width
    die_list = sorted({s[1] for s in spans}) if dies is None else dies

    # per die, per slice: accumulate occupancy per op
    rows: dict[int, list[dict[str, float]]] = {
        d: [dict() for _ in range(width)] for d in die_list
    }
    for op, die, start, end in spans:
        if die not in rows or end <= lo or start >= hi:
            continue
        first = max(0, int((start - lo) / slice_us))
        last = min(width - 1, int((end - lo) / slice_us))
        for column in range(first, last + 1):
            cell_lo = lo + column * slice_us
            cell_hi = cell_lo + slice_us
            overlap = min(end, cell_hi) - max(start, cell_lo)
            if overlap > 0:
                cell = rows[die][column]
                cell[op] = cell.get(op, 0.0) + overlap

    lines = [
        f"timeline {lo:,.0f}us .. {hi:,.0f}us  ({slice_us:,.0f}us per column)"
    ]
    for die in die_list:
        chars = []
        for cell in rows[die]:
            if not cell:
                chars.append(".")
            else:
                op = max(cell, key=cell.get)
                chars.append(_GLYPHS.get(op, "?"))
        lines.append(f"die {die:>3} |{''.join(chars)}|")
    legend = "  ".join(f"{glyph}={op}" for op, glyph in _GLYPHS.items())
    lines.append(f"legend: {legend}  .=idle")
    return "\n".join(lines)


def gc_interference_report(events: Iterable[ObsEvent], top: int = 5) -> str:
    """Summarise where foreground I/O queued behind background work.

    Lists the ``top`` flash commands with the longest queueing delay
    (issue to start of execution) with what occupied the die while they
    waited — the question every GC latency investigation starts with.
    """
    commands = [e for e in events if e.layer == "flash"]
    slow = sorted(commands, key=_queue_us, reverse=True)[:top]
    if not slow:
        return "(no events)"
    lines = ["worst queueing delays:"]
    for event in slow:
        die, start, __ = _span(event)
        issue = event.ts_us
        blockers: dict[str, float] = {}
        for other in commands:
            if other is event:
                continue
            o_die, o_start, o_end = _span(other)
            if o_die != die:
                continue
            overlap = min(o_end, start) - max(o_start, issue)
            if overlap > 0:
                blockers[other.kind] = blockers.get(other.kind, 0.0) + overlap
        blocked_by = (
            ", ".join(f"{op} {us:,.0f}us" for op, us in sorted(blockers.items(), key=lambda kv: -kv[1]))
            or "nothing traced"
        )
        lines.append(
            f"  {event.kind} d{die} waited {_queue_us(event):,.0f}us behind: {blocked_by}"
        )
    return "\n".join(lines)
