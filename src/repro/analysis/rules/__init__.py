"""The repo-specific rule catalogue.

``build_rules()`` returns fresh instances of every shipped rule —
fresh because project-wide rules (counter hygiene, the call-graph
rules) accumulate state in ``collect``/``check`` and must not leak
between engine runs.
"""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.counters import CounterDocCoverageRule, CounterIntDriftRule
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.guards import OptionalHookGuardRule
from repro.analysis.rules.hygiene import UnusedImportRule
from repro.analysis.rules.raises import TypedRaiseRule
from repro.analysis.rules.rngflow import RngFlowRule
from repro.analysis.rules.sharding import PartitionClosureRule


def build_rules() -> list[Rule]:
    """Fresh instances of the full shipped catalogue."""
    return [
        WallClockRule(),
        UnseededRandomRule(),
        SetIterationRule(),
        RngFlowRule(),
        OptionalHookGuardRule(),
        CounterIntDriftRule(),
        CounterDocCoverageRule(),
        UnusedImportRule(),
        PartitionClosureRule(),
        TypedRaiseRule(),
    ]


__all__ = [
    "CounterDocCoverageRule",
    "CounterIntDriftRule",
    "OptionalHookGuardRule",
    "PartitionClosureRule",
    "RngFlowRule",
    "SetIterationRule",
    "TypedRaiseRule",
    "UnseededRandomRule",
    "UnusedImportRule",
    "WallClockRule",
    "build_rules",
]
