"""Static analysis for the simulation stack: the ``repro lint`` engine.

The reproduction's headline numbers rest on two contracts that the test
suite enforces only *dynamically*: bit-identical seeded simulation
(golden snapshots, the TPC-C determinism test) and closed counter
accounting (``faults.injected.total == recovered.total + retired.total``,
the pinned ``repro.obs/v1`` namespace).  This package checks the code
*shapes* behind those contracts statically, so a stray ``time.time()``
or an unguarded ``self.events.emit(...)`` is caught at lint time rather
than as a silently-perturbed benchmark.

Pieces:

* :mod:`repro.analysis.core` — the engine: parsed-module model, rule
  registry, two-phase (collect → check) execution, pragma suppression.
* :mod:`repro.analysis.callgraph` — project-wide symbol table, call
  graph and reachability for whole-program rules (``needs_project``).
* :mod:`repro.analysis.dataflow` — forward taint propagation over the
  call graph (the RNG-flow rule's engine).
* :mod:`repro.analysis.pragmas` — ``# lint: ok(<rule-id>) -- why`` parsing.
* :mod:`repro.analysis.rules` — the repo-specific rule catalogue
  (determinism incl. RNG flow, guard-pattern, counter-hygiene,
  partition closure, typed errors, hygiene).
* :mod:`repro.analysis.reporting` — human, JSON (``repro.lint/v1``) and
  SARIF 2.1.0 reporters.
* :mod:`repro.analysis.baseline` — checked-in suppression files
  (``repro.lint-baseline/v1``) for landing strict rules incrementally.
* :mod:`repro.analysis.changed` — git-diff discovery behind
  ``repro lint --changed`` (full analysis, filtered report).

Run it as ``repro lint [paths ...]`` (see :mod:`repro.cli`) or
programmatically::

    from repro.analysis import lint_paths
    result = lint_paths(["src/repro"])
    for v in result.violations:
        print(v.format())
"""

from __future__ import annotations

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.changed import ChangedFilesError, changed_python_files
from repro.analysis.core import (
    LintEngine,
    LintResult,
    Rule,
    RuleRegistry,
    SourceModule,
    Violation,
    default_registry,
    lint_paths,
)
from repro.analysis.dataflow import TaintAnalysis
from repro.analysis.pragmas import Pragma, parse_pragmas
from repro.analysis.reporting import render_human, render_json, render_sarif

__all__ = [
    "BaselineError",
    "ChangedFilesError",
    "LintEngine",
    "LintResult",
    "Pragma",
    "ProjectIndex",
    "Rule",
    "RuleRegistry",
    "SourceModule",
    "TaintAnalysis",
    "Violation",
    "apply_baseline",
    "changed_python_files",
    "default_registry",
    "lint_paths",
    "load_baseline",
    "parse_pragmas",
    "render_baseline",
    "render_human",
    "render_json",
    "render_sarif",
]
