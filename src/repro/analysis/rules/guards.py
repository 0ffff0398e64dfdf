"""Guard-pattern rule: optional hooks must be None-guarded before use.

The stack's observability and fault hooks are *optional by contract*:
``FlashDevice.events`` (the :class:`~repro.obs.events.EventBus`) and
``FlashDevice.faults`` (the :class:`~repro.faults.injector.FaultInjector`)
are ``None`` unless explicitly attached, so the hot path pays one pointer
test when they're off.  Any call that assumes they exist crashes every
default-configured run — or worse, quietly forces callers to attach a bus
and perturb timing.

The rule recognizes both shapes used across the codebase::

    if self.events is not None:
        self.events.emit(...)            # direct chain, guarded

    bus = self.device.events             # alias idiom
    if bus is not None:
        bus.emit(...)

and flags unguarded method calls through either.  Monitored receivers:

* ``*.events.emit(...)`` — only ``emit`` (ring-buffer internals like
  ``self.events.append`` inside EventBus are plain deques,
  never optional);
* any method call on ``*.faults`` / ``*.injector`` attribute chains, and
  on locals aliased from them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import (
    dotted_name,
    enclosing_function,
    is_none_guarded,
    local_aliases_of,
)
from repro.analysis.core import Rule, SourceModule, Violation

#: attribute names whose values follow the optional-hook convention
_HOOK_ATTRS = ("events", "faults", "injector")


class OptionalHookGuardRule(Rule):
    id = "guards.optional-hook"
    summary = (
        "method calls on optional hooks (*.events / *.faults / *.injector, "
        "and bus/injector aliases) must sit under an `is not None` guard"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        alias_cache: dict[ast.AST, dict[str, str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            receiver = node.func.value
            method = node.func.attr
            target = self._monitored_target(module, node, receiver, method, alias_cache)
            if target is None:
                continue
            if not is_none_guarded(node, target, module.parents):
                yield self.violation(
                    module, node,
                    f"unguarded `{target}.{method}(...)`: `{target}` is an "
                    "optional hook (None unless attached); guard with "
                    f"`if {target} is not None:`",
                )

    def _monitored_target(
        self,
        module: SourceModule,
        call: ast.Call,
        receiver: ast.expr,
        method: str,
        alias_cache: dict[ast.AST, dict[str, str]],
    ) -> str | None:
        """Dotted receiver text if this call must be guarded, else None."""
        dotted = dotted_name(receiver)
        if dotted is None:
            return None
        leaf = dotted.rsplit(".", 1)[-1]
        if "." in dotted:
            # Direct attribute chain: self.events.emit, device.faults.on_command.
            if leaf == "events":
                return dotted if method == "emit" else None
            if leaf in ("faults", "injector"):
                return dotted
            return None
        # Bare local name: only follow the alias idiom.
        func = enclosing_function(call, module.parents)
        if func is None:
            return None
        if func not in alias_cache:
            alias_cache[func] = local_aliases_of(func, _HOOK_ATTRS)
        source = alias_cache[func].get(dotted)
        if source is None:
            return None
        source_leaf = source.rsplit(".", 1)[-1]
        if source_leaf == "events":
            return dotted if method == "emit" else None
        return dotted
