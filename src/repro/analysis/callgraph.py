"""Project-wide symbol table and call graph for whole-program rules.

The per-module rules of :mod:`repro.analysis.rules` see one file at a
time.  The invariants that PRs 8-9 introduced are *inter-procedural*:
shard partition closure and RNG discipline live in call chains that cross ``bench/``, ``flash/`` and ``faults/``.  This
module builds, once per engine run, the three artifacts those rules
share:

* a **symbol table** — every module, class, method, function and
  module-level binding under a dotted qualname
  (``repro.flash.device.FlashDevice.program_page_packed``);
* a **call graph** — edges from each function to every call it makes
  that can be resolved *statically*: plain calls, ``module.attr`` calls
  through import aliases, ``self.method()`` dispatch (following base
  classes defined in the project), and method calls on receivers whose
  class is known from a parameter annotation, a local ``x = Class(...)``
  construction, or an attribute assignment in ``__init__``;
* **reference edges** — first-class uses of a project function that are
  not calls (``ShardCell(name, run_tpcc_experiment, ...)``), so
  reachability can follow callbacks handed to other code.

Resolution is deliberately conservative: a call whose callee cannot be
proven stays out of the graph (rules treat "unknown" as "no edge", and
each rule documents what that means for its guarantee).  Everything is
pure syntax + declared types — no imports are executed, which keeps the
linter hermetic and safe to run on broken working trees.

The index is built lazily by :class:`~repro.analysis.core.LintEngine`
only when a selected rule sets ``needs_project`` (see
``Rule.set_project``), and is shared by all such rules in the run —
parse once, index once, query many times.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.astutil import dotted_name, enclosing_class, enclosing_function

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.core import SourceModule

#: pseudo-function name representing a module's import-time (top level) code
MODULE_BODY = "<module>"


def module_name_of(source: "SourceModule") -> str:
    """Dotted module name for a parsed source file.

    Paths under a ``repro`` directory (the real package, or the fake
    roots the test fixtures build) name from that root:
    ``.../repro/flash/device.py`` -> ``repro.flash.device``, a package
    ``__init__.py`` names the package itself.  Files with no ``repro``
    ancestor (top-level fixtures) are named by their stem alone.
    """
    parts = source.path.as_posix().split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            parts = parts[index:]
            break
    else:
        parts = [parts[-1]]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__" and len(parts) > 1:
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str                    # repro.mapping.engine.Engine.write
    module: str                      # repro.mapping.engine
    name: str                        # write
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: "SourceModule"
    class_qualname: str | None = None


@dataclass
class ClassInfo:
    """One class definition with what the rules need to dispatch on it."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    source: "SourceModule"
    #: unresolved dotted base names as written (``FlashError``, ``abc.ABC``)
    bases: tuple[str, ...] = ()
    #: method name -> FunctionInfo qualname
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute name -> class qualname (from annotations / __init__ assigns)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: every attribute name bound on the class (typed or not) — class-body
    #: annotations plus any ``self.X = ...`` target in a method
    attrs: set[str] = field(default_factory=set)


@dataclass
class GlobalInfo:
    """One module-level name binding."""

    qualname: str                    # repro.policies.registry._GC_FACTORIES
    module: str
    name: str
    node: ast.AST                    # the bound value expression
    lineno: int
    mutable: bool                    # bound to a mutable container expression


@dataclass(frozen=True)
class CallEdge:
    """One resolved call or function reference."""

    caller: str                      # qualname, or "<module>.<pkg.mod>" pseudo node
    callee: str                      # qualname of the resolved target
    module: str                      # module the call site lives in
    lineno: int
    col: int
    kind: str                        # "call" | "ref"


#: constructors/displays whose result is a mutable container
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict", "collections.deque", "collections.defaultdict",
    "collections.Counter", "collections.OrderedDict", "array", "array.array",
})

#: wrappers that freeze their payload — bindings through these are immutable
_FREEZING_CALLS = frozenset({
    "MappingProxyType", "types.MappingProxyType", "frozenset", "tuple",
})


def is_mutable_binding(value: ast.expr) -> bool:
    """Whether a module-level binding to ``value`` is a mutable container."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted in _FREEZING_CALLS:
            return False
        if dotted in _MUTABLE_CALLS:
            return True
    return False


def annotation_class_name(annotation: ast.expr | None) -> str | None:
    """The plain class name an annotation pins, if any.

    Understands ``T``, ``"T"``, ``T | None``, ``Optional[T]`` and
    ``mod.T``; parameterised generics and unions of two real types
    return ``None`` (no single receiver class).
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [annotation.left, annotation.right]
        named = [s for s in sides if not (isinstance(s, ast.Constant) and s.value is None)]
        if len(named) == 1:
            return annotation_class_name(named[0])
        return None
    if isinstance(annotation, ast.Subscript):
        head = dotted_name(annotation.value)
        if head in ("Optional", "typing.Optional"):
            return annotation_class_name(annotation.slice)
        return None
    return dotted_name(annotation)


def local_bound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound in ``func``'s scope (params, assigns, loops, imports).

    Names declared ``global`` are excluded — loads/stores of those hit
    the module scope.  Nested functions' internals are included, which
    over-approximates locality; for the rules here that only makes the
    analysis *more* conservative (a shadowed global is never reported).
    """
    bound: set[str] = set()
    declared_global: set[str] = set()
    args = func.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        bound.add(a.arg)
    for star in (args.vararg, args.kwarg):
        if star is not None:
            bound.add(star.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    # Store context only: the base of `d[k] = v` is a *load*
                    # of `d`, which binds nothing
                    if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                        bound.add(leaf.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
        elif isinstance(node, (ast.withitem,)) and node.optional_vars is not None:
            for leaf in ast.walk(node.optional_vars):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                for leaf in ast.walk(comp.target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                bound.add(node.name)
    return bound - declared_global


class ModuleIndex:
    """Symbols and import bindings of one module."""

    def __init__(self, name: str, source: "SourceModule") -> None:
        self.name = name
        self.source = source
        #: imported name -> dotted target it stands for
        self.imports: dict[str, str] = {}
        #: top-level def name -> qualname
        self.functions: dict[str, str] = {}
        #: top-level class name -> qualname
        self.classes: dict[str, str] = {}
        #: module-level binding name -> GlobalInfo
        self.globals: dict[str, GlobalInfo] = {}

    def resolve(self, dotted: str) -> str | None:
        """Project-qualified name ``dotted`` stands for in this module.

        ``FlashDevice`` resolves through a from-import to
        ``repro.flash.device.FlashDevice``; ``device_mod.FlashDevice``
        through ``import repro.flash.device as device_mod``.  Names with
        no binding resolve to ``None`` (builtins, true unknowns).
        """
        head, _, rest = dotted.partition(".")
        if head in self.functions:
            target = self.functions[head]
        elif head in self.classes:
            target = self.classes[head]
        elif head in self.imports:
            target = self.imports[head]
        elif head in self.globals:
            target = self.globals[head].qualname
        else:
            return None
        return f"{target}.{rest}" if rest else target


class ProjectIndex:
    """Whole-program symbol table + call graph over one set of modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleIndex] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.globals: dict[str, GlobalInfo] = {}
        self.edges: list[CallEdge] = []
        self._edges_from: dict[str, list[CallEdge]] = {}
        self._edges_to: dict[str, list[CallEdge]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sources: Iterable["SourceModule"]) -> "ProjectIndex":
        index = cls()
        ordered = list(sources)
        for source in ordered:
            index._index_module(source)
        for source in ordered:
            index._build_edges(source)
        for edge in index.edges:
            index._edges_from.setdefault(edge.caller, []).append(edge)
            index._edges_to.setdefault(edge.callee, []).append(edge)
        return index

    def _index_module(self, source: "SourceModule") -> None:
        name = module_name_of(source)
        mod = ModuleIndex(name, source)
        # first writer wins on duplicate module names (mirrors sys.modules);
        # engine runs over one tree never collide in practice
        self.modules.setdefault(name, mod)
        if self.modules[name] is not mod:
            return
        for node in source.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        mod.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: not used in this tree
                for alias in node.names:
                    mod.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{name}.{node.name}"
                mod.functions[node.name] = qual
                self.functions[qual] = FunctionInfo(
                    qualname=qual, module=name, name=node.name, node=node, source=source
                )
            elif isinstance(node, ast.ClassDef):
                self._index_class(mod, node, source)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                for target in targets:
                    if isinstance(target, ast.Name) and value is not None:
                        info = GlobalInfo(
                            qualname=f"{name}.{target.id}",
                            module=name,
                            name=target.id,
                            node=value,
                            lineno=target.lineno,
                            mutable=is_mutable_binding(value),
                        )
                        mod.globals[target.id] = info
                        self.globals[info.qualname] = info

    def _index_class(self, mod: ModuleIndex, node: ast.ClassDef, source: "SourceModule") -> None:
        qual = f"{mod.name}.{node.name}"
        mod.classes[node.name] = qual
        info = ClassInfo(
            qualname=qual,
            module=mod.name,
            name=node.name,
            node=node,
            source=source,
            bases=tuple(b for b in (dotted_name(base) for base in node.bases) if b),
        )
        self.classes[qual] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qual = f"{qual}.{item.name}"
                info.methods[item.name] = method_qual
                self.functions[method_qual] = FunctionInfo(
                    qualname=method_qual,
                    module=mod.name,
                    name=item.name,
                    node=item,
                    source=source,
                    class_qualname=qual,
                )
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                info.attrs.add(item.target.id)
                attr_class = annotation_class_name(item.annotation)
                if attr_class is not None:
                    resolved = mod.resolve(attr_class) or f"{mod.name}.{attr_class}"
                    info.attr_types.setdefault(item.target.id, resolved)
        # attribute types assigned in methods: `self.x = Class(...)`,
        # `self.x: Class = ...`, `self.x = <annotated param>`
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_types = self._param_types(mod, item)
            for stmt in ast.walk(item):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annot: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value, annot = stmt.target, stmt.value, stmt.annotation
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                info.attrs.add(target.attr)
                attr_class = annotation_class_name(annot)
                if attr_class is None and isinstance(value, ast.Call):
                    dotted = dotted_name(value.func)
                    if dotted is not None:
                        resolved = mod.resolve(dotted)
                        if resolved in self.classes or (
                            resolved is None and dotted in mod.classes
                        ):
                            attr_class = dotted
                if attr_class is None and isinstance(value, ast.Name):
                    attr_class = param_types.get(value.id)
                if attr_class is not None:
                    resolved = mod.resolve(attr_class) or attr_class
                    info.attr_types.setdefault(target.attr, resolved)

    @staticmethod
    def _param_types(mod: ModuleIndex, func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
        """Parameter name -> annotated plain class name (unresolved)."""
        types: dict[str, str] = {}
        args = func.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            named = annotation_class_name(a.annotation)
            if named is not None:
                types[a.arg] = named
        return types

    # ------------------------------------------------------------------
    # Edge construction
    # ------------------------------------------------------------------
    def _build_edges(self, source: "SourceModule") -> None:
        mod = self.modules[module_name_of(source)]
        if mod.source is not source:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                callee = self.resolve_call(mod, node, source)
                if callee is not None:
                    self.edges.append(self._edge(mod, source, node, callee, "call"))
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                parent = source.parents.get(node)
                if isinstance(parent, ast.Call) and parent.func is node:
                    continue  # the call edge above covers it
                if isinstance(parent, ast.Attribute):
                    continue  # only the full chain resolves
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                resolved = mod.resolve(dotted)
                if resolved in self.functions:
                    self.edges.append(self._edge(mod, source, node, resolved, "ref"))

    def _edge(
        self, mod: ModuleIndex, source: "SourceModule", node: ast.AST, callee: str, kind: str
    ) -> CallEdge:
        func = enclosing_function(node, source.parents)
        if func is None:
            caller = f"{MODULE_BODY}.{mod.name}"
        else:
            cls = enclosing_class(func, source.parents)
            caller = (
                f"{mod.name}.{cls.name}.{func.name}" if cls is not None
                else f"{mod.name}.{func.name}"
            )
        return CallEdge(
            caller=caller,
            callee=callee,
            module=mod.name,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            kind=kind,
        )

    def resolve_call(self, mod: ModuleIndex, call: ast.Call, source: "SourceModule") -> str | None:
        """Qualname the call dispatches to, or ``None`` if unprovable."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        func = enclosing_function(call, source.parents)
        head, _, rest = dotted.partition(".")
        # `self.method(...)` inside a class: dispatch through the MRO
        if head == "self" and func is not None:
            cls = enclosing_class(func, source.parents)
            if cls is not None and rest and "." not in rest:
                return self._resolve_method(f"{mod.name}.{cls.name}", rest)
            if cls is not None and rest:
                # self.attr.method(...): attr type from the class index
                attr, _, method = rest.partition(".")
                if method and "." not in method:
                    info = self.classes.get(f"{mod.name}.{cls.name}")
                    if info is not None and attr in info.attr_types:
                        return self._resolve_method(info.attr_types[attr], method)
            return None
        # local receiver with an inferred class: `device.program_page_packed(...)`
        if func is not None and rest and "." not in rest:
            receiver_type = self._infer_local_type(mod, func, source, head)
            if receiver_type is not None:
                return self._resolve_method(receiver_type, rest)
        # plain name or import-qualified chain
        resolved = mod.resolve(dotted)
        if resolved is None:
            return None
        if resolved in self.functions:
            return resolved
        if resolved in self.classes:
            init = self._resolve_method(resolved, "__init__")
            return init if init is not None else resolved
        return None

    def _resolve_method(self, class_qualname: str, method: str) -> str | None:
        """Find ``method`` on the class or a project-resolvable base."""
        seen: set[str] = set()
        todo = deque([class_qualname])
        while todo:
            qual = todo.popleft()
            if qual in seen:
                continue
            seen.add(qual)
            info = self.classes.get(qual)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            mod = self.modules.get(info.module)
            for base in info.bases:
                resolved = mod.resolve(base) if mod is not None else None
                todo.append(resolved if resolved is not None else f"{info.module}.{base}")
        return None

    def _infer_local_type(
        self,
        mod: ModuleIndex,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        source: "SourceModule",
        name: str,
    ) -> str | None:
        """Class qualname of local ``name``: annotation or construction.

        Sources, in priority order: parameter annotation, ``x: T``
        annotation, ``x = T(...)`` construction, ``x = self.attr`` where
        the attribute's type is indexed.  Conflicting assignments make
        the type unknown.
        """
        candidates: set[str] = set()
        named = self._param_types(mod, func).get(name)
        if named is not None:
            candidates.add(mod.resolve(named) or named)
        cls = enclosing_class(func, source.parents)
        cls_info = self.classes.get(f"{mod.name}.{cls.name}") if cls is not None else None
        for node in ast.walk(func):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annot: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annot = node.target, node.value, node.annotation
            else:
                continue
            if not isinstance(target, ast.Name) or target.id != name:
                continue
            from_annot = annotation_class_name(annot)
            if from_annot is not None:
                candidates.add(mod.resolve(from_annot) or from_annot)
                continue
            if isinstance(value, ast.Call):
                dotted = dotted_name(value.func)
                resolved = mod.resolve(dotted) if dotted is not None else None
                if resolved in self.classes:
                    candidates.add(resolved)
                else:
                    return None  # rebound to an unknown call result
            elif isinstance(value, ast.Attribute) and cls_info is not None:
                chain = dotted_name(value)
                if chain is not None and chain.startswith("self."):
                    attr = chain.split(".", 2)[1]
                    if chain.count(".") == 1 and attr in cls_info.attr_types:
                        candidates.add(cls_info.attr_types[attr])
                    else:
                        return None
                else:
                    return None
            else:
                return None  # rebound to something unknowable
        if len(candidates) == 1:
            return next(iter(candidates))
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def calls_from(self, qualname: str) -> list[CallEdge]:
        return self._edges_from.get(qualname, [])

    def calls_to(self, qualname: str) -> list[CallEdge]:
        return self._edges_to.get(qualname, [])

    def reachable_from(self, entries: Iterable[str]) -> set[str]:
        """Function qualnames reachable via call *and* reference edges."""
        seen: set[str] = set()
        todo = deque(entries)
        while todo:
            qual = todo.popleft()
            if qual in seen or qual not in self.functions:
                continue
            seen.add(qual)
            for edge in self.calls_from(qual):
                todo.append(edge.callee)
        return seen

    def functions_in(self, source: "SourceModule") -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.source is source:
                yield info

    def module_of(self, source: "SourceModule") -> ModuleIndex:
        return self.modules[module_name_of(source)]
