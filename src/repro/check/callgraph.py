"""Module-resolving call graph over a Python source tree.

The flow-rule engine (:mod:`repro.check.flow`) needs to know which
functions can contribute values to a *canonical output* — a cached cell
result, a byte-stable artifact, a metrics snapshot, a cache key.  Call
chains answer that question conservatively: every function reachable
(in the call direction) from a canonical-output producer may compute a
value that ends up canonical, so order/clock hazards inside it are
correctness bugs, not style issues.

The graph is a deliberate **over-approximation**:

* a call through a plain name resolves through the module's own
  top-level functions and its ``from``-imports;
* ``alias.attr(...)`` resolves through ``import`` aliases when the
  target module is part of the analysed tree;
* any other attribute call (``obj.method(...)``) links to *every*
  known function or method of that name anywhere in the tree — we
  never miss an edge at the price of spurious ones;
* a bare *reference* to a known function (callbacks, registrations)
  counts as a call, so functions dispatched indirectly stay reachable.

Roots are (a) the canonical-output producers themselves (matched by
bare name, see :data:`CANONICAL_PRODUCERS`) and (b) every function
registered as an ``ExperimentSpec`` ``cell_function`` or ``reducer`` —
their return values are fingerprinted, cached and folded into
artifacts, so everything they can call is on a canonical path.

Construction is **order-independent**: files are processed in sorted
order and every output collection is sorted, so the graph (and every
finding derived from it) is identical across runs, platforms and input
orderings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

#: Bare names of functions whose output is canonical by contract:
#: content hashes, cache keys, byte-stable artifacts and snapshots.
CANONICAL_PRODUCERS: FrozenSet[str] = frozenset(
    {
        "canonical_json",
        "fingerprint",
        "instance_fingerprint",
        "fingerprint_of",
        "artifact_payload",
        "canonical_artifact_payload",
        "write_artifact",
        "metrics_snapshot",
        "write_metrics_snapshot",
    }
)

#: Annotation names treated as "this attribute is a set" when they
#: annotate a class attribute (``active: FrozenSet[str]``).
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}

#: Synthetic function name for statements at module level.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class FunctionInfo:
    """One function (or method, or module body) of the analysed tree."""

    qualname: str  #: ``module:Class.method`` / ``module:func`` / ``module:<module>``
    module: str
    name: str  #: trailing bare name
    path: str  #: source file, as given to the parser
    lineno: int
    col: int


@dataclass(frozen=True)
class CellRegistration:
    """One ``cell_function=``/``reducer=`` argument of an ``ExperimentSpec`` call."""

    role: str  #: ``"cell_function"`` or ``"reducer"``
    qualname: Optional[str]  #: resolved target, ``None`` if not module-level
    kind: str  #: ``"function"`` | ``"lambda"`` | ``"nested"`` | ``"opaque"``
    path: str
    lineno: int
    col: int


@dataclass
class ModuleInfo:
    """Parsed view of one module: AST plus resolution tables."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: top-level function bare name → qualname
    functions: Dict[str, str] = field(default_factory=dict)
    #: ``import x.y as z`` → ``{"z": "x.y"}``; plain ``import x.y`` → ``{"x": "x"}``
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: ``from m import f as g`` → ``{"g": ("m", "f")}``
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level names bound to mutable literals / mutable constructors
    global_mutables: Set[str] = field(default_factory=set)
    #: class-attribute names annotated with a set type in this module
    set_attrs: Set[str] = field(default_factory=set)
    #: every function scope in the module (including ``<module>``)
    function_infos: List[FunctionInfo] = field(default_factory=list)
    #: qualname → AST node (functions only; ``<module>`` maps to the tree)
    nodes: Dict[str, ast.AST] = field(default_factory=dict)

    def resolve_import_root(self, name: str) -> Optional[str]:
        """Dotted module a top-level alias refers to, if imported."""
        return self.import_aliases.get(name)


def module_name_for(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` relative to ``src_root``."""
    rel = path.resolve().relative_to(src_root.resolve())
    parts = list(rel.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _resolve_relative(module: str, node: ast.ImportFrom, is_package: bool) -> str:
    """Absolute module a ``from . import`` / ``from ..m import`` names."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # a package's __init__ counts as one level deeper than its name
    keep = len(parts) - node.level + (1 if is_package else 0)
    base = parts[:max(keep, 0)]
    if node.module:
        base.append(node.module)
    return ".".join(base)


class _ModuleVisitor(ast.NodeVisitor):
    """Collects functions, imports, globals and annotations of one module."""

    def __init__(self, info: ModuleInfo, is_package: bool) -> None:
        self.info = info
        self.is_package = is_package
        self._stack: List[str] = []  # qualname parts inside the module

    # -- imports ---------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.info.import_aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.info.import_aliases[root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = _resolve_relative(self.info.name, node, self.is_package)
        for alias in node.names:
            local = alias.asname or alias.name
            self.info.from_imports[local] = (target, alias.name)

    # -- functions and classes ------------------------------------------
    def _qualify(self, name: str) -> str:
        inner = ".".join([*self._stack, name])
        return f"{self.info.name}:{inner}"

    def _visit_function(self, node) -> None:
        qualname = self._qualify(node.name)
        info = FunctionInfo(
            qualname=qualname,
            module=self.info.name,
            name=node.name,
            path=self.info.path,
            lineno=node.lineno,
            col=node.col_offset + 1,
        )
        self.info.function_infos.append(info)
        self.info.nodes[qualname] = node
        if not self._stack:
            self.info.functions[node.name] = qualname
        self._stack.append(node.name)
        # nested scopes get ``outer.<locals>.inner``-free simple dotted
        # names; uniqueness is not required for resolution, only display
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and _is_set_annotation(stmt.annotation)
            ):
                self.info.set_attrs.add(stmt.target.id)
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    # -- module-level mutable globals -----------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._stack and _is_mutable_binding(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.info.global_mutables.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            not self._stack
            and node.value is not None
            and _is_mutable_binding(node.value)
            and isinstance(node.target, ast.Name)
        ):
            self.info.global_mutables.add(node.target.id)
        self.generic_visit(node)


def _is_set_annotation(annotation: ast.expr) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.split("[", 1)[0].split(".")[-1]
        return text in _SET_ANNOTATIONS
    return False


_MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}


def _is_mutable_binding(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in _MUTABLE_CONSTRUCTORS
    return False


def parse_module_source(
    name: str, path: str, source: str, is_package: bool = False
) -> ModuleInfo:
    """Parse one module from in-memory source into a :class:`ModuleInfo`."""
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(name=name, path=path, source=source, tree=tree)
    module_scope = f"{name}:{MODULE_SCOPE}"
    info.function_infos.append(
        FunctionInfo(
            qualname=module_scope,
            module=name,
            name=MODULE_SCOPE,
            path=path,
            lineno=1,
            col=1,
        )
    )
    info.nodes[module_scope] = tree
    _ModuleVisitor(info, is_package=is_package).visit(tree)
    return info


def parse_modules(files: Sequence[Path], src_root: Path) -> Dict[str, ModuleInfo]:
    """Parse every file into a :class:`ModuleInfo`, keyed by module name.

    Files are processed in sorted order so every derived structure is
    independent of the caller's ordering.
    """
    modules: Dict[str, ModuleInfo] = {}
    for path in sorted(files, key=lambda p: p.resolve().as_posix()):
        source = path.read_text(encoding="utf-8")
        name = module_name_for(path, src_root)
        info = parse_module_source(
            name, str(path), source, is_package=path.name == "__init__.py"
        )
        modules[name] = info
    return modules


@dataclass
class CallGraph:
    """The resolved call graph plus the registration/root metadata."""

    functions: Dict[str, FunctionInfo]
    edges: Dict[str, Tuple[str, ...]]
    registrations: Tuple[CellRegistration, ...]
    set_attrs: FrozenSet[str]

    # -- queries ---------------------------------------------------------
    def cell_functions(self) -> Tuple[str, ...]:
        """Qualnames registered as cell functions or reducers, sorted."""
        return tuple(
            sorted({r.qualname for r in self.registrations if r.qualname is not None})
        )

    def roots(self) -> Tuple[str, ...]:
        """Canonical-output roots: producers + registered cells/reducers."""
        named = {
            q
            for q, info in self.functions.items()
            if info.name in CANONICAL_PRODUCERS
        }
        named.update(self.cell_functions())
        return tuple(sorted(named))

    def reachable(self, roots: Optional[Sequence[str]] = None) -> FrozenSet[str]:
        """Every function reachable from ``roots`` (default: canonical roots)."""
        frontier = list(self.roots() if roots is None else roots)
        seen: Set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return frozenset(seen)


class _CallCollector(ast.NodeVisitor):
    """Collects call/reference edges and spec registrations of one scope."""

    def __init__(
        self,
        graph_builder: "_GraphBuilder",
        module: ModuleInfo,
        caller: str,
    ) -> None:
        self.b = graph_builder
        self.module = module
        self.caller = caller
        self.edges: Set[str] = set()
        self.registrations: List[CellRegistration] = []
        self._local_defs: Set[str] = set()

    # nested scopes are collected separately; record their names so a
    # registration of a nested function is recognised as such, then skip
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._local_defs.add(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._local_defs.add(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        trailing = (
            func.attr
            if isinstance(func, ast.Attribute)
            else getattr(func, "id", None)
        )
        if trailing == "ExperimentSpec":
            self._record_registration(node)
        if isinstance(func, ast.Name):
            self.edges.update(self.b.resolve_name(self.module, func.id))
        elif isinstance(func, ast.Attribute):
            self.edges.update(self._resolve_attribute(func))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # a bare reference to a known function is a potential call site
        # (callbacks, registrations, partial application)
        if isinstance(node.ctx, ast.Load):
            self.edges.update(self.b.resolve_name(self.module, node.id))

    def _resolve_attribute(self, func: ast.Attribute) -> Set[str]:
        value = func.value
        if isinstance(value, ast.Name):
            target = self.module.resolve_import_root(value.id)
            if target is not None:
                resolved = self.b.resolve_module_attr(target, func.attr)
                if resolved:
                    return resolved
        # method-style call: conservatively link every same-named function
        return self.b.by_bare_name.get(func.attr, set())

    def _record_registration(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg not in ("cell_function", "reducer"):
                continue
            value = keyword.value
            qualname: Optional[str] = None
            if isinstance(value, ast.Lambda):
                kind = "lambda"
            elif isinstance(value, ast.Name):
                if value.id in self._local_defs:
                    kind = "nested"
                else:
                    resolved = sorted(self.b.resolve_name(self.module, value.id))
                    if resolved:
                        kind = "function"
                        qualname = resolved[0]
                    else:
                        kind = "opaque"
            else:
                kind = "opaque"
            self.registrations.append(
                CellRegistration(
                    role=keyword.arg,
                    qualname=qualname,
                    kind=kind,
                    path=self.module.path,
                    lineno=value.lineno,
                    col=value.col_offset + 1,
                )
            )


class _GraphBuilder:
    """Shared resolution tables across all modules."""

    def __init__(self, modules: Mapping[str, ModuleInfo]) -> None:
        self.modules = modules
        self.by_bare_name: Dict[str, Set[str]] = {}
        for module in modules.values():
            for info in module.function_infos:
                if info.name != MODULE_SCOPE:
                    self.by_bare_name.setdefault(info.name, set()).add(info.qualname)

    def resolve_module_attr(self, module_name: str, attr: str) -> Set[str]:
        """``module_name.attr`` → qualnames (follows one re-export hop)."""
        module = self.modules.get(module_name)
        if module is None:
            return set()
        if attr in module.functions:
            return {module.functions[attr]}
        if attr in module.from_imports:
            target, original = module.from_imports[attr]
            hop = self.modules.get(target)
            if hop is not None and original in hop.functions:
                return {hop.functions[original]}
            return self.by_bare_name.get(original, set())
        return set()

    def resolve_name(self, module: ModuleInfo, name: str) -> Set[str]:
        """A bare name in ``module`` → candidate function qualnames."""
        if name in module.functions:
            return {module.functions[name]}
        if name in module.from_imports:
            target, original = module.from_imports[name]
            hop = self.modules.get(target)
            if hop is not None and original in hop.functions:
                return {hop.functions[original]}
            # unresolved re-export (``from . import run_spec``): link
            # every known function of that name rather than miss one
            return self.by_bare_name.get(original, set())
        return set()


def build_callgraph(modules: Mapping[str, ModuleInfo]) -> CallGraph:
    """Extract the call graph from already-parsed modules."""
    builder = _GraphBuilder(modules)
    functions: Dict[str, FunctionInfo] = {}
    edges: Dict[str, Tuple[str, ...]] = {}
    registrations: List[CellRegistration] = []
    set_attrs: Set[str] = set()
    for name in sorted(modules):
        module = modules[name]
        set_attrs.update(module.set_attrs)
        for info in module.function_infos:
            functions[info.qualname] = info
            scope_node = module.nodes[info.qualname]
            collector = _CallCollector(builder, module, info.qualname)
            if isinstance(scope_node, ast.Module):
                for stmt in scope_node.body:
                    if not isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        collector.visit(stmt)
            else:
                for stmt in scope_node.body:
                    collector.visit(stmt)
            resolved = {q for q in collector.edges if q != info.qualname}
            if resolved:
                edges[info.qualname] = tuple(sorted(resolved))
            registrations.extend(collector.registrations)
    # an enclosing scope can always invoke its nested functions: link
    # them so reachability flows into local helpers and closures
    nested: Dict[str, Set[str]] = {}
    for qualname in functions:
        module_part, _, inner = qualname.partition(":")
        if "." in inner:
            parent = f"{module_part}:{inner.rsplit('.', 1)[0]}"
            if parent in functions:
                nested.setdefault(parent, set()).add(qualname)
    for parent, children in nested.items():
        merged = set(edges.get(parent, ())) | children
        edges[parent] = tuple(sorted(merged))
    registrations.sort(key=lambda r: (r.path, r.lineno, r.col, r.role))
    return CallGraph(
        functions=functions,
        edges=edges,
        registrations=tuple(registrations),
        set_attrs=frozenset(set_attrs),
    )
