"""The whole-program project model: one parse, shared by every rule.

A :class:`ProjectModel` parses every file once and exposes what the
rules need to reason interprocedurally:

* a **symbol table** — every module, class and function, with classes
  resolvable across modules by name;
* an **interprocedural call graph** at attribute-name granularity —
  ``self.foo()`` and ``obj.foo()`` both resolve to every project
  function *named* ``foo``.  Python's dynamism makes precise receiver
  typing impossible without annotations; name-keyed resolution is the
  classic sound-for-our-purposes over-approximation (it may merge
  unrelated same-named methods, never miss a real callee);
* **transitive closures** over that graph — e.g. "every function that
  may arm an IOTLB invalidation", seeded with the queue primitives.

The model is deliberately cheap: building it for all of ``src/repro``
(~150 files) takes well under a second, so ``repro analyze`` always
re-parses rather than caching.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..registry import Finding

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectModel",
    "dotted_name",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains as a string, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str
    qualname: str  # "module:Class.method" or "module:function"
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    klass: Optional["ClassInfo"] = None
    #: attribute-call names in the body: ``self.foo()``/``x.foo()`` -> "foo"
    called_attrs: set[str] = field(default_factory=set)
    #: bare-name calls in the body: ``foo()`` -> "foo"
    called_names: set[str] = field(default_factory=set)

    @property
    def lineno(self) -> int:
        return self.node.lineno

    def all_calls(self) -> set[str]:
        return self.called_attrs | self.called_names


@dataclass
class ClassInfo:
    """One class definition with its direct methods and base names."""

    name: str
    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)  # dotted base names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str  # as given on the command line (findings use this)
    tree: ast.Module
    source: str


class ProjectModel:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: list[ModuleInfo] = []
        self.parse_errors: list[Finding] = []
        self.classes: list[ClassInfo] = []
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.functions: list[FunctionInfo] = []
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Iterable[Path]) -> "ProjectModel":
        project = cls()
        for file in files:
            path = str(file)
            try:
                source = Path(file).read_text(encoding="utf-8")
            except OSError as exc:
                project.parse_errors.append(
                    Finding(path, 1, 0, "REPRO000", f"cannot read: {exc}")
                )
                continue
            project.add_source(source, path)
        return project

    def add_source(self, source: str, path: str) -> None:
        """Parse one module's text into the model (used by tests too)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors.append(
                Finding(
                    path,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    "REPRO000",
                    f"syntax error: {exc.msg}",
                )
            )
            return
        module = ModuleInfo(path=path, tree=tree, source=source)
        self.modules.append(module)
        self._index_module(module)

    def _index_module(self, module: ModuleInfo) -> None:
        # Walk every definition; nested classes/functions are indexed
        # too (their enclosing class is the innermost ClassDef).
        self._index_body(module, module.tree.body, klass=None, prefix="")

    def _index_body(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        klass: Optional[ClassInfo],
        prefix: str,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    name=stmt.name,
                    qualname=f"{module.path}:{prefix}{stmt.name}",
                    module=module,
                    node=stmt,
                    bases=[
                        name
                        for base in stmt.bases
                        if (name := dotted_name(base)) is not None
                    ],
                )
                self.classes.append(info)
                self.classes_by_name.setdefault(stmt.name, []).append(info)
                self._index_body(
                    module, stmt.body, klass=info, prefix=f"{prefix}{stmt.name}."
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    name=stmt.name,
                    qualname=f"{module.path}:{prefix}{stmt.name}",
                    module=module,
                    node=stmt,
                    klass=klass,
                )
                self._collect_calls(stmt, info)
                self.functions.append(info)
                self.functions_by_name.setdefault(stmt.name, []).append(info)
                if klass is not None and stmt.name not in klass.methods:
                    klass.methods[stmt.name] = info
                self._index_body(
                    module, stmt.body, klass=klass,
                    prefix=f"{prefix}{stmt.name}.<locals>.",
                )
            else:
                # Definitions nested under control flow (if/try/with/
                # for/while) still count; recurse into every statement
                # list the node carries.
                for attr in ("body", "orelse", "finalbody"):
                    nested = getattr(stmt, attr, None)
                    if nested:
                        self._index_body(module, nested, klass, prefix)
                for handler in getattr(stmt, "handlers", []) or []:
                    self._index_body(module, handler.body, klass, prefix)

    @staticmethod
    def _collect_calls(node: ast.AST, info: FunctionInfo) -> None:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Attribute):
                info.called_attrs.add(func.attr)
            elif isinstance(func, ast.Name):
                info.called_names.add(func.id)

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def ancestors(self, klass: ClassInfo) -> list[ClassInfo]:
        """Project-resolvable ancestor classes (by base name), in MRO-ish
        order; unresolvable bases (stdlib, ABC) are skipped."""
        seen: set[str] = {klass.qualname}
        order: list[ClassInfo] = []
        frontier = [klass]
        while frontier:
            current = frontier.pop(0)
            for base in current.bases:
                base_name = base.split(".")[-1]
                for candidate in self.classes_by_name.get(base_name, []):
                    if candidate.qualname not in seen:
                        seen.add(candidate.qualname)
                        order.append(candidate)
                        frontier.append(candidate)
        return order

    def is_driver_class(self, klass: ClassInfo) -> bool:
        """Protection-driver heuristic: the class (or any resolvable
        ancestor) declares a base whose name ends with ``Driver``."""
        chain = [klass] + self.ancestors(klass)
        for info in chain:
            if any(base.split(".")[-1].endswith("Driver")
                   for base in info.bases):
                return True
        return False

    # ------------------------------------------------------------------
    # Transitive closures over the call graph
    # ------------------------------------------------------------------
    def transitive_callers_of(self, seeds: set[str]) -> set[str]:
        """Names of functions that (transitively) call any name in
        ``seeds`` — by attribute or bare-name call.

        The closure is name-keyed: if *any* function named ``f`` calls
        into the set, every call site of ``f`` is treated as reaching
        it.  Over-approximate, never unsound for may-analyses.
        """
        reaching: set[str] = set()
        changed = True
        while changed:
            changed = False
            for info in self.functions:
                if info.name in reaching:
                    continue
                calls = info.all_calls()
                if calls & seeds or calls & reaching:
                    reaching.add(info.name)
                    changed = True
        return reaching
