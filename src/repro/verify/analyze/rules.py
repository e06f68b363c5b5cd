"""The analyzer's rule set, built on the project model + CFG/dataflow.

Eight rules ship with the analyzer:

* :class:`WallClockRule` (REPRO001), :class:`SetIterationRule`
  (REPRO002) and :class:`TimestampEqualityRule` (REPRO003) — the
  per-module determinism rules: no wall-clock or module-level RNG, no
  iteration over a bare set, no float ``==``/``!=`` on simulated
  timestamps;
* :class:`PathSensitiveUnmapRule` (REPRO004) — every unmap must be
  followed by an invalidation on *all* paths before return or buffer
  reuse, and a ``while`` retry loop must re-arm per iteration;
* :class:`UseAfterUnmapRule` (REPRO101) — IOVA-lifetime taint: an
  expression passed to ``unmap_*`` must not later reach a DMA sink;
* :class:`SimRaceRule` (REPRO102) — two scheduled callbacks assigning
  the same attribute with no happens-before edge;
* :class:`HookGuardRule` (REPRO103) — hook objects (obs/monitor/faults)
  used outside their ``is not None`` guard;
* :class:`ResetRearmRule` (REPRO105) — a driver reset/recovery method
  must re-arm the invalidation queue on every path before it resumes
  mapping DMA buffers.

Every rule reports plain :class:`~repro.verify.registry.Finding`
objects; ``# noqa`` filtering happens in the engine, not here.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..registry import Finding
from .cfg import CFG, CFGEdge, CFGNode, build_cfg, relevant_exprs
from .dataflow import ForwardAnalysis, solve
from .project import ClassInfo, FunctionInfo, ProjectModel, dotted_name

__all__ = [
    "AnalyzerRule",
    "WallClockRule",
    "SetIterationRule",
    "TimestampEqualityRule",
    "PathSensitiveUnmapRule",
    "UseAfterUnmapRule",
    "SimRaceRule",
    "HookGuardRule",
    "ResetRearmRule",
    "default_rules",
]

# Method names on either side of the unmap/invalidate pact.
_UNMAP_CALLS = {"unmap_range", "unmap_page"}
_INVALIDATE_CALLS = {
    "invalidate_range",
    "flush_all",
    "flush",
    # The drivers' hardened helper (repro.faults): it arms an
    # invalidation and confirms its completion.
    "_invalidate_robust",
}

# Buffer-reuse sinks: remapping or handing out IOVA space while an
# unmap is still pending invalidation.
_REUSE_CALLS = {"map_page", "map_huge", "alloc_chunk", "alloc_page_with_chunk"}

# DMA sinks for the taint rule: translating or moving data through an
# IOVA is exactly what must never happen after its unmap.  A driver's
# ``translate_for_dma`` and the IOMMU's ``translate_page`` translate a
# page's TLPs.
_DMA_SINKS = {
    "translate",
    "translate_page",
    "translate_for_dma",
    "dma_read",
    "dma_write",
}

_SCHED_CALLS = {"call_at", "call_after", "schedule_at", "schedule_after"}

# Run-context members (repro.context) that hand out a hook object or
# None: read off ``current_context()`` directly or through a local
# bound to it -- ``current_context().registry``, ``context.monitor``,
# ``context.injector("nic")``.
_HOOK_SOURCES = {"registry", "monitor", "faults", "injector"}


class AnalyzerRule:
    """One whole-program rule; ``check`` sees the full project model."""

    code: str = ""

    def check(self, project: ProjectModel) -> list[Finding]:
        raise NotImplementedError


def default_rules() -> list[AnalyzerRule]:
    return [
        WallClockRule(),
        SetIterationRule(),
        TimestampEqualityRule(),
        PathSensitiveUnmapRule(),
        UseAfterUnmapRule(),
        SimRaceRule(),
        HookGuardRule(),
        ResetRearmRule(),
    ]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------
def _calls_in(exprs: list[ast.AST]) -> list[ast.Call]:
    calls: list[ast.Call] = []
    for expr in exprs:
        for child in ast.walk(expr):
            if isinstance(child, ast.Call):
                calls.append(child)
    return calls


def _call_attr(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


# ---------------------------------------------------------------------------
# REPRO001-003: per-module determinism rules
# ---------------------------------------------------------------------------
# ``module attr`` pairs that read the host's clock.  The class
# ``random.Random`` is deliberately absent from the RNG list below:
# repro.sim.rng wraps it with a stable seed, which is the sanctioned
# way in.
_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
_RANDOM_MODULE_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "getrandbits",
    "expovariate",
    "gauss",
    "normalvariate",
    "betavariate",
    "triangular",
    "vonmisesvariate",
}

# Constructs whose iteration order is hash-seed dependent.
_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}

# Identifier fragments that mark a simulated-clock value.
_TIMESTAMP_HINTS = ("time", "timestamp", "deadline", "now_ns", "clock")


class WallClockRule(AnalyzerRule):
    """REPRO001: wall-clock reads and module-level RNG calls."""

    code = "REPRO001"

    def check(self, project: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            for call in ast.walk(module.tree):
                if not isinstance(call, ast.Call):
                    continue
                dotted = dotted_name(call.func)
                if dotted is None or "." not in dotted:
                    continue
                mod, attr = dotted.split(".")[-2:]
                if (mod, attr) in _WALLCLOCK_CALLS:
                    message = (
                        f"wall-clock call {dotted}() breaks determinism; "
                        "use simulated time"
                    )
                elif mod == "random" and attr in _RANDOM_MODULE_FUNCS:
                    message = (
                        f"module-level RNG {dotted}() breaks determinism; "
                        "use repro.sim.SeededRng"
                    )
                else:
                    continue
                findings.append(
                    Finding(
                        module.path, call.lineno, call.col_offset,
                        self.code, message,
                    )
                )
        return findings


def _iterated(node: ast.AST) -> list[ast.expr]:
    """The iterables a ``for`` loop or comprehension walks."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    ):
        return [comp.iter for comp in node.generators]
    return []


def _is_unordered_iterable(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


class SetIterationRule(AnalyzerRule):
    """REPRO002: iteration over a bare set (hash-seed order).

    ``sorted(set(...))`` pins the order, so only a *bare* unordered
    iterable is flagged.
    """

    code = "REPRO002"

    def check(self, project: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                for iterable in _iterated(node):
                    if _is_unordered_iterable(iterable):
                        findings.append(
                            Finding(
                                module.path,
                                iterable.lineno,
                                iterable.col_offset,
                                self.code,
                                "iteration over a set has "
                                "PYTHONHASHSEED-dependent order; wrap in "
                                "sorted() or iterate a list",
                            )
                        )
        return findings


def _looks_like_timestamp(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    lowered = name.lower()
    return any(hint in lowered for hint in _TIMESTAMP_HINTS)


class TimestampEqualityRule(AnalyzerRule):
    """REPRO003: float ``==``/``!=`` on a simulated timestamp, unless
    the other side is a literal constant."""

    code = "REPRO003"

    def check(self, project: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    if any(
                        _looks_like_timestamp(side)
                        and not isinstance(other, ast.Constant)
                        for side, other in ((left, right), (right, left))
                    ):
                        findings.append(
                            Finding(
                                module.path,
                                node.lineno,
                                node.col_offset,
                                self.code,
                                "float equality on a simulated timestamp "
                                "is brittle; compare with a tolerance or "
                                "use integer ticks",
                            )
                        )
        return findings


# ---------------------------------------------------------------------------
# REPRO004: path-sensitive unmap-without-invalidate
# ---------------------------------------------------------------------------
# A pending-unmap fact: (line, col, called attr, looped-through-while).
_UnmapFact = tuple[int, int, str, bool]


class _PendingUnmapAnalysis(ForwardAnalysis):
    meet = "may"

    def __init__(
        self,
        cfg: CFG,
        invalidating: set[str],
        pending_helpers: set[str],
    ) -> None:
        self.cfg = cfg
        self.invalidating = invalidating
        self.pending_helpers = pending_helpers
        # While-loop anchors, for back-edge retagging.
        self._while_heads = {
            nid
            for nid, node in cfg.nodes.items()
            if node.kind == "loop" and isinstance(node.stmt, ast.While)
        }

    def gens_kills(self, node: CFGNode) -> tuple[list[_UnmapFact], bool]:
        gens: list[_UnmapFact] = []
        kill = False
        for call in _calls_in(relevant_exprs(node)):
            attr = _call_attr(call)
            name = _call_name(call)
            if attr in _UNMAP_CALLS:
                gens.append((call.lineno, call.col_offset, attr, False))
            elif attr is not None and attr in self.pending_helpers:
                # A self-helper summarized as leaking pending unmaps:
                # the obligation transfers to this call site.
                if (
                    isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "self"
                ):
                    gens.append(
                        (call.lineno, call.col_offset, attr, False)
                    )
            if (attr is not None and attr in self.invalidating) or (
                name is not None and name in self.invalidating
            ):
                kill = True
        return gens, kill

    def transfer(self, node: CFGNode, state):
        gens, kill = self.gens_kills(node)
        if kill:
            return frozenset()
        if gens:
            return state | frozenset(gens)
        return state

    def edge(self, edge: CFGEdge, cond, state):
        if edge.exceptional and edge.dst == self.cfg.exit:
            # Facts escaping only through an uncaught raise are error
            # paths, not the return/reuse contract this rule states.
            return frozenset()
        if edge.dst in self._while_heads and edge.src > edge.dst:
            # while-loop back edge: an unmap fact that survives a full
            # iteration means the retry is not re-armed.
            return frozenset(
                (line, col, attr, True) for line, col, attr, _ in state
            )
        return state


class PathSensitiveUnmapRule(AnalyzerRule):
    """REPRO004: all-paths unmap→invalidate before return/reuse."""

    code = "REPRO004"

    def check(self, project: ProjectModel) -> list[Finding]:
        invalidating = (
            set(_INVALIDATE_CALLS)
            | project.transitive_callers_of(set(_INVALIDATE_CALLS))
        )
        findings: list[Finding] = []
        for klass in project.classes:
            if not project.is_driver_class(klass):
                continue
            findings.extend(self._check_class(project, klass, invalidating))
        return findings

    # -- per-class summaries -------------------------------------------
    def _method_pending_at_exit(
        self,
        method: FunctionInfo,
        invalidating: set[str],
        pending_helpers: set[str],
    ) -> bool:
        cfg = build_cfg(method.node)
        analysis = _PendingUnmapAnalysis(cfg, invalidating, pending_helpers)
        states = solve(cfg, analysis)
        exit_state = states.get(cfg.exit)
        if exit_state is None:
            return False
        # The exit in-state is pre-transfer, which is what we want: no
        # statement executes at the exit node.
        return bool(exit_state)

    def _class_pending_helpers(
        self,
        project: ProjectModel,
        klass: ClassInfo,
        invalidating: set[str],
    ) -> set[str]:
        """Methods (incl. inherited) that leak pending unmaps to their
        caller on some path; fixpoint over helper-call chains."""
        methods: dict[str, FunctionInfo] = {}
        for ancestor in reversed(project.ancestors(klass)):
            methods.update(ancestor.methods)
        methods.update(klass.methods)
        pending: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, method in methods.items():
                if name in pending or name in invalidating:
                    continue
                if self._method_pending_at_exit(
                    method, invalidating, pending
                ):
                    pending.add(name)
                    changed = True
        return pending

    # -- reporting ------------------------------------------------------
    def _check_class(
        self,
        project: ProjectModel,
        klass: ClassInfo,
        invalidating: set[str],
    ) -> list[Finding]:
        pending_helpers = self._class_pending_helpers(
            project, klass, invalidating
        )
        findings: list[Finding] = []
        for method in klass.methods.values():
            findings.extend(
                self._check_method(
                    klass, method, invalidating, pending_helpers
                )
            )
        return findings

    def _check_method(
        self,
        klass: ClassInfo,
        method: FunctionInfo,
        invalidating: set[str],
        pending_helpers: set[str],
    ) -> list[Finding]:
        cfg = build_cfg(method.node)
        analysis = _PendingUnmapAnalysis(cfg, invalidating, pending_helpers)
        states = solve(cfg, analysis)
        path = klass.module.path
        where = f"{klass.name}.{method.name}"
        findings: list[Finding] = []
        reported: set[tuple] = set()

        def report(line: int, col: int, message: str, key: tuple) -> None:
            if key not in reported:
                reported.add(key)
                findings.append(Finding(path, line, col, self.code, message))

        # Stale paths reaching return: facts alive entering the exit.
        for line, col, attr, _looped in sorted(
            states.get(cfg.exit, frozenset())
        ):
            report(
                line,
                col,
                f"driver {where} unmaps ({attr}) but some path reaches "
                "return without an IOTLB invalidation; the stale "
                "translation survives the call",
                ("exit", line, col),
            )
        # Reuse while pending, and non-re-armed while retries.
        for node_id, state in states.items():
            if not state:
                continue
            node = cfg.nodes[node_id]
            for call in _calls_in(relevant_exprs(node)):
                attr = _call_attr(call)
                if attr in _REUSE_CALLS:
                    lines = sorted({fact[0] for fact in state})
                    report(
                        call.lineno,
                        call.col_offset,
                        f"driver {where} remaps/reuses IOVA space via "
                        f"{attr}() while unmap(s) at line "
                        f"{', '.join(map(str, lines))} are pending "
                        "invalidation",
                        ("reuse", call.lineno, call.col_offset),
                    )
                if attr in _UNMAP_CALLS:
                    looped = [
                        fact
                        for fact in state
                        if fact[3]
                        and fact[0] == call.lineno
                        and fact[1] == call.col_offset
                    ]
                    if looped:
                        report(
                            call.lineno,
                            call.col_offset,
                            f"driver {where} retries an unmap ({attr}) "
                            "in a while loop without re-arming the "
                            "IOTLB invalidation; earlier attempts leave "
                            "stale translations live",
                            ("retry", call.lineno, call.col_offset),
                        )
        return findings


# ---------------------------------------------------------------------------
# REPRO101: use-after-unmap taint
# ---------------------------------------------------------------------------
class _TaintAnalysis(ForwardAnalysis):
    meet = "may"

    def transfer(self, node: CFGNode, state):
        exprs = relevant_exprs(node)
        gens: set[str] = set()
        kills: set[str] = set()
        for call in _calls_in(exprs):
            attr = _call_attr(call)
            if attr in _UNMAP_CALLS and call.args:
                tainted = dotted_name(call.args[0])
                if tainted is not None:
                    gens.add(tainted)
            elif attr in {"map_page", "map_huge"} and call.args:
                remapped = dotted_name(call.args[0])
                if remapped is not None:
                    kills.add(remapped)
        # Assignments (including loop targets) kill taint on the
        # assigned name and everything reached through it.
        for target in _assigned_targets(node):
            kills.add(target)
        if not gens and not kills:
            return state
        kept = {
            fact
            for fact in state
            if not any(
                fact == dead or fact.startswith(dead + ".")
                for dead in kills
            )
        }
        return frozenset(kept | gens)


def _assigned_targets(node: CFGNode) -> list[str]:
    """Dotted names (re)bound at this node: assignments, loop targets,
    ``with ... as`` bindings, walrus targets."""
    stmt = node.stmt
    targets: list[ast.AST] = []
    if stmt is None:
        return []
    if node.kind == "loop" and isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets.append(stmt.target)
    elif isinstance(stmt, ast.Assign):
        targets.extend(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets.append(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets.extend(
            item.optional_vars
            for item in stmt.items
            if item.optional_vars is not None
        )
    for expr in relevant_exprs(node):
        for child in ast.walk(expr):
            if isinstance(child, ast.NamedExpr):
                targets.append(child.target)
    names: list[str] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                name = dotted_name(element)
                if name is not None:
                    names.append(name)
        else:
            name = dotted_name(target)
            if name is not None:
                names.append(name)
    return names


class UseAfterUnmapRule(AnalyzerRule):
    """REPRO101: an unmapped IOVA expression reaches a DMA sink."""

    code = "REPRO101"

    def check(self, project: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        for function in project.functions:
            if "unmap" not in str(function.called_attrs):
                # Fast path: no unmap call anywhere in the body.
                if not (function.called_attrs & _UNMAP_CALLS):
                    continue
            cfg = build_cfg(function.node)
            states = solve(cfg, _TaintAnalysis())
            path = function.module.path
            for node_id, state in states.items():
                if not state:
                    continue
                node = cfg.nodes[node_id]
                for call in _calls_in(relevant_exprs(node)):
                    if _call_attr(call) not in _DMA_SINKS:
                        continue
                    for arg in call.args:
                        name = dotted_name(arg)
                        if name is not None and name in state:
                            findings.append(
                                Finding(
                                    path,
                                    call.lineno,
                                    call.col_offset,
                                    self.code,
                                    f"{function.name} passes {name} to "
                                    f"{_call_attr(call)}() after a path "
                                    "already unmapped it "
                                    "(use-after-unmap reachable "
                                    "statically)",
                                )
                            )
        return findings


# ---------------------------------------------------------------------------
# REPRO102: sim-race between scheduled callbacks
# ---------------------------------------------------------------------------
class SimRaceRule(AnalyzerRule):
    """REPRO102: unordered event callbacks assigning a shared attribute."""

    code = "REPRO102"

    def check(self, project: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        for klass in project.classes:
            findings.extend(self._check_class(klass))
        return findings

    @staticmethod
    def _scheduled_callbacks(method: FunctionInfo) -> set[str]:
        """Methods of ``self`` this method hands to the simulator."""
        scheduled: set[str] = set()
        for call in ast.walk(method.node):
            if not isinstance(call, ast.Call):
                continue
            if _call_attr(call) not in _SCHED_CALLS:
                continue
            for arg in call.args:
                scheduled |= SimRaceRule._callback_targets(arg)
            for kw in call.keywords:
                if kw.arg == "callback":
                    scheduled |= SimRaceRule._callback_targets(kw.value)
        return scheduled

    @staticmethod
    def _callback_targets(arg: ast.AST) -> set[str]:
        # self._tick  |  lambda: self._tick(x)  |  partial(self._tick, x)
        name = dotted_name(arg)
        if name is not None and name.startswith("self."):
            parts = name.split(".")
            if len(parts) == 2:
                return {parts[1]}
        if isinstance(arg, ast.Lambda):
            out: set[str] = set()
            for call in ast.walk(arg.body):
                if isinstance(call, ast.Call):
                    inner = dotted_name(call.func)
                    if inner is not None and inner.startswith("self."):
                        parts = inner.split(".")
                        if len(parts) == 2:
                            out.add(parts[1])
            return out
        if isinstance(arg, ast.Call) and (
            _call_name(arg) == "partial" or _call_attr(arg) == "partial"
        ):
            if arg.args:
                return SimRaceRule._callback_targets(arg.args[0])
        return set()

    @staticmethod
    def _plain_self_writes(method: FunctionInfo) -> set[str]:
        """Attributes plainly assigned (``self.x = ...``); augmented
        updates commute across callback orderings and are ignored."""
        writes: set[str] = set()
        for stmt in ast.walk(method.node):
            targets: list[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if (
                        isinstance(element, ast.Attribute)
                        and isinstance(element.value, ast.Name)
                        and element.value.id == "self"
                    ):
                        writes.add(element.attr)
        return writes

    def _check_class(self, klass: ClassInfo) -> list[Finding]:
        methods = klass.methods
        if len(methods) < 2:
            return []
        # Which self-methods each method calls (for transitive edges).
        self_calls: dict[str, set[str]] = {}
        for name, method in methods.items():
            called: set[str] = set()
            for call in ast.walk(method.node):
                if isinstance(call, ast.Call):
                    dotted = dotted_name(call.func)
                    if dotted is not None and dotted.startswith("self."):
                        parts = dotted.split(".")
                        if len(parts) == 2 and parts[1] in methods:
                            called.add(parts[1])
            self_calls[name] = called
        direct_sched = {
            name: self._scheduled_callbacks(method)
            for name, method in methods.items()
        }
        # m schedules n if m, or anything m transitively calls, does.
        def closure_sched(name: str) -> set[str]:
            seen: set[str] = set()
            out: set[str] = set()
            stack = [name]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                out |= direct_sched.get(current, set())
                stack.extend(self_calls.get(current, set()))
            return out

        sched_edges = {name: closure_sched(name) for name in methods}
        scheduled = sorted(
            set().union(*direct_sched.values()) & set(methods)
        )
        if len(scheduled) < 2:
            return []

        def reaches(src: str, dst: str) -> bool:
            seen: set[str] = set()
            stack = [src]
            while stack:
                current = stack.pop()
                if current == dst:
                    return True
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(sched_edges.get(current, set()))
            return False

        writes = {name: self._plain_self_writes(methods[name])
                  for name in scheduled}
        findings: list[Finding] = []
        for i, first in enumerate(scheduled):
            for second in scheduled[i + 1:]:
                shared = sorted(writes[first] & writes[second])
                if not shared:
                    continue
                if reaches(first, second) or reaches(second, first):
                    continue
                findings.append(
                    Finding(
                        klass.module.path,
                        klass.node.lineno,
                        klass.node.col_offset,
                        self.code,
                        f"callbacks {klass.name}.{first} and "
                        f"{klass.name}.{second} both assign "
                        f"self.{', self.'.join(shared)} but neither "
                        "schedules the other; same-timestamp firing "
                        "order decides the final value",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# REPRO103: hook work outside the zero-cost guard
# ---------------------------------------------------------------------------
def _guard_atoms(
    expr: ast.AST,
    roots: set[str],
    when_true: bool,
    aliases: Optional[dict[str, set[str]]] = None,
) -> set[str]:
    """Roots proven non-None when ``expr`` evaluates to ``when_true``.

    ``aliases`` maps boolean locals back to the roots their truth
    implies (``collect = registry is not None`` makes ``collect`` an
    alias for the ``registry`` guard).
    """
    if isinstance(expr, ast.BoolOp):
        if isinstance(expr.op, ast.And) and when_true:
            out: set[str] = set()
            for value in expr.values:
                out |= _guard_atoms(value, roots, True, aliases)
            return out
        if isinstance(expr.op, ast.Or) and not when_true:
            out = set()
            for value in expr.values:
                out |= _guard_atoms(value, roots, False, aliases)
            return out
        return set()
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        return _guard_atoms(expr.operand, roots, not when_true, aliases)
    if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
        left = dotted_name(expr.left)
        right = expr.comparators[0]
        if (
            left in roots
            and isinstance(right, ast.Constant)
            and right.value is None
        ):
            if isinstance(expr.ops[0], ast.IsNot) and when_true:
                return {left}
            if isinstance(expr.ops[0], ast.Is) and not when_true:
                return {left}
        return set()
    name = dotted_name(expr)
    if name is not None and when_true:
        if name in roots:
            return {name}
        if aliases is not None and name in aliases:
            return set(aliases[name])
    return set()


def _guard_aliases(
    func: ast.AST, roots: set[str]
) -> dict[str, set[str]]:
    """Boolean locals whose truth implies a root guard, to fixpoint
    (so ``also = collect`` chains resolve too)."""
    aliases: dict[str, set[str]] = {}
    changed = True
    while changed:
        changed = False
        for stmt in ast.walk(func):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                continue
            name = stmt.targets[0].id
            if name in roots:
                continue
            atoms = _guard_atoms(stmt.value, roots, True, aliases)
            if atoms and not atoms <= aliases.get(name, set()):
                aliases[name] = aliases.get(name, set()) | atoms
                changed = True
    return aliases


class _GuardAnalysis(ForwardAnalysis):
    meet = "must"

    def __init__(
        self, roots: set[str], aliases: dict[str, set[str]]
    ) -> None:
        self.roots = roots
        self.aliases = aliases

    def transfer(self, node: CFGNode, state):
        stmt = node.stmt
        if stmt is None:
            return state
        # Asserting a guard proves it for the fall-through path.
        if isinstance(stmt, ast.Assert):
            return state | _guard_atoms(
                stmt.test, self.roots, True, self.aliases
            )
        killed = {
            target
            for target in _assigned_targets(node)
            if target in self.roots
        }
        if killed:
            state = frozenset(f for f in state if f not in killed)
        return state

    def edge(self, edge: CFGEdge, cond, state):
        if cond is None or edge.branch is None or cond.stmt is None:
            return state
        return state | _guard_atoms(
            cond.stmt, self.roots, edge.branch, self.aliases
        )


def _context_locals(func: ast.AST) -> set[str]:
    """Locals of ``func`` bound to ``current_context()``."""
    return {
        target.id
        for stmt in ast.walk(func)
        if isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Call)
        and _call_name(stmt.value) == "current_context"
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }


def _is_hook_read(value: ast.AST, contexts: set[str]) -> bool:
    """``value`` takes a hook object off the run context."""
    if isinstance(value, ast.Call):
        value = value.func
    if not (
        isinstance(value, ast.Attribute) and value.attr in _HOOK_SOURCES
    ):
        return False
    base = value.value
    if isinstance(base, ast.Call):
        return _call_name(base) == "current_context"
    return isinstance(base, ast.Name) and base.id in contexts


class HookGuardRule(AnalyzerRule):
    """REPRO103: obs/monitor/faults used without their None-guard."""

    code = "REPRO103"

    def check(self, project: ProjectModel) -> list[Finding]:
        hook_attrs_by_class = {
            klass.qualname: self._hook_attrs(project, klass)
            for klass in project.classes
        }
        findings: list[Finding] = []
        for function in project.functions:
            roots: set[str] = set()
            if function.klass is not None:
                attrs = hook_attrs_by_class.get(
                    function.klass.qualname, set()
                )
                roots |= {f"self.{attr}" for attr in attrs}
            roots |= self._local_hook_vars(function.node)
            if not roots:
                continue
            findings.extend(self._check_function(function, roots))
        return findings

    @staticmethod
    def _hook_attrs(project: ProjectModel, klass: ClassInfo) -> set[str]:
        """Attribute names assigned from the run context in the class
        or any resolvable ancestor (``self.obs =
        current_context().registry``)."""
        attrs: set[str] = set()
        for info in [klass] + project.ancestors(klass):
            for method in info.methods.values():
                contexts = _context_locals(method.node)
                for stmt in ast.walk(method.node):
                    if not (
                        isinstance(stmt, ast.Assign)
                        and _is_hook_read(stmt.value, contexts)
                    ):
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
        return attrs

    @staticmethod
    def _local_hook_vars(func: ast.AST) -> set[str]:
        out: set[str] = set()
        contexts = _context_locals(func)
        for stmt in ast.walk(func):
            if not (
                isinstance(stmt, ast.Assign)
                and _is_hook_read(stmt.value, contexts)
            ):
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        return out

    def _check_function(
        self, function: FunctionInfo, roots: set[str]
    ) -> list[Finding]:
        cfg = build_cfg(function.node)
        aliases = _guard_aliases(function.node, roots)
        states = solve(cfg, _GuardAnalysis(roots, aliases))
        path = function.module.path
        findings: list[Finding] = []
        reported: set[tuple[int, int]] = set()
        for node_id, state in states.items():
            node = cfg.nodes[node_id]
            for expr in relevant_exprs(node):
                # Skip the taught facts of this very node: assignments
                # to the root are kills, not uses.
                for use, root in _unguarded_uses(
                    expr, roots, set(state), aliases
                ):
                    key = (use.lineno, use.col_offset)
                    if key in reported:
                        continue
                    reported.add(key)
                    findings.append(
                        Finding(
                            path,
                            use.lineno,
                            use.col_offset,
                            self.code,
                            f"{function.name} does hook work through "
                            f"{root} outside its 'is not None' guard; "
                            "the zero-cost-when-off contract breaks "
                            "(and un-instrumented runs crash)",
                        )
                    )
        return findings


def _unguarded_uses(
    expr: ast.AST,
    roots: set[str],
    guarded: set[str],
    aliases: Optional[dict[str, set[str]]] = None,
) -> list[tuple[ast.Attribute, str]]:
    """Attribute uses *through* a hook root not covered by a guard.

    Walks with expression-level short-circuit awareness: inside
    ``a and b``, ``b`` sees the atoms ``a`` established; an ``IfExp``
    body sees its test's atoms.
    """
    out: list[tuple[ast.Attribute, str]] = []

    def visit(node: ast.AST, local: set[str]) -> None:
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            established = set(local)
            for value in node.values:
                visit(value, established)
                established |= _guard_atoms(value, roots, True, aliases)
            return
        if isinstance(node, ast.IfExp):
            visit(node.test, local)
            visit(
                node.body,
                local | _guard_atoms(node.test, roots, True, aliases),
            )
            visit(
                node.orelse,
                local | _guard_atoms(node.test, roots, False, aliases),
            )
            return
        if isinstance(node, ast.Attribute):
            inner = dotted_name(node.value)
            if inner is not None and inner in roots and inner not in local:
                out.append((node, inner))
                return  # deepest relevant use only
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(expr, guarded)
    return out


# ---------------------------------------------------------------------------
# REPRO105: device reset must re-arm the invalidation queue before mapping
# ---------------------------------------------------------------------------
# Name markers that make a driver method part of the reset protocol.
_RESET_MARKERS = ("reset", "recover")

# Calls that (re)introduce live translations: the "resume mapping" side.
_RESET_MAP_CALLS = {
    "map_page",
    "map_range",
    "map_huge",
    "make_rx_descriptor",
    "map_tx_page",
}

# Calls that re-arm the invalidation path after a wedge: an explicit
# queue re-arm, a global flush barrier, or the hardened retire helpers
# that end in one.
_REARM_CALLS = {
    "rearm",
    "flush_all",
    "_invalidate_robust",
    "invalidate_range",
}


class _RearmAnalysis(ForwardAnalysis):
    meet = "must"

    def __init__(self, rearming: set[str]) -> None:
        self.rearming = rearming

    def transfer(self, node: CFGNode, state):
        for call in _calls_in(relevant_exprs(node)):
            callee = _call_attr(call) or _call_name(call)
            if callee is not None and callee in self.rearming:
                return state | {"rearmed"}
        return state


class ResetRearmRule(AnalyzerRule):
    """REPRO105: reset/recovery must re-arm the queue before mapping."""

    code = "REPRO105"

    def check(self, project: ProjectModel) -> list[Finding]:
        rearming = set(_REARM_CALLS) | project.transitive_callers_of(
            set(_REARM_CALLS)
        )
        mapping = (
            set(_RESET_MAP_CALLS)
            | project.transitive_callers_of(set(_RESET_MAP_CALLS))
        ) - rearming
        findings: list[Finding] = []
        for klass in project.classes:
            if not project.is_driver_class(klass):
                continue
            for method in klass.methods.values():
                name = method.name.lower()
                if not any(marker in name for marker in _RESET_MARKERS):
                    continue
                findings.extend(
                    self._check_method(klass, method, rearming, mapping)
                )
        return findings

    def _check_method(
        self,
        klass: ClassInfo,
        method: FunctionInfo,
        rearming: set[str],
        mapping: set[str],
    ) -> list[Finding]:
        cfg = build_cfg(method.node)
        states = solve(cfg, _RearmAnalysis(rearming))
        where = f"{klass.name}.{method.name}"
        findings: list[Finding] = []
        for node_id, state in states.items():
            node = cfg.nodes[node_id]
            calls = _calls_in(relevant_exprs(node))
            # Within one statement the in-state predates every call, so
            # order by position: a re-arm textually ahead of the map
            # call in the same node still satisfies the protocol.
            rearm_positions = [
                (call.lineno, call.col_offset)
                for call in calls
                if (_call_attr(call) or _call_name(call)) in rearming
            ]
            for call in calls:
                callee = _call_attr(call) or _call_name(call)
                if callee not in mapping:
                    continue
                if "rearmed" in state:
                    continue
                if any(
                    pos < (call.lineno, call.col_offset)
                    for pos in rearm_positions
                ):
                    continue
                findings.append(
                    Finding(
                        klass.module.path,
                        call.lineno,
                        call.col_offset,
                        self.code,
                        f"driver {where} maps DMA buffers via "
                        f"{callee}() on a path that never re-armed "
                        "the invalidation queue; after a wedge the "
                        "queue must be re-armed (rearm/flush_all or a "
                        "hardened retire) before mapping resumes",
                    )
                )
        return findings
