"""Per-function control-flow graphs for the dataflow rules.

The CFG is statement-granular: one node per simple statement, one
*test* node per atomic branch condition, plus synthetic ``entry`` and
``exit`` nodes.  Branch conditions are decomposed through boolean
short-circuiting — ``if a and b:`` becomes two chained test nodes —
so edge labels always carry an *atomic* condition plus the branch
taken.  The guard rule (REPRO103) leans on that: the true edge of
``self.obs is not None`` is exactly where the non-None fact is born.

Covered control flow: ``if``/``elif``/``else``, ``while`` (with
``break``/``continue``), ``for`` (the loop header node binds the
target on every iteration), ``with``, ``try``/``except``/``else``/
``finally`` (every statement inside a ``try`` body gets an exceptional
edge to each handler), ``return``, ``raise``, ``assert``.  ``match``
arms are treated as parallel branches.  Nested function/class
definitions are opaque single statements (their bodies get their own
CFGs).

Exceptional edges are marked so rules can choose whether a fact that
escapes only via an exception path counts (the REPRO004 rule ignores
raise-to-exit paths but follows try-to-handler paths).
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

__all__ = ["CFG", "CFGNode", "CFGEdge", "build_cfg", "relevant_exprs"]


@dataclass
class CFGNode:
    """One CFG node: a statement, an atomic test, or entry/exit."""

    node_id: int
    kind: str  # "entry" | "exit" | "stmt" | "test" | "loop"
    stmt: Optional[ast.AST] = None  # statement or atomic test expression

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0) if self.stmt is not None else 0


@dataclass(frozen=True)
class CFGEdge:
    """A directed edge, optionally labelled with an atomic condition."""

    src: int
    dst: int
    cond_id: Optional[int] = None  # node_id of the test node, if any
    branch: Optional[bool] = None  # which way the test went
    exceptional: bool = False


@dataclass
class CFG:
    nodes: dict[int, CFGNode] = field(default_factory=dict)
    edges: list[CFGEdge] = field(default_factory=list)
    entry: int = 0
    exit: int = 1

    def successors(self, node_id: int) -> list[CFGEdge]:
        return [e for e in self.edges if e.src == node_id]

    def predecessors(self, node_id: int) -> list[CFGEdge]:
        return [e for e in self.edges if e.dst == node_id]

    def succ_map(self) -> dict[int, list[CFGEdge]]:
        succs: dict[int, list[CFGEdge]] = {nid: [] for nid in self.nodes}
        for edge in self.edges:
            succs[edge.src].append(edge)
        return succs


# A dangling out-edge waiting for its destination: (src node id,
# cond node id, branch, exceptional).
_Pending = tuple[int, Optional[int], Optional[bool], bool]


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self._ids = itertools.count()
        self.cfg.entry = self._new("entry").node_id
        self.cfg.exit = self._new("exit").node_id
        # Loop context stacks for break/continue.
        self._break_targets: list[list[_Pending]] = []
        self._continue_heads: list[int] = []
        # Innermost try's handler-entry node ids.
        self._handler_stack: list[list[int]] = []

    # ------------------------------------------------------------------
    def _new(self, kind: str, stmt: Optional[ast.AST] = None) -> CFGNode:
        node = CFGNode(node_id=next(self._ids), kind=kind, stmt=stmt)
        self.cfg.nodes[node.node_id] = node
        return node

    def _connect(self, frontier: Sequence[_Pending], dst: int) -> None:
        for src, cond_id, branch, exceptional in frontier:
            self.cfg.edges.append(
                CFGEdge(src, dst, cond_id, branch, exceptional)
            )

    def _exceptional_edges(self, node_id: int) -> None:
        """Inside a try body, any statement may raise into the handlers."""
        if self._handler_stack:
            for handler_id in self._handler_stack[-1]:
                self.cfg.edges.append(
                    CFGEdge(node_id, handler_id, exceptional=True)
                )

    # ------------------------------------------------------------------
    # Conditions (short-circuit decomposition)
    # ------------------------------------------------------------------
    def _condition(
        self, test: ast.expr, frontier: Sequence[_Pending]
    ) -> tuple[list[_Pending], list[_Pending]]:
        """Build test nodes for ``test``; returns (true, false) frontiers."""
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And):
                true_f: Sequence[_Pending] = frontier
                false_all: list[_Pending] = []
                for value in test.values:
                    true_f, false_f = self._condition(value, true_f)
                    false_all.extend(false_f)
                return list(true_f), false_all
            # Or: falls through on false, exits on first true.
            false_f = frontier
            true_all: list[_Pending] = []
            for value in test.values:
                true_f, false_f = self._condition(value, false_f)
                true_all.extend(true_f)
            return true_all, list(false_f)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            true_f, false_f = self._condition(test.operand, frontier)
            return false_f, true_f
        node = self._new("test", test)
        self._connect(frontier, node.node_id)
        self._exceptional_edges(node.node_id)
        if isinstance(test, ast.Constant):
            # ``while True:`` and friends: only the decided branch
            # exists, so a constant loop never leaks a false exit.
            taken = bool(test.value)
            return (
                [(node.node_id, node.node_id, True, False)] if taken else [],
                [] if taken else [(node.node_id, node.node_id, False, False)],
            )
        return (
            [(node.node_id, node.node_id, True, False)],
            [(node.node_id, node.node_id, False, False)],
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def block(
        self, stmts: Sequence[ast.stmt], frontier: list[_Pending]
    ) -> list[_Pending]:
        for stmt in stmts:
            frontier = self.statement(stmt, frontier)
        return frontier

    def statement(
        self, stmt: ast.stmt, frontier: list[_Pending]
    ) -> list[_Pending]:
        if not frontier:
            return []  # unreachable code after return/raise/break
        if isinstance(stmt, ast.If):
            true_f, false_f = self._condition(stmt.test, frontier)
            after = self.block(stmt.body, list(true_f))
            if stmt.orelse:
                after += self.block(stmt.orelse, list(false_f))
            else:
                after += list(false_f)
            return after
        if isinstance(stmt, ast.While):
            head_anchor = self._new("loop", stmt)
            self._connect(frontier, head_anchor.node_id)
            head = [(head_anchor.node_id, None, None, False)]
            true_f, false_f = self._condition(stmt.test, head)
            self._break_targets.append([])
            self._continue_heads.append(head_anchor.node_id)
            body_out = self.block(stmt.body, list(true_f))
            self._connect(body_out, head_anchor.node_id)
            breaks = self._break_targets.pop()
            self._continue_heads.pop()
            after = list(false_f) + breaks
            if stmt.orelse:
                after = self.block(stmt.orelse, list(false_f)) + breaks
            return after
        if isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            # The loop node both evaluates the iterable and (re)binds
            # the target on each iteration; edges: iterate vs exhaust.
            head = self._new("loop", stmt)
            self._connect(frontier, head.node_id)
            self._exceptional_edges(head.node_id)
            self._break_targets.append([])
            self._continue_heads.append(head.node_id)
            body_out = self.block(
                stmt.body, [(head.node_id, None, None, False)]
            )
            self._connect(body_out, head.node_id)
            breaks = self._break_targets.pop()
            self._continue_heads.pop()
            exhausted: list[_Pending] = [(head.node_id, None, None, False)]
            if stmt.orelse:
                exhausted = self.block(stmt.orelse, exhausted)
            return exhausted + breaks
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.node_id)
            self._exceptional_edges(node.node_id)
            return self.block(stmt.body, [(node.node_id, None, None, False)])
        if isinstance(stmt, ast.Return):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.node_id)
            self.cfg.edges.append(CFGEdge(node.node_id, self.cfg.exit))
            return []
        if isinstance(stmt, ast.Raise):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.node_id)
            if self._handler_stack:
                self._exceptional_edges(node.node_id)
            else:
                self.cfg.edges.append(
                    CFGEdge(node.node_id, self.cfg.exit, exceptional=True)
                )
            return []
        if isinstance(stmt, ast.Break):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.node_id)
            if self._break_targets:
                self._break_targets[-1].append(
                    (node.node_id, None, None, False)
                )
            return []
        if isinstance(stmt, ast.Continue):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.node_id)
            if self._continue_heads:
                self.cfg.edges.append(
                    CFGEdge(node.node_id, self._continue_heads[-1])
                )
            return []
        if isinstance(stmt, ast.Match):
            subject = self._new("stmt", stmt)
            self._connect(frontier, subject.node_id)
            after: list[_Pending] = []
            arm_entry: list[_Pending] = [(subject.node_id, None, None, False)]
            for case in stmt.cases:
                after += self.block(case.body, list(arm_entry))
            # No arm may match.
            after += arm_entry
            return after
        # Simple statement (expressions, assignments, asserts, nested
        # defs, imports, pass, global, ...).
        node = self._new("stmt", stmt)
        self._connect(frontier, node.node_id)
        self._exceptional_edges(node.node_id)
        return [(node.node_id, None, None, False)]

    def _try(self, stmt: ast.Try, frontier: list[_Pending]) -> list[_Pending]:
        # Handler entry nodes first, so body statements can raise into
        # them while being built.
        handler_entries: list[int] = []
        for handler in stmt.handlers:
            entry = self._new("stmt", handler)
            handler_entries.append(entry.node_id)
        self._handler_stack.append(handler_entries)
        body_out = self.block(stmt.body, frontier)
        self._handler_stack.pop()
        if stmt.orelse:
            body_out = self.block(stmt.orelse, body_out)
        after: list[_Pending] = list(body_out)
        for handler, entry_id in zip(stmt.handlers, handler_entries):
            after += self.block(
                handler.body, [(entry_id, None, None, False)]
            )
        if stmt.finalbody:
            after = self.block(stmt.finalbody, after)
        return after


def relevant_exprs(node: CFGNode) -> list[ast.AST]:
    """The AST fragments a transfer function should inspect at ``node``.

    Statement nodes that *contain* nested statement lists (``with``,
    ``match``, nested ``def``/``class``) expose only the expressions
    evaluated at the node itself — never the nested body, which has its
    own CFG nodes (or, for nested definitions, its own CFG).
    """
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == "test":
        return [stmt]
    if node.kind == "loop":
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter, stmt.target]
        return []  # while-loop anchor; its test has its own nodes
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [stmt]


def build_cfg(func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> CFG:
    """Build the CFG for one function definition."""
    builder = _Builder()
    frontier: list[_Pending] = [(builder.cfg.entry, None, None, False)]
    out = builder.block(func.body, frontier)
    builder._connect(out, builder.cfg.exit)
    return builder.cfg
