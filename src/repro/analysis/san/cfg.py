"""Intraprocedural control-flow graphs over Python function ASTs.

The ownership analyses (:mod:`repro.analysis.san`) are *flow*
properties — "an skb is used after it was encoded onto the wire" is a
claim about paths, not about single statements — so they run over a CFG
rather than a plain AST walk. The graph is deliberately coarse:

* nodes are **basic blocks** of consecutive simple statements;
* ``if`` / ``while`` / ``for`` / ``try`` / ``with`` introduce the usual
  branch/loop/back edges;
* every block inside a ``try`` body also has an edge to the first
  handler block (any statement may raise), which over-approximates
  exceptional flow;
* ``return`` / ``raise`` edge to the synthetic exit block, ``break`` /
  ``continue`` to the loop exit/header.

Over-approximate edges are safe here because the client analyses join
with set union and only report **must** violations (every abstract state
reaching the statement is bad), so an extra edge can only suppress a
finding, never invent one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Statement kinds that never transfer control and stay in one block.
_SIMPLE = (
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Expr,
    ast.Pass,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


@dataclass
class Block:
    """One basic block: statements executed straight through."""

    index: int
    stmts: List[ast.stmt] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)

    def add_succ(self, index: int) -> None:
        if index not in self.succs:
            self.succs.append(index)


@dataclass
class Cfg:
    """The control-flow graph of one function."""

    func: "ast.FunctionDef | ast.AsyncFunctionDef"
    blocks: List[Block]
    entry: int
    exit: int

    def preds(self) -> Dict[int, List[int]]:
        incoming: Dict[int, List[int]] = {block.index: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.succs:
                incoming[succ].append(block.index)
        return incoming


class _Builder:
    def __init__(self, func: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self.func = func
        self.blocks: List[Block] = []
        self.exit_block = self._new()

    def _new(self) -> Block:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    def build(self) -> Cfg:
        entry = self._new()
        last = self._stmts(self.func.body, entry, loop=None, handlers=None)
        if last is not None:
            last.add_succ(self.exit_block.index)
        return Cfg(
            func=self.func,
            blocks=self.blocks,
            entry=entry.index,
            exit=self.exit_block.index,
        )

    # ------------------------------------------------------------------
    def _stmts(
        self,
        stmts: Sequence[ast.stmt],
        current: Block,
        loop: Optional[Tuple[int, int]],
        handlers: Optional[int],
    ) -> Optional[Block]:
        """Thread ``stmts`` through the graph starting at ``current``.

        ``loop`` is ``(header, after)`` block indexes for the innermost
        loop; ``handlers`` is the block index of the innermost enclosing
        ``except`` ladder. Returns the open block at the end, or None
        when every path diverted (return/raise/break).
        """
        block: Optional[Block] = current
        for stmt in stmts:
            if block is None:
                # Dead code after return/raise — still parse it so nested
                # defs are seen elsewhere, but it has no flow edges.
                block = self._new()
            if handlers is not None:
                block.add_succ(handlers)
            if isinstance(stmt, _SIMPLE):
                block.stmts.append(stmt)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                block.stmts.append(stmt)
                block.add_succ(self.exit_block.index)
                block = None
            elif isinstance(stmt, ast.Break):
                if loop is not None:
                    block.add_succ(loop[1])
                block = None
            elif isinstance(stmt, ast.Continue):
                if loop is not None:
                    block.add_succ(loop[0])
                block = None
            elif isinstance(stmt, ast.If):
                block.stmts.append(stmt)  # the test expression
                after = self._new()
                body_entry = self._new()
                block.add_succ(body_entry.index)
                body_end = self._stmts(stmt.body, body_entry, loop, handlers)
                if body_end is not None:
                    body_end.add_succ(after.index)
                if stmt.orelse:
                    else_entry = self._new()
                    block.add_succ(else_entry.index)
                    else_end = self._stmts(stmt.orelse, else_entry, loop, handlers)
                    if else_end is not None:
                        else_end.add_succ(after.index)
                else:
                    block.add_succ(after.index)
                block = after
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                header = self._new()
                block.add_succ(header.index)
                # The loop statement itself (test / iterator + target
                # binding) lives in the header block.
                header.stmts.append(stmt)
                after = self._new()
                body_entry = self._new()
                header.add_succ(body_entry.index)
                header.add_succ(after.index)
                body_end = self._stmts(
                    stmt.body, body_entry, (header.index, after.index), handlers
                )
                if body_end is not None:
                    body_end.add_succ(header.index)
                if stmt.orelse:
                    else_entry = self._new()
                    header.add_succ(else_entry.index)
                    else_end = self._stmts(stmt.orelse, else_entry, loop, handlers)
                    if else_end is not None:
                        else_end.add_succ(after.index)
                block = after
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                after = self._new()
                handler_entry: Optional[Block] = None
                if stmt.handlers:
                    handler_entry = self._new()
                body_entry = self._new()
                block.add_succ(body_entry.index)
                body_end = self._stmts(
                    stmt.body,
                    body_entry,
                    loop,
                    handler_entry.index if handler_entry else handlers,
                )
                tail = after
                if stmt.finalbody:
                    final_entry = self._new()
                    final_end = self._stmts(stmt.finalbody, final_entry, loop, handlers)
                    if final_end is not None:
                        final_end.add_succ(after.index)
                    tail = final_entry
                if body_end is not None:
                    if stmt.orelse:
                        else_entry = self._new()
                        body_end.add_succ(else_entry.index)
                        else_end = self._stmts(stmt.orelse, else_entry, loop, handlers)
                        if else_end is not None:
                            else_end.add_succ(tail.index)
                    else:
                        body_end.add_succ(tail.index)
                if handler_entry is not None:
                    current_handler = handler_entry
                    for handler in stmt.handlers:
                        handler_end = self._stmts(
                            handler.body, current_handler, loop, handlers
                        )
                        if handler_end is not None:
                            handler_end.add_succ(tail.index)
                        if handler is not stmt.handlers[-1]:
                            nxt = self._new()
                            current_handler.add_succ(nxt.index)
                            current_handler = nxt
                block = after
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                block.stmts.append(stmt)  # context-manager expressions
                body_entry = self._new()
                block.add_succ(body_entry.index)
                body_end = self._stmts(stmt.body, body_entry, loop, handlers)
                after = self._new()
                if body_end is not None:
                    body_end.add_succ(after.index)
                block = after
            else:
                # Unknown statement kind (e.g. Match): keep it opaque in
                # the current block — conservative for must-analyses.
                block.stmts.append(stmt)
        return block


def build_cfg(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> Cfg:
    """Build the CFG of one function definition."""
    return _Builder(func).build()
