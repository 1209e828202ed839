"""Tests for the san family's CFG builder and worklist fixpoint engine."""

import ast

import pytest

from repro.analysis.san.cfg import build_cfg
from repro.analysis.san.engine import (
    MAX_ITERATIONS,
    FixpointError,
    call_sites,
    fixpoint,
    walk_block,
)


def cfg_of(source):
    tree = ast.parse(source)
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def reachable(cfg):
    seen = {cfg.entry}
    frontier = [cfg.entry]
    while frontier:
        for succ in cfg.blocks[frontier.pop()].succs:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


class TestCfgShapes:
    def test_straight_line_is_one_block_plus_exit(self):
        cfg = cfg_of("def f():\n    a = 1\n    b = 2\n")
        assert cfg.entry != cfg.exit
        entry = cfg.blocks[cfg.entry]
        assert len(entry.stmts) == 2
        assert entry.succs == [cfg.exit]

    def test_if_else_diamond(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    b = a\n"
        )
        entry = cfg.blocks[cfg.entry]
        # The If node (its test) terminates the entry block with two arms.
        assert isinstance(entry.stmts[-1], ast.If)
        assert len(entry.succs) == 2
        # Both arms join at a block that reaches the exit.
        preds = cfg.preds()
        join = [
            b.index
            for b in cfg.blocks
            if b.stmts and isinstance(b.stmts[0], ast.Assign)
            and b.stmts[0].targets[0].id == "b"
        ]
        assert len(join) == 1
        assert len(preds[join[0]]) == 2

    def test_if_without_else_edges_past_body(self):
        cfg = cfg_of("def f(x):\n    if x:\n        a = 1\n    b = 2\n")
        entry = cfg.blocks[cfg.entry]
        assert len(entry.succs) == 2  # body entry + fallthrough

    def test_while_has_back_edge(self):
        cfg = cfg_of("def f(x):\n    while x:\n        x -= 1\n    return x\n")
        headers = [
            b for b in cfg.blocks if b.stmts and isinstance(b.stmts[0], ast.While)
        ]
        assert len(headers) == 1
        header = headers[0]
        preds = cfg.preds()
        # Back edge: some body block loops to the header, plus the entry.
        assert len(preds[header.index]) == 2
        # Header exits both into the body and past the loop.
        assert len(header.succs) == 2

    def test_return_edges_to_exit_and_kills_fallthrough(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"
        )
        for block in cfg.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, ast.Return):
                    assert cfg.exit in block.succs

    def test_break_exits_loop(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x:\n"
            "            break\n"
            "    return 0\n"
        )
        # Every block is still wired: the return is reachable.
        assert any(
            isinstance(s, ast.Return)
            for i in reachable(cfg)
            for s in cfg.blocks[i].stmts
        )

    def test_try_body_edges_into_handler(self):
        cfg = cfg_of(
            "def f():\n"
            "    try:\n"
            "        a = risky()\n"
            "    except ValueError:\n"
            "        a = 0\n"
            "    return a\n"
        )
        handler_blocks = {
            b.index
            for b in cfg.blocks
            if any(
                isinstance(s, ast.Assign)
                and isinstance(s.value, ast.Constant)
                and s.value.value == 0
                for s in b.stmts
            )
        }
        assert handler_blocks
        body_blocks = [
            b
            for b in cfg.blocks
            if any(
                isinstance(s, ast.Assign) and isinstance(s.value, ast.Call)
                for s in b.stmts
            )
        ]
        assert body_blocks
        # Over-approximation: the body block may raise into the handler.
        assert set(body_blocks[0].succs) & handler_blocks

    def test_dead_code_after_return_is_parsed_but_unreachable(self):
        cfg = cfg_of("def f():\n    return 1\n    x = 2\n")
        dead = [
            b.index
            for b in cfg.blocks
            if any(isinstance(s, ast.Assign) for s in b.stmts)
        ]
        assert dead
        assert dead[0] not in reachable(cfg)


class _GenAnalysis:
    """Toy gen-only analysis: the set of variable names assigned so far."""

    def initial(self, cfg):
        return frozenset()

    def transfer(self, stmt, state):
        if isinstance(stmt, ast.Assign):
            names = {
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            }
            return state | frozenset(names)
        return state

    def join(self, a, b):
        return a | b


class _NonMonotone:
    """Deliberately broken: oscillates forever."""

    def initial(self, cfg):
        return 0

    def transfer(self, stmt, state):
        return state + 1

    def join(self, a, b):
        return max(a, b)


class TestFixpointEngine:
    def test_branch_states_join_with_union(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        b = 2\n"
            "    c = 3\n"
        )
        states = fixpoint(cfg, _GenAnalysis())
        assert states[cfg.exit] >= {"a", "b", "c"} or states[
            cfg.exit
        ] == frozenset()
        # The exit sees the union of both arms *after* the join block runs.
        observed = {}

        def observe(stmt, state):
            if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "c":
                observed["before_c"] = state

        walk_block(cfg, states, _GenAnalysis(), observe)
        assert observed["before_c"] == frozenset({"a", "b"})

    def test_loop_converges(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        a = x\n"
            "    return a\n"
        )
        states = fixpoint(cfg, _GenAnalysis())
        assert cfg.exit in states

    def test_deterministic_states(self):
        source = (
            "def f(x):\n"
            "    while x:\n"
            "        if x > 1:\n"
            "            a = 1\n"
            "        else:\n"
            "            b = 2\n"
            "        x -= 1\n"
            "    return x\n"
        )
        first = fixpoint(cfg_of(source), _GenAnalysis())
        second = fixpoint(cfg_of(source), _GenAnalysis())
        assert first == second

    def test_non_monotone_transfer_raises(self):
        cfg = cfg_of("def f(x):\n    while x:\n        x -= 1\n    return x\n")
        with pytest.raises(FixpointError):
            fixpoint(cfg, _NonMonotone())
        assert MAX_ITERATIONS >= 1000


class TestCallSites:
    def names(self, source):
        stmt = ast.parse(source).body[0]
        return [name for _, name in call_sites(stmt)]

    def test_simple_statement_calls(self):
        assert self.names("x = f(g())") == ["f", "g"] or set(
            self.names("x = f(g())")
        ) == {"f", "g"}

    def test_if_contributes_only_its_test(self):
        names = self.names("if check(x):\n    body_call(x)\n")
        assert "check" in names
        assert "body_call" not in names

    def test_for_contributes_only_its_iterator(self):
        names = self.names("for i in gen(x):\n    body_call(i)\n")
        assert "gen" in names
        assert "body_call" not in names

    def test_nested_def_and_lambda_are_skipped(self):
        names = self.names("x = (lambda: inner())\n")
        assert "inner" not in names

    def test_method_call_yields_last_segment(self):
        assert self.names("stack.enqueue_backlog(skb)") == ["enqueue_backlog"]
