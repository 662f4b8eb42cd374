"""RL013 -- no process-global counters.

An ``itertools.count()`` built at import time -- a module constant, a
class attribute, or a default argument -- numbers things across every
run in the process.  Two runs of the same seeded scenario in one process
(a test session, a reused shard-pool worker, the serial campaign path)
then see different numbers.  The traffic generator's flow-id counter was
such a leak: ``flow_id & 0xFFFF`` is the ICMP echo identifier, so the
second run's pcaps differed from a fresh process's while its journal
matched.

Counters belong to per-world state (the simulator, the orchestrator, the
scheduler that hands the ids out).  A fallback counter whose value never
reaches a journal or pcap can stay with a reasoned pragma.
"""

from __future__ import annotations

import ast

from repro.devtools.lint.rules.base import Rule, register

COUNTER_CALLS = frozenset({"itertools.count"})


@register
class GlobalCounterRule(Rule):
    id = "RL013"
    name = "global-counter"
    summary = ("itertools.count() evaluated at import time -- ids leak "
               "across runs in one process; keep counters per world")

    def __init__(self, ctx, options):
        super().__init__(ctx, options)
        self._function_depth = 0

    def _visit_function(self, node) -> None:
        # Decorators and defaults run at definition time, in the
        # enclosing scope; only the body is deferred to call time.
        for decorator in getattr(node, "decorator_list", ()):
            self.visit(decorator)
        for default in node.args.defaults + node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        self._function_depth += 1
        body = node.body if isinstance(node.body, list) else [node.body]
        for statement in body:
            self.visit(statement)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if (self._function_depth == 0
                and self.ctx.call_qualname(node) in COUNTER_CALLS):
            self.report(node, (
                "`itertools.count()` at import time is process-global: "
                "its ids continue across runs in one process -- create "
                "the counter in per-world state (the object that hands "
                "out the ids) instead"))
        self.generic_visit(node)
