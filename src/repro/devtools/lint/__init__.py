"""reprolint -- the repo-specific invariant checker behind ``repro lint``.

Off-the-shelf linters know nothing about the three contracts this
reproduction actually lives or dies by:

* **determinism** -- a seeded run must be byte-identical on rerun
  (the RunJournal contract, PR 3);
* **sim-time discipline** -- every delay is spent as simulated time,
  never wall time;
* **ledger hygiene** -- every dropped frame carries a cause from the
  central taxonomy (the frame-conservation ledger, PR 4).

reprolint enforces them statically in two phases: per-file AST rules
(RL000-RL008, RL013) over each module, then whole-program rules (RL009-RL012:
journal event-schema contracts, process-boundary picklability,
parent-only durability, seed-provenance taint) over a cached project
index (``lint/project.py``) of symbols, call edges, and propagated
string constants.  A line/file pragma escape hatch
(``# reprolint: disable=RLxxx -- reason``; reasons are mandatory,
RL000) and per-rule configuration in ``[tool.reprolint]`` complete the
surface.  See DESIGN.md sections 9 and 14 for the invariant catalogue
and the incidents each rule is distilled from, and ``EVENTS.md`` for
the generated journal event registry.
"""

from __future__ import annotations

from repro.devtools.lint.config import (LintConfig, apply_overrides,
                                        load_config)
from repro.devtools.lint.engine import LintResult, run_lint
from repro.devtools.lint.events import (event_registry, events_md_stale,
                                        render_events_md)
from repro.devtools.lint.project import ProjectIndex
from repro.devtools.lint.report import (render_json, render_rule_list,
                                        render_text)
from repro.devtools.lint.rules import (PROJECT_RULES, RULES, ProjectRule,
                                       Rule, register, register_project)
from repro.devtools.lint.sarif import render_sarif
from repro.devtools.lint.violations import PARSE_ERROR, Violation

__all__ = [
    "LintConfig", "LintResult", "PARSE_ERROR", "PROJECT_RULES",
    "ProjectIndex", "ProjectRule", "RULES", "Rule", "Violation",
    "apply_overrides", "event_registry", "events_md_stale", "load_config",
    "register", "register_project", "render_events_md", "render_json",
    "render_rule_list", "render_sarif", "render_text", "run_lint",
]
