"""The reprolint rule registry.

Each rule is a small, independently testable :class:`~.base.Rule`
visitor registered under a stable ``RLxxx`` id.  Importing this package
loads every built-in rule module; third parties (or tests) can register
additional rules with :func:`register`.

Two families:

* **per-file rules** (:data:`RULES`, RL000--RL008 and RL013) -- pure AST visitors
  over one module;
* **project rules** (:data:`PROJECT_RULES`, RL009--RL012) -- run once
  against the whole-program :class:`~..project.ProjectIndex` after
  every file is parsed.
"""

from __future__ import annotations

from repro.devtools.lint.rules.base import (
    PROJECT_RULES,
    RULES,
    ProjectRule,
    Rule,
    register,
    register_project,
)

# Import for side effect: each module registers its rule class.
from repro.devtools.lint.rules import (  # noqa: F401  (registration imports)
    rl000_pragma_reason,
    rl001_wallclock,
    rl002_nondeterminism,
    rl003_sleep,
    rl004_conditional_rng,
    rl005_journal_purity,
    rl006_broad_except,
    rl007_drop_causes,
    rl008_atomic_writes,
    rl009_event_schema,
    rl010_process_boundary,
    rl011_parent_durability,
    rl012_seed_provenance,
    rl013_global_counter,
)

__all__ = ["PROJECT_RULES", "RULES", "ProjectRule", "Rule", "register",
           "register_project"]
