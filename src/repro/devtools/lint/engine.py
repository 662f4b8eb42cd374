"""The lint engine: discover files, run rules, apply suppression.

Two phases:

1. **parse + index** -- every target file is parsed once into a
   :class:`FileContext`; the contexts feed both the per-file rules and
   the :class:`~repro.devtools.lint.project.ProjectIndex`, whose
   per-file fact extraction is cached on content hashes
   (``.reprolint-cache.json``) so warm runs only re-extract edits.
2. **rules** -- per-file rules (RL000--RL008, RL013) visit each AST; project
   rules (RL009--RL012) run once against the merged index.

Rules are pure functions of their input (AST or index); the engine owns
everything contextual -- file discovery, per-rule path allowlists,
``select``/``ignore``, pragma suppression -- so a rule's fixture tests
never depend on configuration.  Project-rule violations are mapped back
to their file's pragma table, so ``# reprolint: disable=RL009 -- why``
works identically across both families.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.context import FileContext, load_context
from repro.devtools.lint.pragmas import suppresses
from repro.devtools.lint.project import ProjectIndex
from repro.devtools.lint.rules import PROJECT_RULES, RULES
from repro.devtools.lint.violations import PARSE_ERROR, Violation


@dataclass
class LintResult:
    """Outcome of one lint run over a set of files."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    errors: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)
    index_stats: Dict[str, int] = field(default_factory=dict)
    #: The phase-1 project index (not serialized; backs ``--graph`` /
    #: ``--events-md`` without a second pass).
    index: Optional[ProjectIndex] = field(default=None, repr=False,
                                          compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "counts": self.counts_by_rule(),
            "index": dict(self.index_stats),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "errors": [v.to_dict() for v in self.errors],
        }


def discover_files(paths: Sequence[Path], root: Path,
                   exclude: Sequence[str]) -> List[Tuple[Path, str]]:
    """(absolute path, repo-relative posix path) for every target file."""
    seen = {}
    for target in paths:
        target = target if target.is_absolute() else root / target
        if target.is_dir():
            candidates: Iterable[Path] = sorted(target.rglob("*.py"))
        else:
            candidates = [target]
        for candidate in candidates:
            try:
                rel = candidate.resolve().relative_to(root.resolve())
                rel_path = rel.as_posix()
            except ValueError:
                rel_path = candidate.as_posix()
            if "__pycache__" in rel_path:
                continue
            if any(fnmatch.fnmatch(rel_path, pattern)
                   or fnmatch.fnmatch("/" + rel_path, pattern)
                   for pattern in exclude):
                continue
            seen[rel_path] = candidate
    return [(path, rel) for rel, path in sorted(seen.items())]


def _route(violation: Violation, rule_id: str, suppressible: bool,
           ctx: Optional[FileContext], result: LintResult) -> None:
    """File a violation as live or pragma-suppressed."""
    if suppressible and ctx is not None:
        line_rules = ctx.line_pragmas.get(violation.line, set())
        if suppresses(ctx.file_pragmas, rule_id) \
                or suppresses(line_rules, rule_id):
            result.suppressed.append(
                Violation(**{**violation.to_dict(), "suppressed": True}))
            return
    result.violations.append(violation)


def lint_file(ctx: FileContext, config: LintConfig,
              result: LintResult) -> None:
    for rule_id in sorted(RULES):
        if not config.rule_enabled(rule_id):
            continue
        rule_cls = RULES[rule_id]
        rule = rule_cls(ctx, config.options_for(rule_id))
        if not rule.applies_to(ctx.rel_path):
            continue
        for violation in rule.run():
            _route(violation, rule_id, rule_cls.suppressible, ctx, result)


def lint_project(index: ProjectIndex, contexts: Dict[str, FileContext],
                 config: LintConfig, result: LintResult) -> None:
    """Phase 2: run every enabled project rule against the index."""
    for rule_id in sorted(PROJECT_RULES):
        if not config.rule_enabled(rule_id):
            continue
        rule_cls = PROJECT_RULES[rule_id]
        rule = rule_cls(index, config.options_for(rule_id))
        for violation in rule.run():
            if not rule.applies_to(violation.path):
                continue
            _route(violation, rule_id, True,
                   contexts.get(violation.path), result)


def run_lint(paths: Optional[Sequence[Path]] = None,
             config: Optional[LintConfig] = None) -> LintResult:
    """Lint ``paths`` (default: the configured targets) under ``config``."""
    config = config or LintConfig()
    targets = [Path(p) for p in paths] if paths \
        else [Path(p) for p in config.paths]
    result = LintResult(
        rules_run=[r for r in sorted(set(RULES) | set(PROJECT_RULES))
                   if config.rule_enabled(r)])

    # Phase 1: parse everything, build the whole-program index.
    contexts: Dict[str, FileContext] = {}
    for path, rel_path in discover_files(targets, config.root,
                                         config.exclude):
        ctx, error = load_context(path, rel_path)
        if ctx is None:
            result.errors.append(Violation(
                path=rel_path, line=1, col=0, rule=PARSE_ERROR,
                message=error or "unreadable"))
            continue
        result.files_checked += 1
        contexts[rel_path] = ctx
    index = ProjectIndex.build(list(contexts.values()),
                               cache_path=config.resolved_cache_path())
    result.index = index
    result.index_stats = {
        "files": len(index.files),
        "definitions": len(index.defs),
        "call_edges": sum(len(v) for v in index.edges.values()),
        "cache_hits": index.cache_hits,
        "cache_misses": index.cache_misses,
    }

    # Phase 2: per-file rules, then project rules over the index.
    for ctx in contexts.values():
        lint_file(ctx, config, result)
    lint_project(index, contexts, config, result)

    result.violations.sort()
    result.suppressed.sort()
    return result
