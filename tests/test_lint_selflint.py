"""The shipped tree must satisfy its own invariants.

This is the acceptance gate for the linter as a CI fixture: if a change
to ``src/repro`` introduces a wall-clock read, a hidden entropy source,
a ``time.sleep``, a cache-gated RNG draw, an impure journal field, a
silent broad except, or an off-taxonomy drop cause, this test fails
before the behavioral suites ever run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cli import main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def test_shipped_tree_is_lint_clean(capsys):
    assert main(["lint", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_shipped_tree_json_accounting(capsys):
    assert main(["lint", "--json", str(SRC)]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert document["violations"] == []
    assert document["files_checked"] > 50
    # Exemptions stay visible, not invisible: pipeline stage timings
    # (RL001), gather's in-memory tarfile buffer (RL008, landed via
    # atomic_write_bytes) and the name-fallback counters of ad-hoc
    # instances, NICs and slice requests (RL013) are pragma'd, never
    # silently dropped.
    assert len(document["suppressed"]) >= 1
    assert {entry["rule"] for entry in document["suppressed"]} == \
        {"RL001", "RL008", "RL013"}
    assert sorted(entry["path"].rsplit("/", 1)[-1]
                  for entry in document["suppressed"]
                  if entry["rule"] == "RL013") == \
        ["instance.py", "nic.py", "slice_model.py"]


def test_no_bytecode_tracked_in_git():
    proc = subprocess.run(
        ["git", "ls-files"], cwd=REPO, capture_output=True, text=True)
    if proc.returncode != 0:  # not a git checkout (e.g. sdist)
        return
    tracked = proc.stdout.splitlines()
    offenders = [p for p in tracked
                 if "__pycache__" in p or p.endswith((".pyc", ".pyo"))]
    assert offenders == [], f"bytecode committed to git: {offenders}"


def test_devtools_not_imported_by_runtime():
    """The linter is a dev tool: no runtime module may depend on it."""
    importers = []
    for path in SRC.rglob("*.py"):
        if "devtools" in path.parts or path.name == "cli.py":
            continue  # cli.py is the sanctioned (lazy) entry point
        if "repro.devtools" in path.read_text():
            importers.append(str(path.relative_to(REPO)))
    assert importers == [], f"runtime imports devtools: {importers}"
    # And importing the runtime package must not pull devtools in.
    probe = ("import sys, repro.cli; "
             "sys.exit(1 if any(m.startswith('repro.devtools') "
             "for m in sys.modules) else 0)")
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0
