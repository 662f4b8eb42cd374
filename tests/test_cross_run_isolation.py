"""Cross-run isolation: no process-global state leaks between runs.

Seed A, then seed B, then seed A again, all in one process: the third
run's journal and every pcap must match a fresh-process run of seed A
byte for byte.  This is what a test session, a reused shard-pool worker
or the serial campaign path does.  A class-level cache or a module-level
counter that reaches the output (the flow-id counter once patched the
ICMP echo identifier of every run after the first) fails it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main

SEED_A, SEED_B = 7, 1009
# Small enough to run in seconds; large enough that ICMP flows (whose
# echo identifier is the flow id) reach the pcaps at seed A.
ARGS = ["--sites", "STAR", "MICH", "--scale", "0.01", "--cycles", "1",
        "--samples", "1", "--instances", "1"]


def profile_argv(seed: int, out: Path):
    return ["profile", "--seed", str(seed), "--out", str(out), *ARGS]


def output_digests(out: Path):
    """sha256 of the journal and of every pcap, by relative path."""
    files = [out / "journal.jsonl", *sorted(out.rglob("*.pcap"))]
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files}


def test_repeated_seed_matches_a_fresh_process(tmp_path, capsys):
    for index, seed in enumerate((SEED_A, SEED_B, SEED_A)):
        assert main(profile_argv(seed, tmp_path / f"run{index}")) == 0
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "repro.cli", *profile_argv(SEED_A, fresh)],
                   check=True, env=env, capture_output=True)
    expected = output_digests(fresh)
    assert len(expected) > 1  # the journal plus at least one pcap
    assert output_digests(tmp_path / "run2") == expected
    # The first run already was a fresh world; the second seed differs.
    assert output_digests(tmp_path / "run0") == expected
    assert output_digests(tmp_path / "run1") != expected
