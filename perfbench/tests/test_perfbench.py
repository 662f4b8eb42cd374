"""The benchmark's own tests, at tiny input sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from measure import run_unit
from spans import Counts, Hook, Instrumentation, Span, Tracer, self_times
from workloads import (WORKLOADS, CampaignWorkload, MirrorOverloadWorkload,
                       ProfileWorkload)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)


def test_counts_repeat_exactly_at_a_fixed_seed(tmp_path):
    workload = MirrorOverloadWorkload(5, tmp_path, tiny=True)
    first = run_unit(workload, 0, trace=True)
    second = run_unit(workload, 1, trace=True)
    assert first["counts"] == second["counts"]
    assert first["journal_sha"] == second["journal_sha"]
    assert first["counts"]["netsim.events"] > 0
    assert first["counts"]["capture.drops.mirror-egress"] > 0
    assert run.repeat_mismatches([first, second]) == {}
    second["counts"]["netsim.events"] += 1
    assert set(run.repeat_mismatches([first, second])) == {0, 1}


def test_different_seeds_give_different_inputs(tmp_path):
    a = MirrorOverloadWorkload(1, tmp_path, tiny=True).specs
    b = MirrorOverloadWorkload(2, tmp_path, tiny=True).specs
    assert a == MirrorOverloadWorkload(1, tmp_path, tiny=True).specs
    assert a != b
    campaign = [CampaignWorkload(seed, tmp_path).manifest for seed in (7, 1009)]
    assert campaign[0] != campaign[1]
    assert campaign[0] == CampaignWorkload(7, tmp_path).manifest


def _truncate_first_pcap(out: Path) -> None:
    pcap = sorted(out.glob("S/*.pcap"))[0]
    data = pcap.read_bytes()
    pcap.write_bytes(data[: len(data) // 2])


def _break_conservation(out: Path) -> None:
    journal = out / "journal.jsonl"
    lines = journal.read_text().splitlines()
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event["kind"] == "ledger":
            event["data"]["captured"] += 1
            lines[i] = json.dumps(event, sort_keys=True)
            break
    journal.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload_cls, tamper", [
    (MirrorOverloadWorkload, _truncate_first_pcap),
    (ProfileWorkload, _break_conservation),
])
def test_a_broken_output_fails_the_operation_and_the_command(
        tmp_path, workload_cls, tamper):
    workload = workload_cls(7, tmp_path, tiny=True)
    clean = run_unit(workload, 0, trace=False)
    broken = run_unit(workload, 1, trace=False, tamper=tamper)
    for unit in (clean, broken):
        unit["peak_rss_kb"] = 1
        unit["scale"] = 1.0
    assert run.summarize([clean, dict(clean)])["correct"] is True
    result = run.summarize([clean, broken])
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert any(reason for reason in broken["ops"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_a_missing_hook_reads_as_absent_and_the_rest_still_trace():
    tracer = Tracer("t")
    hooks = Instrumentation(tracer, Counts(), hooks=(
        Hook("repro.core.coordinator:Coordinator.no_such_method", "x"),
        Hook("repro.no_such_module:run", "x"),
        Hook("repro.obs.audit:audit_journal", "obs.audit"),
    ))
    hooks.install()
    try:
        import repro.obs.audit
        from repro.obs.journal import RunJournal
        repro.obs.audit.audit_journal(RunJournal())
    finally:
        hooks.uninstall()
    assert hooks.absent == ["repro.core.coordinator:Coordinator.no_such_method",
                            "repro.no_such_module:run"]
    assert [span.name for span in tracer.spans] == ["obs.audit"]
    assert not hasattr(repro.obs.audit.audit_journal, "__wrapped__")


def test_self_time_subtracts_children():
    root = Span("root", 0.0, 10.0)
    spans = [root, Span("a", 1.0, 5.0), Span("b", 2.0, 3.0),
             Span("c", 6.0, 9.0)]
    assert self_times(spans, root) == {"root": 3.0, "a": 3.0, "b": 1.0,
                                       "c": 3.0}
