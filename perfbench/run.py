"""One-command benchmark of a Patchwork profiling occasion.

Run from the root of a checkout::

    python3 perfbench/run.py --workload profile --seed 1 --seconds 30 --trace 0

Workloads: ``profile``, ``campaign``, ``mirror-overload`` (see
``perfbench/README.md``).  Every unit of the workload runs in a fresh
child process (``measure.py``).  This parent decides how many units fit
in ``--seconds``, checks every unit's outputs and the repeat of its
counts, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in
``BENCHMARK.json``, with the units it names; with ``--trace 1`` the
per-layer ones, from one untraced unit and two traced units.

The end-to-end times are scaled to a reference machine speed.  On a
shared host (measured: a 2-vCPU Xeon VM) the same process runs up to
1.7 times slower for minutes at a time when its neighbours are busy,
which no amount of repetition inside one run can average away.  So every
child also times a fixed calibration loop that runs none of the
program's code (``measure.calibration_loop``), ten times before its
unit and ten after, and its unit's wall, CPU and set-up times are
multiplied by ``REFERENCE_CALIBRATION_S`` over the median of those
twenty.  A change to the program moves the unit times and not the
calibration, so it shows in full.  Per-layer times are not scaled.

The exit code is 0 only when every check passed.  Outside a checkout holding ``src/repro`` the command
exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("profile", "campaign", "mirror-overload")
#: Workloads whose units are checked against a reference run first.
REFERENCE_WORKLOADS = ("campaign",)
MIN_UNITS = 2
TRACED_UNITS = 2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
#: The calibration loop's time at the reference machine speed: a 2-vCPU
#: Xeon VM whose host is quiet.
REFERENCE_CALIBRATION_S = 0.016

class ChildFailed(RuntimeError):
    pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="One-command benchmark of a Patchwork occasion.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    child = Child(root, work, args)
    try:
        result, setups = measure(child, args)
        values = result["metrics"]
        result["metrics"] = {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in spec["per_layer" if args.trace else "end_to_end"]}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(result['walls'])} units, "
          f"walls {', '.join(f'{w:.3f}' for w in result['walls'])} s; "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"speed scales {', '.join(f'{s:.3f}' for s in result['scales'])}",
          file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


def measure(child: "Child", args) -> tuple:
    reference_sha = ""
    baseline = None
    if args.workload in REFERENCE_WORKLOADS:
        reference = child.run(reference=True)
        reference_sha = reference["reference_sha"]
        baseline = reference["wall_s"]
    units: List[Dict] = []
    setups: List[float] = []
    if args.trace:
        if baseline is None:
            # Untraced baseline for the tracing overhead; the campaign's
            # serial reference (the path the traced units take) is one.
            units.append(child.run(index=0, reference_sha=reference_sha))
            baseline = units[0]["wall_s"]
        for _ in range(TRACED_UNITS):
            units.append(child.run(index=len(units), trace=True,
                                   reference_sha=reference_sha))
    else:
        started = time.monotonic()
        while True:
            units.append(child.run(index=len(units),
                                   reference_sha=reference_sha))
            elapsed = time.monotonic() - started
            typical = elapsed / len(units)
            if len(units) >= MIN_UNITS and elapsed + typical > args.seconds:
                break
    setups = [unit["setup_s"] * unit["scale"] for unit in units]
    while len(setups) < SETUP_SAMPLES:
        probe = child.run(probe=True)
        setups.append(probe["setup_s"] * probe["scale"])
    result = summarize(units)
    if args.trace:
        result["metrics"] = trace_metrics(units, baseline, result, args)
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result, setups


def summarize(units: List[Dict]) -> Dict:
    """Verdict and end-to-end values over the units of one invocation;
    each unit's times are scaled by its ``scale`` (see the module doc)."""
    mismatched = repeat_mismatches(units)
    attempted = failed = 0
    problems: List[str] = []
    for index, unit in enumerate(units):
        problems.extend(unit["problems"])
        for op, reason in sorted(unit["ops"].items()):
            attempted += 1
            if reason is None and index in mismatched:
                reason = f"{op}: counts or journal differ between runs"
            if reason is None and unit["problems"]:
                reason = f"{op}: its run failed a check"
            if reason is not None:
                failed += 1
                problems.append(reason)
    problems.extend(f"unit {i}: {why}" for i, why in sorted(mismatched.items()))
    verdicts = [match for unit in units
                for matches in unit["verdicts"].values() for match in matches]
    walls = [unit["wall_s"] * unit["scale"] for unit in units]
    return {
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "problems": sorted(set(problems)),
        "walls": walls,
        "scales": [unit["scale"] for unit in units],
        "metrics": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(unit["cpu_s"] * unit["scale"]
                                       for unit in units),
            "captured_frames_per_s": statistics.median(
                unit["captured_frames"] / wall
                for unit, wall in zip(units, walls)),
            "peak_rss_mb": max(unit["peak_rss_kb"] for unit in units) / 1024.0,
            "detector_accuracy": sum(verdicts) / max(len(verdicts), 1),
        },
    }


def repeat_mismatches(units: List[Dict]) -> Dict[int, str]:
    """Units whose journal sha differs from the first unit's, or whose
    counts differ from the first unit of the same mode (traced units
    carry more counts than untraced ones)."""
    mismatched: Dict[int, str] = {}
    first: Dict[frozenset, int] = {}
    for index, unit in enumerate(units):
        counts = unit["counts"]
        reference = first.setdefault(frozenset(counts), index)
        diff = sorted(name for name in counts
                      if counts[name] != units[reference]["counts"][name])
        if unit["journal_sha"] != units[0]["journal_sha"]:
            reference = 0
            diff.append("journal sha")
        if diff:
            why = "differs from the first run: " + ", ".join(diff)
            mismatched[index] = why
            # The run it was compared with cannot be trusted either.
            mismatched.setdefault(reference, why)
    return mismatched


def trace_metrics(units: List[Dict], baseline: float, result: Dict,
                  args) -> Dict:
    traced = [unit for unit in units if "layers" in unit]
    values = {name: statistics.median(unit["layers"][name] for unit in traced)
              for name in traced[0]["layers"]}
    values["trace.untraced_wall_s"] = baseline
    values["trace.overhead_s"] = values["trace.wall_s"] - baseline
    values["trace.overhead_share"] = values["trace.overhead_s"] / baseline
    absent = sorted({hook for unit in traced for hook in unit["absent_hooks"]})
    values["trace.absent_hooks"] = len(absent)
    values["failed_share"] = result["failed"] / result["attempted"]
    if absent:
        print("absent hooks: " + ", ".join(absent), file=sys.stderr)
    trace_path = Path.cwd() / ".perfbench" / \
        f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(json.dumps(
        {"spans": [span for unit in traced for span in unit["spans"]],
         "absent_hooks": absent}) + "\n")
    return values


class Child:
    """Starts ``measure.py`` in a fresh interpreter per unit."""

    def __init__(self, root: Path, work: Path, args) -> None:
        self.root = root
        self.work = work
        self.args = args
        self.runs = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))

    def run(self, index: int = 0, trace: bool = False, probe: bool = False,
            reference: bool = False, reference_sha: str = "") -> Dict:
        """Returns the child's result plus ``setup_s``, process start to
        the first call into the program, and ``scale``, the factor that
        brings its times to the reference machine speed."""
        self.runs += 1
        result_path = self.work / f"child{self.runs}.json"
        log = self.work / f"child{self.runs}.log"
        args = self.args
        command = [sys.executable, str(HERE / "measure.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--index", str(index), "--trace", str(int(trace)),
                   "--work", str(self.work), "--result", str(result_path),
                   "--reference-sha", reference_sha]
        command += ["--tiny"] if args.tiny else []
        command += ["--probe"] if probe else []
        command += ["--reference"] if reference else []
        with open(log, "wb") as output:
            started = time.monotonic()
            process = subprocess.Popen(command, cwd=self.root, env=self.env,
                                       stdout=output, stderr=subprocess.STDOUT)
            try:
                code = process.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise ChildFailed(f"{args.workload} unit did not finish in "
                                  f"{CHILD_TIMEOUT_S:.0f} s")
        if code != 0 or not result_path.exists():
            tail = log.read_text(errors="replace")[-4000:]
            raise ChildFailed(f"{args.workload} child exited {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result.pop("ready") - started
        result["scale"] = REFERENCE_CALIBRATION_S / result["calibration_s"]
        for leftover in (f"unit{index}", "reference"):
            shutil.rmtree(self.work / leftover, ignore_errors=True)
        return result


if __name__ == "__main__":
    sys.exit(main())
