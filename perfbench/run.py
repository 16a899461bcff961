"""The repo benchmark: host time per simulated workload, end to end and by layer.

Usage::

    python3 perfbench/run.py --workload psm-contention --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each timed run is a fresh interpreter (``perfbench/child.py``) that
imports ``repro``, builds the workload's world and runs it.  Runs repeat
until ``--seconds`` is spent; the result is the median over runs.
Between runs, on the same CPU, the fixed loop of ``calibrate.py`` is
timed, and each run's times are scaled by the mean of the loop times just
before and just after it to the reference host speed.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and ``cProfile``-traced runs and reports the
per-layer metrics.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

A run fails when its interpreter exits with an error, its behaviour
record differs from the shipped reference (or, for a seed without one,
from the first run of this invocation), or its playout QoS was not
maintained on a workload where it must hold.  A count that differs between runs of the same seed is a
fault of the benchmark or the program and makes the result incorrect.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, calibrate  # noqa: E402
from workloads import END_TO_END, LAYERS, WORKLOADS, per_layer_metrics  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
#: Fewest timed runs (untraced) or run pairs (traced) behind one result.
MIN_RUNS = {0: 3, 1: 1}
#: Wall-clock budget of one invocation; a child never outlives it.
DEADLINE_S = 170.0


class Child:
    """Outcome of one child interpreter: its JSON output or its error."""

    def __init__(self, out=None, error=None):
        self.out = out
        self.error = error


def run_child(workload, seed, traced, timeout_s):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return Child(error=f"timed out after {timeout_s:.0f} s")
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return Child(error=lines[-1] if lines else f"exit code {proc.returncode}")
    try:
        return Child(out=json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, ValueError):
        return Child(error="no JSON result")


def canonical(record):
    return json.dumps(record, sort_keys=True)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


class Judge:
    """Counts failures and faults across the runs of one invocation."""

    def __init__(self, reference_record, qos_held):
        self.expected = canonical(reference_record) if reference_record is not None else None
        self.qos_held = qos_held
        self.attempted = 0
        self.failed = 0
        self.faults = []
        self.first = {}

    def same(self, what, value):
        """Record ``value`` the first time; later runs must repeat it exactly."""
        first = self.first.setdefault(what, value)
        if first != value:
            self.faults.append(f"{what} differs between runs of one seed: {first} != {value}")

    def check(self, child):
        self.attempted += 1
        if child.error is not None:
            self.failed += 1
            print(f"run failed: {child.error}", file=sys.stderr)
            return
        out = child.out
        record = canonical(out["record"])
        ok = out["record"]["qos_maintained"] or not self.qos_held
        if self.expected is not None:
            ok = ok and record == self.expected
        else:
            self.same("behaviour record", record)
        self.same("world counts", out["counts"])
        trace = out.get("trace")
        if trace is not None:
            self.same("trace calls", (trace["calls"], trace["calls_in"]))
            if not trace["sum_ok"]:
                self.faults.append("layer self times do not sum to the profile total")
        if not ok:
            self.failed += 1
            print("run failed the behaviour check", file=sys.stderr)


def end_to_end(runs):
    """Medians over runs, with times scaled to the reference host speed."""
    return {
        "client_s_per_wall_s": median(
            [r["client_s"] / r["run_s"] * r["cal_s"] / REFERENCE_S for r in runs]
        ),
        "setup_s": median([r["setup_s"] * REFERENCE_S / r["cal_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }


def per_layer(pairs):
    """Per-layer metrics from (untraced, traced) run pairs."""
    traces = [t["trace"] for _, t in pairs]
    first = traces[0]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = median([t["self_s"][layer] for t in traces])
        values[f"{layer}.self_frac"] = median(
            [t["self_s"][layer] / t["total_s"] for t in traces]
        )
        values[f"{layer}.calls_in"] = first["calls_in"][layer]
    values.update(first["calls"])
    values.update(pairs[0][1]["counts"])
    # Each side is scaled by its own calibration: the two runs are seconds
    # apart, and the host's speed moves on that scale.
    values["trace.overhead"] = median(
        [
            (t["build_s"] + t["run_s"]) / t["cal_s"] / ((u["build_s"] + u["run_s"]) / u["cal_s"])
            for u, t in pairs
        ]
    )
    return values


def measure(workload, seed, seconds, trace, reference=None):
    """Run one workload for ``seconds`` and return the result object.

    ``reference`` maps seed (as a string) to the expected behaviour
    record; it defaults to the shipped reference of ``workload``.
    """
    if reference is None:
        reference = load_reference().get(workload, {})
    judge = Judge(reference.get(str(seed)), WORKLOADS[workload].qos_held)
    started = time.perf_counter()
    completed = []
    cycle_s = []
    cal_before = calibrate()
    while True:
        elapsed = time.perf_counter() - started
        enough = len(cycle_s) >= MIN_RUNS[trace]
        if enough and elapsed + median(cycle_s) > seconds:
            break
        if elapsed > DEADLINE_S / 2 and cycle_s:
            break
        begin = time.perf_counter()
        batch = []
        for traced in (False, True)[: 1 + trace]:
            child = run_child(workload, seed, traced, DEADLINE_S - elapsed)
            cal_after = calibrate()
            if child.out is not None:
                child.out["cal_s"] = (cal_before + cal_after) / 2
            cal_before = cal_after
            judge.check(child)
            batch.append(child)
        cycle_s.append(time.perf_counter() - begin)
        if all(child.out is not None for child in batch):
            completed.append([child.out for child in batch])
    if not completed:
        return None
    if trace:
        values = per_layer(completed)
        units = {name: unit for name, (unit, _) in per_layer_metrics().items()}
    else:
        values = end_to_end([untraced for untraced, in completed])
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    for fault in judge.faults:
        print(f"benchmark fault: {fault}", file=sys.stderr)
    return {
        "correct": judge.failed == 0 and not judge.faults,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"no repro package under {os.path.join('src', 'repro')}", file=sys.stderr)
        return 2
    # Byte-compile up front so the first timed import does not pay for it.
    compileall.compile_dir(package, quiet=1)
    # Runs and calibrations share one CPU: the host's speed varies per CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            print("every run failed; no metrics", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, args.seed, args.seconds, trace)
            if result is None:
                print(f"{workload}: every run failed; no metrics", file=sys.stderr)
                return 1
            print(json.dumps({"workload": workload, "trace": trace, **result}))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
