#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload rt-overlay-scr --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds perfbench/driver.cpp together with
the mflow libraries from src/ (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build), runs the driver for one workload, checks its
correctness verdicts, prints a human-readable line per metric (median,
quartiles, sample count, unit) and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("rt-overlay-scr", "rt-churn-lock", "des-mixed")
DRIVER = "perfbench_driver"
# The first run in a checkout compiles the program; every later one only
# checks that the build is current.
BUILD_DEADLINE_S = 700.0
# A driver that has not finished by then is stuck in an operation.
DRIVER_DEADLINE_S = 150.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no mflow sources under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", DRIVER])
    deadline = time.monotonic() + BUILD_DEADLINE_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
    return build_dir / DRIVER


def parse(lines):
    """The driver's records (see driver.cpp) as one report."""
    rep = {"samples": {}, "checks": {}, "attempted": 0, "failed": 0,
           "mouse_quantiles": {}, "mouse_count": 0}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "sample":
            name, value, ops = rest.split()
            rep["samples"].setdefault(name, []).append((float(value),
                                                        int(ops)))
        elif kind == "check":
            name, ok, detail = (rest.split(" ", 2) + [""])[:3]
            c = rep["checks"].setdefault(
                name, {"passed": 0, "failed": 0, "first_failure": ""})
            if ok == "1":
                c["passed"] += 1
            else:
                if not c["failed"]:
                    c["first_failure"] = detail
                c["failed"] += 1
        elif kind == "ops":
            attempted, failed = rest.split()
            rep["attempted"] += int(attempted)
            rep["failed"] += int(failed)
        elif kind == "mouse_latency_us":
            pct, value, count = rest.split()
            rep["mouse_quantiles"][float(pct)] = float(value)
            rep["mouse_count"] = int(count)
        else:
            raise ValueError(f"unknown driver record: {line!r}")
    return rep


def run_driver(driver, args):
    """Runs the driver; returns its report. An operation that never returns
    is reported as one more attempted and failed operation under the
    `run_finished` check."""
    cmd = [str(driver), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    limit = min(2 * args.seconds + 60, DRIVER_DEADLINE_S)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=limit)
        out, finished = proc.stdout, proc.returncode == 0
        if not finished:
            fail(f"driver exited {proc.returncode}")
    except subprocess.TimeoutExpired as e:
        out, finished = e.stdout or "", False
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    try:
        rep = parse(out.splitlines())
    except ValueError as e:
        fail(str(e))
    rep["checks"]["run_finished"] = {
        "passed": int(finished), "failed": int(not finished),
        "first_failure": "" if finished else
        f"driver still running after {limit} s"}
    if not finished:
        rep["attempted"] += 1
        rep["failed"] += 1
    return rep


def end_to_end(rep, spec):
    """Per-metric summaries for --trace 0."""
    out = {}
    for m in spec["end_to_end"]:
        values = [v for v, _ in rep["samples"][m["name"]]]
        out[m["name"]] = (stats.summarize(values), m["unit"])
    return out


def per_layer(rep, spec):
    """Per-layer values for --trace 1: the median of each metric's samples
    and the operations behind them. A metric of a layer the workload's path
    does not run through reports 0 with 0 operations."""
    values = {}
    for name, samples in rep["samples"].items():
        values[name] = (stats.summarize([v for v, _ in samples])["median"],
                        sum(ops for _, ops in samples))
    count = rep["mouse_count"]
    if count:
        quantiles = rep["mouse_quantiles"]
        tail = stats.tail_percentile(count)
        if tail is None:
            raise ValueError(f"only {count} mouse latency samples")
        values["des.sim.mouse_p50_us"] = (quantiles[50.0], count)
        values["des.sim.mouse_p99_us"] = (quantiles[tail], count)
        values["des.sim.mouse_tail_pct"] = (tail, count)
        if tail != 99.0:
            print(f"note: des.sim.mouse_p99_us reports p{tail:g}: p99 has "
                  f"fewer than {stats.MIN_BEYOND} samples beyond it")
    values["fail_frac"] = (stats.fail_frac(rep["attempted"], rep["failed"]),
                           rep["attempted"])
    return {m["name"]: (values.get(m["name"], (0.0, 0)), m["unit"])
            for m in spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec = load_spec()
    driver = build()
    rep = run_driver(driver, args)

    correct = rep["attempted"] > 0
    for name, c in rep["checks"].items():
        line = f"check {name}: {c['passed']} passed, {c['failed']} failed"
        if c["failed"]:
            line += f" (first: {c['first_failure']})"
            correct = False
        print(line)
    attempted = max(rep["attempted"], 1)
    print(f"fail_frac = {stats.fail_frac(attempted, rep['failed'])} "
          f"({rep['failed']} failed of {rep['attempted']} attempted)")

    # No figures are reported from a run whose outputs failed their checks.
    metrics = {}
    if correct and args.trace == 0:
        for name, (s, unit) in end_to_end(rep, spec).items():
            print(f"metric {name} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} n={s['n']} {unit}")
            metrics[name] = {"value": s["median"], "unit": unit}
    elif correct:
        for name, ((value, ops), unit) in per_layer(rep, spec).items():
            print(f"layer {name} = {value:.6g} {unit} (n={ops})")
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": rep["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
