#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sublinear-dp workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

It builds `perfbench/` (a Cargo package of its own that uses the library
as a path dependency) into $CARGO_TARGET_DIR (default `.bench_build`),
then drives the `perfbench` binary:

* `--trace 0`: a few cold set-up processes plus one untraced run; prints
  the end-to-end metrics of BENCHMARK.json.
* `--trace 1`: the traced replay; prints the per-layer metrics.

The last stdout line is one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it carries sample
counts, per-class latencies, exact counts and the host record. The exit
code is non-zero on a wrong answer, a count drift, a replay mismatch, or
a failed build (then no result line is printed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["solve-paper", "solve-wavefront", "serve-mixed"]
# Fresh processes that only set up, besides the measured run's own
# set-up; `setup_s` and `peak_rss_mb` are taken over all of them.
COLD_SETUPS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die("build failed (is this the root of a full checkout?)")
    binary = target_dir() / "release" / "perfbench"
    if not binary.is_file():
        die(f"build produced no {binary}")
    return binary


def invoke(binary, mode, args, extra=()):
    cmd = [str(binary), mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die(f"{mode} run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        die(f"{mode} run printed nothing (exit {done.returncode})", 1)
    return json.loads(lines[-1])


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def measure(binary, args):
    """One benchmark run; returns (info, result)."""
    end_to_end, per_layer = declared()
    if args.trace:
        spans = target_dir() / f"perfbench-spans-{args.workload}.jsonl"
        rep = invoke(binary, "trace", args, ["--spans", str(spans)])
        rep["spans_file"] = str(spans)
        names = per_layer
    else:
        cold = [invoke(binary, "setup", args) for _ in range(COLD_SETUPS)]
        rep = invoke(binary, "run", args)
        # Set-up time is a median; peak memory the lowest, since thread
        # timing in the allocator only ever adds to it.
        for key, pick in (("setup_s", statistics.median), ("peak_rss_mb", min)):
            values = [c[key] for c in cold] + [rep["metrics"][key]["value"]]
            rep["metrics"][key].update(value=pick(values), samples=len(values))
            rep[f"cold_{key}"] = values
        names = end_to_end
    got = rep["metrics"]
    if sorted(got) != sorted(names):
        die(f"metrics {sorted(set(got) ^ set(names))} disagree with BENCHMARK.json", 1)
    result = {
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {n: {"value": got[n]["value"], "unit": got[n]["unit"]} for n in names},
    }
    info = {k: v for k, v in rep.items() if k not in result}
    info["samples"] = {n: got[n]["samples"] for n in names}
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    return info, result


def table(info, result):
    rows = [(n, m["value"], m["unit"], info["samples"][n]) for n, m in result["metrics"].items()]
    rows += [(n, m["value"], m["unit"], m["samples"]) for n, m in info.get("detail", {}).items()]
    for name, value, unit, samples in rows:
        print(f"  {name:34} {value:>16.6g} {unit:6} n={samples}")
    for key, value in info.get("counts", {}).items():
        print(f"  {'count.' + key:34} {value:>16}")
    for msg in info.get("errors", []) + info.get("drifts", []):
        print(f"  ! {msg}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    binary = build()
    if args.workload != "all":
        info, result = measure(binary, args)
        print(json.dumps(info))
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            info, result = measure(binary, run)
            ok &= result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"tail={info.get('notes', {}).get('tail_percentile', '-')}")
            table(info, result)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
