#!/usr/bin/env python3
"""Compare two bench-experiment JSON reports on their ops-based fields.

The experiment binaries (exp_correctness, exp_tiling, exp_banded,
exp_batch, exp_serve, exp_cache) emit reports mixing two kinds of
metrics: deterministic, seed-fixed *ops* counts (candidates, writes,
values, table hashes, traffic counters, parity flags) and
host-dependent *timing* figures (seconds, throughput, speedup ratios,
thread counts, and pass/fail flags derived from those ratios, such as
exp_batch's `batch_beats_or_matches_loop_on_parallel`). Only the ops
fields are reproducible on a loaded 1-CPU CI box, so the committed
`BENCH_*.json` baselines are diffed after recursively stripping the
timing keys.

Usage:
    diff_bench_ops.py BASELINE.json FRESH.json

Exits 0 when the ops fields match bit-for-bit, 1 with a unified diff of
the normalised documents otherwise.
"""

import difflib
import json
import sys

# Keys whose values depend on wall-clock time or host hardware rather
# than the fixed-seed workload. Everything else must reproduce exactly.
TIME_AND_HOST_KEYS = {
    "seconds",
    "cold_seconds",
    "hit_seconds",
    "warm_seconds",
    "throughput",
    "throughput_vs_loop",
    "serve_vs_batch",
    "host_threads",
    "batch_beats_or_matches_loop_on_parallel",
}


def strip(node):
    """Recursively drop time/host-dependent keys from a JSON document."""
    if isinstance(node, dict):
        return {
            key: strip(value)
            for key, value in node.items()
            if key not in TIME_AND_HOST_KEYS
        }
    if isinstance(node, list):
        return [strip(value) for value in node]
    return node


def normalised(path):
    with open(path) as handle:
        document = json.load(handle)
    return json.dumps(strip(document), indent=2, sort_keys=True)


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BASELINE.json FRESH.json")
    baseline_path, fresh_path = sys.argv[1], sys.argv[2]
    baseline = normalised(baseline_path)
    fresh = normalised(fresh_path)
    if baseline == fresh:
        print(f"ops fields match: {baseline_path} == {fresh_path}")
        return
    diff = difflib.unified_diff(
        baseline.splitlines(keepends=True),
        fresh.splitlines(keepends=True),
        fromfile=baseline_path,
        tofile=fresh_path,
    )
    sys.stdout.writelines(diff)
    sys.exit(f"ops fields diverged: {baseline_path} != {fresh_path}")


if __name__ == "__main__":
    main()
