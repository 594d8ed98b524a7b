#!/usr/bin/env python3
"""Validate a pardp telemetry event log (`--log <path|->`) line by line.

The telemetry stream is JSONL: one flat object per event, each carrying
an `event` name and a `seq` number. This checker enforces the schema
documented on `pardp_core::telemetry`:

  * every line that looks like an event (starts with `{`) parses as a
    single JSON object with a known `event` name;
  * each event carries exactly the required fields of its kind, in
    order (`event`, `seq`, then the fields as `SCHEMAS` lists them),
    with the right JSON types and enumerated values (`regime`,
    `outcome`);
  * `seq` starts at 0 and increases by exactly 1 — the stream is
    gap-free and in delivery order;
  * per job, worker events follow the documented lifecycle:
    `admitted` first, then `regime`, then optional `fault` lines, then
    either `cache` and one terminal — `completed`, or `rejected` with
    kind `invalid` (a failed Knuth guard) — when the solve returned, or
    a lone `panic` / `timeout` when it did not; or a lone `rejected` for
    a request that never ran;
  * a `summary` event agrees with the events before it: `accepted` is
    the number of `admitted` events, `completed` the number of `regime`
    events (`completed_small` / `completed_large` split by regime),
    `panics` / `timeouts` the `panic` / `timeout` events, `cache_hits`
    the `cache` events with outcome `hit`, `cache_misses` those with
    `miss` or `warm`, `warm_starts` those with `warm`, `deduped` those
    with `dedup`, and `invalid` / `rejected` the lone `rejected` events
    of kind `invalid` / of any other kind. `cache_errors` has no event
    and is not checked.

Non-event lines (the human-readable drain line on stderr, blank lines)
are skipped, so the checker can be pointed at a raw `2>` capture of
`pardp serve --pipe --log -`.

Usage:
    check_events.py EVENTS.log

Exits 0 when every event validates, 1 with a per-line complaint
otherwise.
"""

import json
import sys
from collections import Counter

# event name -> {field: type}; `seq` is checked globally.
SCHEMAS = {
    "conn_open": {},
    "conn_close": {},
    "admitted": {"job": int},
    "rejected": {"job": int, "kind": str},
    "regime": {"job": int, "regime": str},
    "cache": {"job": int, "outcome": str},
    "fault": {"job": int, "site": str},
    "panic": {"job": int},
    "timeout": {"job": int},
    "completed": {"job": int, "wall_us": int, "value": int},
    "summary": {
        "accepted": int,
        "rejected": int,
        "invalid": int,
        "completed": int,
        "completed_small": int,
        "completed_large": int,
        "panics": int,
        "timeouts": int,
        "cache_hits": int,
        "cache_misses": int,
        "warm_starts": int,
        "cache_errors": int,
        "deduped": int,
    },
}

REGIMES = {"small", "large"}
OUTCOMES = {"hit", "warm", "miss", "bypass", "dedup"}
ERROR_KINDS = {"invalid", "rejected", "overloaded", "timeout", "internal"}
TERMINALS = {"completed", "panic", "timeout"}


def fail(lineno, message):
    sys.exit(f"line {lineno}: {message}")


def check_fields(lineno, event, obj):
    schema = SCHEMAS[event]
    expected = set(schema) | {"event", "seq"}
    actual = set(obj)
    if actual != expected:
        missing = sorted(expected - actual)
        extra = sorted(actual - expected)
        fail(lineno, f"{event}: missing fields {missing}, unexpected {extra}")
    order = ["event", "seq", *schema]
    if list(obj) != order:
        fail(lineno, f"{event}: fields in order {list(obj)}, expected {order}")
    for field, kind in schema.items():
        value = obj[field]
        # bool is an int subclass in Python; reject it explicitly.
        if not isinstance(value, kind) or isinstance(value, bool):
            fail(lineno, f"{event}.{field}: expected {kind.__name__}, got {value!r}")
        if kind is int and value < 0:
            fail(lineno, f"{event}.{field}: negative count {value}")
    if event == "regime" and obj["regime"] not in REGIMES:
        fail(lineno, f"unknown regime {obj['regime']!r}")
    if event == "cache" and obj["outcome"] not in OUTCOMES:
        fail(lineno, f"unknown cache outcome {obj['outcome']!r}")
    if event == "rejected" and obj["kind"] not in ERROR_KINDS:
        fail(lineno, f"unknown error kind {obj['kind']!r}")


def check_lifecycle(lineno, event, obj, jobs):
    """Advance the per-job state machine: admitted -> regime -> fault*,
    then cache -> (completed | rejected[invalid]) or panic | timeout. A
    `rejected` line is terminal wherever it lands (before or instead of
    the worker's chain)."""
    if "job" not in obj:
        return
    job = obj["job"]
    state = jobs.get(job, "new")
    if state in TERMINALS or state == "rejected":
        fail(lineno, f"job {job}: event {event!r} after terminal {state!r}")
    allowed = {
        "new": {"admitted", "rejected"},
        "admitted": {"regime", "rejected"},
        "regime": {"fault", "cache", "panic", "timeout"},
        "fault": {"fault", "cache", "panic", "timeout"},
        "cache": {"completed", "rejected"},
    }[state]
    if event not in allowed:
        fail(lineno, f"job {job}: event {event!r} in state {state!r}")
    if state == "cache" and event == "rejected" and obj["kind"] != "invalid":
        fail(lineno, f"job {job}: rejected after cache has kind {obj['kind']!r}, expected 'invalid'")
    jobs[job] = event


def count_event(event, obj, prior, seen):
    """Tally what the per-job events show; `prior` is the job's state
    before this event ("new" for a request that has not been admitted)."""
    if event == "regime":
        seen["regime_" + obj["regime"]] += 1
    elif event == "cache":
        seen["cache_" + obj["outcome"]] += 1
    elif event == "rejected" and prior == "new":
        seen["lone_invalid" if obj["kind"] == "invalid" else "lone_rejected"] += 1
    elif event in ("admitted", "panic", "timeout"):
        seen[event] += 1


def check_summary(lineno, obj, seen):
    small, large = seen["regime_small"], seen["regime_large"]
    expected = {
        "accepted": seen["admitted"],
        "completed": small + large,
        "completed_small": small,
        "completed_large": large,
        "panics": seen["panic"],
        "timeouts": seen["timeout"],
        "cache_hits": seen["cache_hit"],
        "cache_misses": seen["cache_miss"] + seen["cache_warm"],
        "warm_starts": seen["cache_warm"],
        "deduped": seen["cache_dedup"],
        "invalid": seen["lone_invalid"],
        "rejected": seen["lone_rejected"],
    }
    for field, want in expected.items():
        if obj[field] != want:
            fail(lineno, f"summary.{field} is {obj[field]}, the stream's events show {want}")


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} EVENTS.log")
    expected_seq = 0
    events = 0
    jobs = {}
    seen = Counter()
    with open(sys.argv[1]) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line.startswith("{"):
                continue  # human-readable stderr lines interleave freely
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                fail(lineno, f"bad JSON: {error}")
            if not isinstance(obj, dict) or "event" not in obj:
                continue  # a protocol response, not an event
            event = obj["event"]
            if event not in SCHEMAS:
                fail(lineno, f"unknown event {event!r}")
            if obj.get("seq") != expected_seq:
                fail(lineno, f"seq {obj.get('seq')!r}, expected {expected_seq}")
            expected_seq += 1
            events += 1
            check_fields(lineno, event, obj)
            if event == "summary":
                check_summary(lineno, obj, seen)
            count_event(event, obj, jobs.get(obj.get("job"), "new"), seen)
            check_lifecycle(lineno, event, obj, jobs)
    unfinished = sorted(
        job for job, state in jobs.items() if state not in TERMINALS and state != "rejected"
    )
    if unfinished:
        sys.exit(f"jobs without a terminal event: {unfinished}")
    print(f"ok: {events} events, {len(jobs)} jobs, all chains complete")


if __name__ == "__main__":
    main()
