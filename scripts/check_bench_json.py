#!/usr/bin/env python3
"""Validate a USK_BENCH_JSON results file (JSON-lines).

Every bench binary appends one record per measurement when USK_BENCH_JSON
is set:

    USK_BENCH_JSON=/tmp/bench.jsonl ./build/bench/bench_readdirplus
    scripts/check_bench_json.py /tmp/bench.jsonl

Each non-empty line must be a JSON object with exactly these keys:

  bench   str     the bench binary that wrote it
  metric  str     what was measured; a sweep puts its parameter in the
                  name ("ring-scale-2w", "commits-per-flush-8w")
  value   number  finite, in its own unit: ns stay ns, a ratio a ratio
  unit    str     one of UNITS below
  better  str     "higher" or "lower"

A repeatable --expect <bench> flag additionally fails the check when a
named bench contributed no records -- so CI catches a bench binary that
silently stopped emitting (crashed early, lost its JsonWriter wiring)
even though every surviving line still validates.

Repeatable --expect-max / --expect-min <bench>:<metric>:<bound> flags
turn a recorded value into an acceptance threshold, checked against
every matching record's value:

    scripts/check_bench_json.py --expect bench_ring \\
        --expect-max 'bench_ring:crossings-ring-b8-2w:0.5' \\
        --expect-min 'bench_ring:crossing-ratio-plain-over-ring-2w:4.0' \\
        /tmp/bench.jsonl

A threshold spec whose (bench, metric) matches no record is itself a
failure: a silently missing metric must not pass the gate.

Exit status: 0 if the whole file validates, 1 otherwise (each problem is
reported), 2 on a usage error. Stdlib only.
"""

import json
import math
import sys

# BENCHMARK.json's unit vocabulary, plus "%" for the percentage gates.
UNITS = {"ops/s", "s", "ns", "us", "B", "MiB", "count", "ratio",
         "fraction", "units", "%"}
BETTER = {"higher", "lower"}
KEYS = {"bench": str, "metric": str, "value": (int, float), "unit": str,
        "better": str}


def check_record(obj, where, errors):
    """Append `obj`'s problems to `errors`; True when it has none."""
    if not isinstance(obj, dict):
        errors.append(f"{where}: not a JSON object")
        return False
    before = len(errors)
    for key, typ in KEYS.items():
        if key not in obj:
            errors.append(f"{where}: missing key '{key}'")
        # bool is an int subclass; reject it explicitly.
        elif isinstance(obj[key], bool) or not isinstance(obj[key], typ):
            errors.append(f"{where}: key '{key}' has type "
                          f"{type(obj[key]).__name__}")
    unknown = set(obj) - set(KEYS)
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)}")
    if len(errors) > before:
        return False
    if obj["unit"] not in UNITS:
        errors.append(f"{where}: unit '{obj['unit']}' not in {sorted(UNITS)}")
    if obj["better"] not in BETTER:
        errors.append(f"{where}: better '{obj['better']}' is not "
                      "'higher' or 'lower'")
    if not math.isfinite(obj["value"]):
        errors.append(f"{where}: value {obj['value']} is not finite")
    return len(errors) == before


def parse_threshold(spec):
    """Split '<bench>:<metric>:<bound>': the bench name has no ':', the
    bound is after the last one."""
    head, sep, bound = spec.rpartition(":")
    bench, sep2, metric = head.partition(":")
    if not sep or not sep2 or not bench or not metric:
        return None
    try:
        return bench, metric, float(bound)
    except ValueError:
        return None


def main(argv):
    expected = []
    expect_max = []  # (bench, metric, bound)
    expect_min = []
    args = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--expect":
            name = next(it, None)
            if name is None:
                print("error: --expect needs a bench name", file=sys.stderr)
                return 2
            expected.append(name)
        elif arg in ("--expect-max", "--expect-min"):
            spec = next(it, None)
            parsed = parse_threshold(spec) if spec is not None else None
            if parsed is None:
                print(f"error: {arg} needs <bench>:<metric>:<number>",
                      file=sys.stderr)
                return 2
            (expect_max if arg == "--expect-max" else expect_min).append(parsed)
        else:
            args.append(arg)
    if len(args) != 1:
        print(
            f"usage: {argv[0]} [--expect <bench>]... "
            "[--expect-max <bench>:<metric>:<bound>]... "
            "[--expect-min <bench>:<metric>:<bound>]... <bench.jsonl>",
            file=sys.stderr,
        )
        return 2
    errors = []
    records = 0
    benches = set()
    values = {}  # (bench, metric) -> [value, ...]
    try:
        with open(args[0], encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    errors.append(f"line {lineno}: invalid JSON: {e}")
                    continue
                records += 1
                if check_record(obj, f"line {lineno}", errors):
                    benches.add(obj["bench"])
                    key = (obj["bench"], obj["metric"])
                    values.setdefault(key, []).append(float(obj["value"]))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for name in expected:
        if name not in benches:
            errors.append(f"expected bench '{name}' has no records")
    for checks, op, word in (
        (expect_max, lambda v, b: v <= b, "<="),
        (expect_min, lambda v, b: v >= b, ">="),
    ):
        for bench, metric, bound in checks:
            got = values.get((bench, metric))
            if not got:
                errors.append(f"threshold {bench}:{metric}: no matching "
                              "records")
                continue
            for v in got:
                if not op(v, bound):
                    errors.append(f"threshold {bench}:{metric}: value {v:g} "
                                  f"not {word} {bound:g}")
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"FAIL: {len(errors)} problem(s) in {records} record(s)",
              file=sys.stderr)
        return 1
    print(f"OK: {records} record(s) from {len(benches)} bench(es)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
