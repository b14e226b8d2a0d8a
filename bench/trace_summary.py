#!/usr/bin/env python3
"""Aggregate a performa trace_event JSONL trace into per-span statistics.

The obs layer writes Chrome trace_event files: a `[` header line, then
one complete-duration (`ph:"X"`) record per line, each line terminated
with a comma, closing `]` optional (a SIGKILLed process still leaves a
loadable file). This tool folds such a trace -- including the records
the workers of a parallel sweep append to it -- into a per-span-name
table: count, total/mean/percentile wall time, total CPU time, and the
number of distinct processes that recorded the span.

Usage:
    trace_summary.py TRACE.jsonl [--csv] [--sort total|mean|count|name]
    trace_summary.py selftest

stdlib only; no third-party dependencies.
"""

import json
import math
import os
import sys


def parse_trace_lines(lines):
    """Yield trace_event record dicts from JSONL lines.

    Skips the array brackets and anything structurally torn (a short
    write, on a full disk, can leave one partial line).
    """
    for line in lines:
        line = line.strip()
        if not line or line in ("[", "]"):
            continue
        if line.endswith(","):
            line = line[:-1]
        if not (line.startswith("{") and line.endswith("}")):
            continue  # torn tail
        try:
            record = json.loads(line)
        except ValueError:
            continue  # damaged record: skip, do not abort the summary
        if record.get("ph") == "X":
            yield record


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(records):
    """Fold records into {name: stats} with durations in milliseconds."""
    spans = {}
    for rec in records:
        name = rec.get("name", "?")
        entry = spans.setdefault(
            name, {"durs_us": [], "cpu_us": 0.0, "pids": set()}
        )
        entry["durs_us"].append(float(rec.get("dur", 0.0)))
        entry["cpu_us"] += float(rec.get("args", {}).get("cpu_us", 0.0))
        entry["pids"].add(rec.get("pid", 0))

    table = []
    for name, entry in spans.items():
        durs = sorted(entry["durs_us"])
        total_us = sum(durs)
        table.append(
            {
                "name": name,
                "count": len(durs),
                "total_ms": total_us / 1e3,
                "mean_ms": total_us / len(durs) / 1e3,
                "p50_ms": percentile(durs, 0.50) / 1e3,
                "p90_ms": percentile(durs, 0.90) / 1e3,
                "p99_ms": percentile(durs, 0.99) / 1e3,
                "cpu_ms": entry["cpu_us"] / 1e3,
                "pids": len(entry["pids"]),
            }
        )
    return table


COLUMNS = ("name", "count", "total_ms", "mean_ms", "p50_ms", "p90_ms",
           "p99_ms", "cpu_ms", "pids")


def render(table, sort_key="total_ms", csv=False):
    rows = sorted(
        table,
        key=lambda r: r[sort_key],
        reverse=sort_key != "name",
    )
    out = []
    if csv:
        out.append(",".join(COLUMNS))
        for r in rows:
            out.append(",".join(
                r["name"] if c == "name"
                else str(r[c]) if c in ("count", "pids")
                else "%.3f" % r[c]
                for c in COLUMNS
            ))
    else:
        out.append("%-28s %8s %12s %10s %10s %10s %10s %12s %5s" % (
            "span", "count", "total_ms", "mean_ms", "p50_ms", "p90_ms",
            "p99_ms", "cpu_ms", "pids"))
        for r in rows:
            out.append(
                "%-28s %8d %12.3f %10.3f %10.3f %10.3f %10.3f %12.3f %5d"
                % (r["name"], r["count"], r["total_ms"], r["mean_ms"],
                   r["p50_ms"], r["p90_ms"], r["p99_ms"], r["cpu_ms"],
                   r["pids"]))
    return "\n".join(out)


def selftest():
    """Verify parsing, torn-tail tolerance, and the aggregation math."""
    lines = [
        "[",
        '{"name":"a","cat":"performa","ph":"X","ts":0,"dur":1000.0,'
        '"pid":1,"tid":1,"args":{"cpu_us":800.0}},',
        '{"name":"a","cat":"performa","ph":"X","ts":5,"dur":3000.0,'
        '"pid":2,"tid":2,"args":{"cpu_us":2500.0}},',
        '{"name":"b","cat":"performa","ph":"X","ts":9,"dur":500.0,'
        '"pid":1,"tid":1,"args":{"cpu_us":100.0}},',
        # Metadata-style record with a different phase: must be ignored.
        '{"name":"meta","ph":"M","pid":1},',
        # Torn tail, as left by a SIGKILLed worker mid-write.
        '{"name":"torn","ph":"X","pi',
    ]
    table = summarize(parse_trace_lines(lines))
    by_name = {r["name"]: r for r in table}

    assert set(by_name) == {"a", "b"}, by_name
    a = by_name["a"]
    assert a["count"] == 2, a
    assert abs(a["total_ms"] - 4.0) < 1e-9, a
    assert abs(a["mean_ms"] - 2.0) < 1e-9, a
    assert abs(a["p50_ms"] - 1.0) < 1e-9, a  # nearest-rank: first of two
    assert abs(a["p99_ms"] - 3.0) < 1e-9, a
    assert abs(a["cpu_ms"] - 3.3) < 1e-9, a
    assert a["pids"] == 2, a
    b = by_name["b"]
    assert b["count"] == 1 and b["pids"] == 1, b

    # Sorting: 'a' dominates by total, 'b' comes first by name.
    text = render(table, sort_key="total_ms")
    lines_out = text.splitlines()
    assert lines_out[1].startswith("a "), text
    csv_text = render(table, sort_key="name", csv=True)
    assert csv_text.splitlines()[0] == ",".join(COLUMNS), csv_text
    assert csv_text.splitlines()[1].startswith("a,2,4.000"), csv_text

    # Empty / header-only traces summarize to an empty table.
    assert summarize(parse_trace_lines(["[", "]"])) == []
    print("trace_summary selftest: ok")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "selftest":
        return selftest()
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    csv = "--csv" in opts
    sort_key = "total_ms"
    for opt in opts:
        if opt.startswith("--sort="):
            key = opt.split("=", 1)[1]
            mapping = {"total": "total_ms", "mean": "mean_ms",
                       "count": "count", "name": "name"}
            if key not in mapping:
                sys.stderr.write("unknown sort key: %s\n" % key)
                return 2
            sort_key = mapping[key]
        elif opt not in ("--csv",):
            sys.stderr.write("unknown option: %s\n" % opt)
            return 2
    try:
        with open(args[0], "r") as fh:
            table = summarize(parse_trace_lines(fh))
    except OSError as e:
        sys.stderr.write("trace_summary: %s\n" % e)
        return 1
    print(render(table, sort_key=sort_key, csv=csv))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:  # e.g. `trace_summary.py t.jsonl | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(128 + 13)  # die as SIGPIPE would have us die
