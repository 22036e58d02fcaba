#!/usr/bin/env python3
"""Replay check for the popdb benchmark's seeded request streams.

Runs dmv_adhoc and tpch_mixed traced, twice on one seed and once on a
second seed, at the smallest stream size (--seconds 1: 1,100 reads), and
asserts that:

- every run verifies all its results (correct, no failures);
- within a run, the untraced first pass, the traced pass over the same
  stream and the in-process replay of that stream do exactly the same work;
- two runs on one seed agree exactly on work units and on the per-layer
  counts core.reopts_per_query, opt.candidates_per_query and
  txn.stats_folds_per_kwrite;
- the second seed sends a different stream;
- in the traced pass, no request has a layer span below zero (to the
  microsecond rounding of the span dump): the layer times of a request
  neither overlap nor add up to more than its latency.

Usage, from the repository root (builds like run.py; about four minutes
with the build):

    python3 perfbench/test_replay.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPEATED = ["core.reopts_per_query", "opt.candidates_per_query",
            "txn.stats_folds_per_kwrite"]


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check_spans(workload, lines):
    """Every layer span of every request must be >= 0: the benchmark's own
    count, and each span in the dump to its microsecond rounding."""
    negative = next(int(l.split()[1]) for l in lines if l.startswith("spans: "))
    if negative != 0:
        fail("%s: %d request(s) with a negative layer span:\n%s"
             % (workload, negative,
                "\n".join(l for l in lines if l.startswith("NEGATIVE SPAN"))))
    with open(os.path.join(BUILD, "trace_%s.json" % workload)) as f:
        events = json.load(f)
    requests = sum(1 for ev in events if ev["cat"] == "request")
    if requests == 0:
        fail("%s: no request spans in the trace" % workload)
    for ev in events:
        if ev["cat"] == "layer" and ev.get("dur", 0) < -1:
            fail("%s: request %s has a %s span of %d us"
                 % (workload, ev["args"]["req"], ev["name"], ev["dur"]))
    return requests


def run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s seed %d exited %d\n%s" % (workload, seed, proc.returncode,
                                           proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("%s seed %d: results not verified\n%s"
             % (workload, seed, proc.stdout[-3000:]))
    counts = next(json.loads(l[len("counts: "):]) for l in lines
                  if l.startswith("counts: "))
    if not (counts["first_pass_work_units"] == counts["traced_work_units"]
            == counts["replay_work_units"]):
        fail("%s seed %d: passes over one stream differ in work: %s"
             % (workload, seed, counts))
    spans = check_spans(workload, lines)
    got = {k: result["metrics"][k]["value"] for k in REPEATED}
    got["work_units"] = counts["work_units"]
    print("%s seed %d: %s (%d request spans, none negative)"
          % (workload, seed, got, spans))
    return got


def main():
    for workload in ["dmv_adhoc", "tpch_mixed"]:
        first = run(workload, 1)
        again = run(workload, 1)
        if first != again:
            fail("%s: two runs of seed 1 differ: %s vs %s"
                 % (workload, first, again))
        other = run(workload, 2)
        if other["work_units"] == first["work_units"]:
            fail("%s: seeds 1 and 2 did the same work; streams not seeded"
                 % workload)
    print("PASS")


if __name__ == "__main__":
    main()
