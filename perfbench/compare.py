#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one set.

Each set is a directory (or file list) of saved run outputs: the standard
output of `python3 perfbench/run.py ...`, one run per file. Runs are grouped
by workload and by mode (untraced / traced).

  python3 perfbench/compare.py runs/parent            # spread of one set
  python3 perfbench/compare.py runs/parent runs/change

For every workload and end-to-end metric it prints each side's median and
quartiles, the spread (interquartile range over the median) and a verdict
under the metric's bound from BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound
  better      every change run beats every parent run, or the medians differ
              by more than the parent's own spread and the change wins at
              least nine tenths of the seed-matched pairs
  same        within the bound
  unresolved  either side's spread exceeds the bound, and the runs do not
              separate completely

Runs of the same seed on both sides must also compute the same thing: their
result digests, exact work counts and alpha-quality figures are compared and
any difference is printed as CHANGED (the system computes something else).
Traced runs are listed with their per-layer medians for reference.
Exits 1 when any metric is worse or any result CHANGED.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths):
    """Returns [(record, result)] for every run output under `paths`."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += [os.path.join(path, f) for f in sorted(os.listdir(path))]
        else:
            files.append(path)
    runs = []
    for name in files:
        record = result = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if "record" in doc:
                    record = doc["record"]
                elif "metrics" in doc:
                    result = doc
        if record is not None and result is not None:
            runs.append((record, result))
        else:
            print("skipping %s: no run record" % name, file=sys.stderr)
    return runs


def group(runs):
    out = {}
    for record, result in runs:
        key = (record["workload"], bool(record["trace"]))
        out.setdefault(key, []).append((record, result))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric, parent, change, pairs):
    """Verdict for one metric; `pairs` are seed-matched (parent, change)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    worse_by = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if not lower:
        worse_by = -worse_by
    beats = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    if all(beats(c, p) for c in change for p in parent):
        return "better"
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for p, c in pairs if beats(c, p))
    ties = sum(1 for p, c in pairs if c == p)
    decided = len(pairs) - ties
    if (-worse_by > spread(parent) and decided > 0
            and wins >= 0.9 * len(pairs)):
        return "better"
    return "same"


def exact_view(record):
    """What must not change between two runs of one seed."""
    quality = {k: v for k, v in record["params"].items()
               if k.startswith("quality.")}
    return {"digest": record["digest"], "counts": record["counts"],
            "quality": quality}


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    parent = group(load_runs([argv[1]]))
    change = group(load_runs([argv[2]])) if len(argv) == 3 else {}
    status = 0

    for (workload, traced) in sorted(set(parent) | set(change)):
        p_runs = parent.get((workload, traced), [])
        c_runs = change.get((workload, traced), [])
        mode = "traced" if traced else "untraced"
        print("== %s (%s): %d parent run(s), %d change run(s)"
              % (workload, mode, len(p_runs), len(c_runs)))
        names = e2e if not traced else sorted(
            {n for _, r in p_runs + c_runs for n in r["metrics"]})
        p_by_seed = {rec["seed"]: res for rec, res in p_runs}
        c_by_seed = {rec["seed"]: res for rec, res in c_runs}
        for name in names:
            p_vals = [r["metrics"][name]["value"] for _, r in p_runs
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for _, r in c_runs
                      if name in r["metrics"]]
            line = "  %-34s" % name
            for vals in (p_vals, c_vals):
                if vals:
                    q1, med, q3 = quartiles(vals)
                    line += ("  med %-11.5g q1 %-11.5g q3 %-11.5g "
                             "spread %-6.3f" % (med, q1, q3, spread(vals)))
            if not traced and p_vals and c_vals:
                pairs = [(p_by_seed[s]["metrics"][name]["value"],
                          c_by_seed[s]["metrics"][name]["value"])
                         for s in sorted(set(p_by_seed) & set(c_by_seed))]
                v = verdict(e2e[name], p_vals, c_vals, pairs)
                line += "  " + v
                if v == "worse":
                    status = 1
            elif not traced and p_vals and name in e2e:
                ok = spread(p_vals) <= e2e[name]["bound"]
                line += "  (bound %.3g: %s)" % (
                    e2e[name]["bound"], "steady" if ok else "TOO NOISY")
            print(line)
        p_exact = {rec["seed"]: exact_view(rec) for rec, _ in p_runs}
        for rec, _ in c_runs:
            before = p_exact.get(rec["seed"])
            if before is not None and before != exact_view(rec):
                print("  CHANGED: seed %s computes a different result"
                      % rec["seed"])
                status = 1
        failed = [rec["seed"] for rec, res in p_runs + c_runs
                  if not res["correct"] or res["failed"]]
        if failed:
            print("  runs with failed checks (seeds): %s" % failed)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
