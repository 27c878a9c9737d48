#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Each set is one or more files or directories holding what the benchmark
printed (a directory is read file by file). A run is a result line (the
last line a run prints) together with the record line before it, which
names the workload.

    python3 stackbench/compare.py --base parent/ --change change/

For every (metric, workload) pair it prints both sides' median and
quartiles, how many run pairs the change won, and a verdict that follows
the choosing-metrics rule for small sandboxes:

  improved    the change won at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the base's own
              quartile distance, in the metric's better direction;
  worse       the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the base's own quartile distance is wider than the bound
              and not every change run beats every base run, or fewer
              than 10 pairs were run, or the change failed more operations;
  unchanged   otherwise.

Per-layer metrics (traced runs) and the per-call latencies of the run
record have no bound; they get "improved", "worse" (the same 9-in-10 rule
in the other direction) or "unchanged", and are marked "info".
Pairs are formed in run order: the i-th base run of a workload with the
i-th change run of the same workload.
"""

import argparse
import json
import os
import re
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
PER_CALL = re.compile(r"^rep_((get|batch|insert|scan)_p(50|99|999)_us)$")


def read_runs(paths):
    """Return {(workload, trace): [run, ...]}; a run is {metric: value} plus '_failed'."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, f) for f in sorted(os.listdir(p))]
        else:
            files.append(p)
    runs = {}
    for f in files:
        record = None
        with open(f, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "record" in obj:
                    record = obj["record"]
                elif "metrics" in obj and record is not None:
                    if not obj.get("correct"):
                        sys.exit(f"{f}: a run with wrong answers cannot be compared")
                    run = {k: v["value"] for k, v in obj["metrics"].items()}
                    run["_failed"] = obj["failed"] / max(obj["attempted"], 1)
                    for key, values in record.items():
                        m = PER_CALL.match(key)
                        if m and values:
                            run[m.group(1)] = statistics.median(values)
                    runs.setdefault((record["workload"], int(record["trace"])), []).append(run)
                    record = None
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(base, change, better, bound, failed_more=False):
    """Verdict for one metric on one workload; `bound` None means no bound."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    b1, bmed, b3 = quartiles(base)
    cmed = statistics.median(change)
    iqr = b3 - b1
    gain = sign * (cmed - bmed)
    if bound is None:
        if len(pairs) >= MIN_PAIRS and abs(gain) > iqr:
            if wins >= WIN_SHARE * len(pairs) and gain > 0:
                return "improved", wins, len(pairs)
            if losses >= WIN_SHARE * len(pairs) and gain < 0:
                return "worse", wins, len(pairs)
        return "unchanged", wins, len(pairs)
    if -gain > bound * abs(bmed):
        return "worse", wins, len(pairs)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr and not failed_more:
        return "improved", wins, len(pairs)
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if len(pairs) < MIN_PAIRS or failed_more or (iqr > bound * abs(bmed) and not all_better):
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="files or directories of the parent's runs")
    ap.add_argument("--change", nargs="+", required=True, help="files or directories of the change's runs")
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = read_runs(args.base), read_runs(args.change)
    rows = []
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        failed_more = statistics.median([r["_failed"] for r in c_runs]) > statistics.median(
            [r["_failed"] for r in b_runs]
        )
        names = [n for n in b_runs[0] if not n.startswith("_") and all(n in r for r in b_runs + c_runs)]
        for name in names:
            better, bound = declared.get(name, ("lower", None))
            bv = [r[name] for r in b_runs]
            cv = [r[name] for r in c_runs]
            v, wins, pairs = verdict(bv, cv, better, bound, failed_more)
            b1, bmed, b3 = quartiles(bv)
            c1, cmed, c3 = quartiles(cv)
            tag = "" if bound is not None else " (info)"
            rows.append(
                f"{name:32s} {workload:9s} {bmed:12.4g} [{b1:.4g}, {b3:.4g}]  {cmed:12.4g} [{c1:.4g}, {c3:.4g}]"
                f"  {wins:2d}/{pairs:<2d}  {v}{tag}"
            )
    for key in sorted(set(base) ^ set(change)):
        rows.append(f"# workload {key[0]} (trace {key[1]}) was run on one side only")
    print(f"{'metric':32s} {'workload':9s} {'base median [q1, q3]':>32s}  {'change median [q1, q3]':>32s}  wins  verdict")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
