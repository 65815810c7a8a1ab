#!/usr/bin/env python3
"""Summarize and compare whole-search benchmark results.

    python3 perfbench/compare.py summarize DIR > summary.json
    python3 perfbench/compare.py diff BASE NEW

DIR is a results directory written by run.py (.bench_out/results). BASE and
NEW are each a results directory or a summary file (such as
perfbench/baseline.json). `diff` checks every end-to-end metric of every
workload both sides ran against its bound in BENCHMARK.json and exits 1 on a
regression. Both commands refuse (exit 2) to mix results whose host/build
fingerprints differ: nproc, CPU model, build type, JIT support or resolved
engine.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def refuse(msg):
    print(f"compare: refusing: {msg}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(results_dir):
    records = []
    for name in sorted(os.listdir(results_dir)):
        if name.endswith(".json"):
            with open(os.path.join(results_dir, name)) as f:
                records.append(json.load(f))
    if not records:
        refuse(f"no results in {results_dir}")
    fingerprint = records[0]["fingerprint"]
    for r in records:
        if r["fingerprint"] != fingerprint:
            refuse(f"{results_dir} mixes fingerprints {fingerprint} and "
                   f"{r['fingerprint']}")
    workloads = {}
    for r in records:
        w = workloads.setdefault(r["workload"], {
            "seeds": [], "attempted": 0, "failed": 0, "rounds": [],
            "tail_percentiles": [], "metrics": {}})
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        if r["trace"] == 0:
            w["seeds"].append(r["seed"])
            w["rounds"].append(r["rounds"])
            w["tail_percentiles"].append(r["tail_percentile"])
        for k, m in r["metrics"].items():
            w["metrics"].setdefault(k, {"unit": m["unit"], "values": []})
            w["metrics"][k]["values"].append(m["value"])
    for w in workloads.values():
        w["failed_frac"] = w["failed"] / w["attempted"]
        for m in w["metrics"].values():
            q1, med, q3 = quartiles(m.pop("values"))
            m.update(median=med, q1=q1, q3=q3,
                     spread=(q3 - q1) / abs(med) if med else 0.0)
    return {"fingerprint": fingerprint, "workloads": workloads}


def load(path):
    if os.path.isdir(path):
        return summarize(path)
    with open(path) as f:
        return json.load(f)


def diff(base, new):
    if base["fingerprint"] != new["fingerprint"]:
        refuse(f"fingerprints differ: {base['fingerprint']} vs "
               f"{new['fingerprint']}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    regressions = 0
    print(f"{'workload':15s} {'metric':18s} {'base':>11s} {'new':>11s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for wname, bw in base["workloads"].items():
        nw = new["workloads"].get(wname)
        if nw is None:
            continue
        for spec in bench["end_to_end"]:
            b = bw["metrics"].get(spec["name"])
            n = nw["metrics"].get(spec["name"])
            if b is None or n is None:
                continue
            worse = (n["median"] - b["median"]) / b["median"]
            if spec["better"] == "higher":
                worse = -worse
            if worse > spec["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif b["spread"] > spec["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"{wname:15s} {spec['name']:18s} {b['median']:11.5g} "
                  f"{n['median']:11.5g} {worse:+9.3f} {spec['bound']:6.2f}  "
                  f"{verdict}")
        if nw["failed"] > bw["failed"]:
            print(f"{wname:15s} failed searches rose: {bw['failed']} -> "
                  f"{nw['failed']}")
            regressions += 1
    return 1 if regressions else 0


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "summarize":
        json.dump(summarize(sys.argv[2]), sys.stdout, indent=1)
        print()
        return 0
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        return diff(load(sys.argv[2]), load(sys.argv[3]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
