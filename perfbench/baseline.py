#!/usr/bin/env python3
"""Runs the benchmark on every workload with several seeds and records each
metric's median and quartiles, stamped with the machine it ran on.

    python3 perfbench/baseline.py --runs 10 --trace 0 --out perfbench/baseline.json

Run from the repository root. With --trace 1 the per-layer metrics are
recorded instead. Results from another machine are not comparable: compare
only runs whose provenance matches. The provenance names the commit measured
and whether the working tree differed from it ("dirty").
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def go_version():
    out = subprocess.run(["go", "version"], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def git_state():
    """Returns the commit the working tree is on and whether the tree differs
    from it; (None, None) outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        st = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head.stdout.strip(), st.stdout.strip() != ""


def summarize(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    row = {"median": med, "q1": q1, "q3": q3, "values": values}
    if med:
        row["spread"] = (q3 - q1) / med
    if bound is not None:
        row["bound"] = bound
    return row


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    commit, dirty = git_state()
    report = {
        "provenance": {
            "commit": commit,
            "dirty": dirty,
            "nproc": os.cpu_count(),
            "go": go_version(),
            "cpu": cpu_model(),
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        },
        "workloads": {},
    }
    for name in names:
        values, attempted, failed = {}, 0, 0
        for seed in report["provenance"]["seeds"]:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit("%s seed %d: exit %d\n%s" % (name, seed, p.returncode, p.stderr[-4000:]))
            res = json.loads(p.stdout.strip().splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("%s seed %d: %d attempted, %d failed" % (name, seed, res["attempted"], res["failed"]), flush=True)
        rows = {k: summarize(v, bounds.get(k)) for k, v in sorted(values.items())}
        report["workloads"][name] = {"attempted": attempted, "failed": failed, "metrics": rows}
        for k, r in rows.items():
            flag = ""
            if r.get("bound") and k != "setup_s" and r.get("spread", 0) > r["bound"] / 3:
                flag = "  <- spread above a third of the bound"
            print("  %-32s median %-14.6g spread %s%s" % (k, r["median"], "%.4f" % r["spread"] if "spread" in r else "-", flag), flush=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
