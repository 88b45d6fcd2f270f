#!/usr/bin/env python3
"""Runs the benchmark on several seeds and summarises each metric.

    python3 perfbench/spread.py --workloads cold-campaign,warm-sweep \
        --seeds 1-10 --seconds 20 [--trace 0] [--out summary.json]

Run from the repository root. For every workload and metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, and writes them as JSON to --out,
with the host metadata of the first run. Every run's last stdout line
is kept under "runs" in that file.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}, "runs": {}}
    ok = True
    for wl in args.workloads.split(","):
        values, runs = {}, []
        for seed in seeds(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            res = json.loads(lines[-1])
            runs.append({"seed": seed, **res})
            for line in proc.stderr.splitlines():
                if line.startswith("perfbench: run ") and "host" not in summary:
                    meta = json.loads(line[len("perfbench: run "):])
                    summary["host"] = {k: meta[k] for k in
                                       ("schema", "commit", "go", "gomaxprocs", "nproc", "cpu", "state_fs")}
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)
        stats = {}
        for name, vs in sorted(values.items()):
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vs)}
            print(f"{wl:16s} {name:28s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f} n={len(vs)}")
        summary["workloads"][wl] = stats
        summary["runs"][wl] = runs
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
