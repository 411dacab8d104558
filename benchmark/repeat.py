"""Repeat workloads over seeds and print each metric's spread against its bound.

    python3 benchmark/repeat.py --runs 10 --seed0 1
    python3 benchmark/repeat.py --workloads photon --runs 5 \
        --compare benchmark/runs/repeat-s1-t0.json

Spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its spread is
below a third of its bound, within bound up to the bound, and too wide
above it.  ``--compare`` reads an earlier summary and prints, for each
metric, how far the new median moved in the worse direction, as a share of
the old median.  The summary is written to
``benchmark/runs/repeat-s<seed0>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "info": json.loads(lines[-2])}


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", type=Path, default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            run = one_run(workload, args.seed0 + k, spec["run_seconds"], args.trace)
            res = run["result"]
            runs.append(run)
            print(f"{workload} seed {args.seed0 + k}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} rounds={run['info']['rounds']} "
                  f"probes={run['info']['probes']}", flush=True)
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
        print(f"{workload}: failed shares {shares}; all correct: "
              f"{all(r['result']['correct'] for r in runs)}")
        summary[workload] = {"failed_shares": shares, "metrics": {}}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            m = bounds[name]
            summary[workload]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                                  "spread": sp, "values": values}
            line = f"  {name:40s} median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {sp:.3f}"
            if "bound" in m:
                verdict = "steady" if sp < m["bound"] / 3 else (
                    "within bound" if sp <= m["bound"] else "TOO WIDE")
                line += f" bound {m['bound']} -> {verdict}"
                prev = old.get(workload, {}).get("metrics", {}).get(name)
                if prev:
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    worse = sign * (med - prev["median"]) / prev["median"]
                    line += f"; vs earlier median {worse:+.3f} worse " + (
                        "(ok)" if worse <= m["bound"] else "(REGRESSION)")
            print(line, flush=True)
    out = HERE / "runs" / f"repeat-s{args.seed0}-t{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
