"""multicat benchmark: one workload, one seed, fresh worker processes.

    python3 benchmark/run.py --workload well --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The line before it reports the
host-speed probes.  Each run also leaves ``benchmark/runs/<workload>-s<seed>-t<trace>/``
holding ``record.json`` (every operation with its time and check outcome)
and, for traced runs, ``trace.json`` (every span).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS threads in the workers and the numpy probe: one, so a run never
#: competes with itself.  Set before NumPy is first imported.
BLAS_THREADS = min(1, os.cpu_count() or 1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("well", "figures", "oracle", "photon")

#: Worker starts per untraced run that only set up, for the setup_s median:
#: this many before the measuring worker and as many after it.
SETUP_SAMPLES_EACH_SIDE = 2

#: A run that has not finished by then is abandoned (the limit is 180 s).
DEADLINE_S = 170.0


def probe_python() -> float:
    """Fixed pure-Python loop; its time tracks the host's interpreter speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def probe_numpy() -> float:
    """Fixed 400x400 matrix product, repeated; tracks the host's BLAS speed."""
    a = np.random.default_rng(0).standard_normal((400, 400))
    t0 = time.perf_counter()
    for _ in range(20):
        a @ a
    return time.perf_counter() - t0


def probes() -> dict:
    return {"python_s": probe_python(), "numpy_s": probe_numpy()}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_worker(args, out: Path, setup_only: bool, deadline: float) -> tuple:
    """Run one worker to its end; returns (setup seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def tail(samples: list) -> float:
    """Highest percentile with at least ten samples beyond it; the median below 40."""
    xs = sorted(samples)
    if len(xs) < 40:
        return statistics.median(xs)
    return xs[len(xs) - 11]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "multicat" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no multicat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = HERE / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    def setup_samples(side: str) -> list:
        n = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
        return [start_worker(args, out / f"setup-{side}{k}", True, deadline)[0]
                for k in range(n)]

    before = probes()
    setups = setup_samples("before")
    setup, result = start_worker(args, out, False, deadline)
    setups += [setup] + setup_samples("after")
    after = probes()

    package = Path(result["package"]).resolve()
    if ROOT / "src" not in package.parents:
        print(f"error: measured {package}, not the checkout's sources", file=sys.stderr)
        return 2

    ops = result["ops"]
    failed = [op for op in ops if not op["ok"]]
    passed = [op["s"] for op in ops if op["ok"]]
    correct = all(op["known_fault"] for op in failed) and bool(passed)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(passed) / sum(op["s"] for op in ops),
        "op_p50_s": statistics.median(passed) if passed else 0.0,
        "op_tail_s": tail(passed) if passed else 0.0,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    if args.trace:
        values = result["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "args": vars(args), "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "probes": {"start": before, "end": after}, "setup_samples_s": setups,
        "rounds": result["rounds"], "loop_s": result["loop_s"], "metrics": metrics,
        "ops": ops,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1))
    for op in failed:
        print(f"failed: {op['target']}: {'; '.join(op['problems'])}", file=sys.stderr)
    print(json.dumps({"probes": record["probes"], "blas_threads": BLAS_THREADS,
                      "rounds": result["rounds"], "record": str(out / "record.json")}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
