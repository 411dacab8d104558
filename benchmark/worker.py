"""One benchmark worker: set up, warm up, then a closed loop of whole rounds.

Started by ``run.py`` as a fresh process with ``PYTHONPATH`` pointing at the
checkout's ``src``.  One client issues one operation at a time.  Each
operation is timed alone; its output checks, byte count and clean-up run
outside the timed region.  The worker prints one JSON object as its last
line of standard output.

Every run, traced or not, executes the same number of whole rounds, set
from ``--seconds`` by the table below, so a seed and a length fix the list
of operations a run makes.  The checks run in a separate checker
process, started before the loop, so the memory they use stays out of the
worker's peak resident size.  It is a fresh interpreter, not a fork,
because a fork write-protects every page of the worker and the page faults
that follow would land in the next timed operation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import multicat

import checks
import tracing
import workloads as wl
from workloads import Target

#: Rounds of a run of ROUNDS_AT seconds; other lengths scale them, keeping at
#: least one.  At 22 s a run takes 10 to 45 s of wall time on a 2-core x86-64
#: host with one BLAS thread.
ROUNDS_AT = 22.0
ROUNDS = {"well": 3, "figures": 8, "oracle": 6, "photon": 28}

WARM_TARGET = Target("Y3", 2.0, 6.0)


def _size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


#: Per workload: the timed operation, its check, and the untimed warm-up.
EXECUTE = {
    "well": wl.run_well,
    "figures": wl.run_figures,
    "oracle": lambda target, d: wl.run_oracle(target),
    "photon": lambda target, d: wl.run_photon(target),
}
CHECK = {
    "well": lambda target, out: checks.check_well(target.terms, out),
    "figures": lambda target, out: checks.check_figures(target.terms, out, 601, 401),
    "oracle": lambda target, diff: checks.check_oracle(diff),
    "photon": lambda target, res: checks.check_photon(res.a, res.b, res.pnd,
                                                      res.closed_form, res.extrema),
}
WARM_UP = {
    "well": lambda d: wl.run_well(WARM_TARGET, d, points=401),
    "figures": lambda d: wl.run_figures(WARM_TARGET, d, grid=(61, 161)),
    "oracle": lambda d: wl.run_oracle(WARM_TARGET, small=True),
    "photon": lambda d: wl.run_photon(WARM_TARGET),
}


def serve_checks() -> None:
    """Checker process: run each check read from stdin, write its verdict to stdout."""
    checks.warm_imports()
    jobs, replies = sys.stdin.buffer, sys.stdout.buffer
    pickle.dump("ready", replies)
    replies.flush()
    for workload, target, result in iter(lambda: pickle.load(jobs), None):
        try:
            v = CHECK[workload](target, result)
            reply = (v.problems, v.codes, v.stats)
        except Exception as exc:  # a check that breaks rejects the operation
            reply = ([f"check raised {type(exc).__name__}: {exc}"], ["check"], {})
        pickle.dump(reply, replies)
        replies.flush()


class Checker:
    """A separate process that runs the output checks, one at a time."""

    def __init__(self):
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here), str(here.parent / "src")])
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "import worker; worker.serve_checks()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path))
        if self._receive() != "ready":
            raise RuntimeError("checker process did not start")

    def _receive(self):
        return pickle.load(self.proc.stdout)

    def __call__(self, workload: str, target: Target, result) -> checks.Verdict:
        pickle.dump((workload, target, result), self.proc.stdin)
        self.proc.stdin.flush()
        return checks.Verdict(*self._receive())

    def close(self) -> None:
        pickle.dump(None, self.proc.stdin)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Loop:
    def __init__(self, workload: str, out: Path, tracer):
        self.workload = workload
        self.out = out
        self.tracer = tracer
        self.checker = None  # started when the timed loop starts
        self.records = []
        self.stats = []

    def warm_up(self) -> None:
        """One short operation, untimed and unchecked."""
        d = self.out / "warmup"
        WARM_UP[self.workload](d)
        shutil.rmtree(d, ignore_errors=True)

    def operate(self, target: Target) -> None:
        op = len(self.records)
        d = self.out / f"op{op}"
        if self.tracer is not None:
            self.tracer.op = op
        error = None
        t0 = time.perf_counter()
        try:
            result = EXECUTE[self.workload](target, d)
        except (RuntimeError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.op = -1
        if error is None:
            verdict = self.checker(self.workload, target, result)
        else:
            verdict = checks.Verdict(problems=[error], codes=["error"])
        written = _size(d) if d.is_dir() else 0
        shutil.rmtree(d, ignore_errors=True)
        self.records.append({
            "target": target.describe(), "family": target.family, "s": elapsed,
            "ok": verdict.ok, "known_fault": target.is_known_fault(verdict.codes),
            "problems": verdict.problems, "bytes": written,
        })
        self.stats.append(verdict.stats)


def per_layer(loop: Loop, tracer: tracing.Tracer) -> dict:
    n = len(loop.records)
    tot = tracer.layer_totals()
    counts = tracer.counts

    def s(name: str, kind: str = "s") -> float:
        return tot[name][kind] / n if name in tot else 0.0

    def stat(key: str):
        """An accuracy figure of every operation that passed its checks."""
        return [st[key] for st, r in zip(loop.stats, loop.records) if r["ok"] and key in st]

    calls = counts["wellsolver.ground_state"]
    numeric_s = tot["wigner.wigner_numeric"]["s"] if "wigner.wigner_numeric" in tot else 0.0
    run_self = s("cli.run", "self_s")
    written = sum(r["bytes"] for r in loop.records) / n
    fidelities = stat("fidelity")
    return {
        "wellsolver.ground_state.calls": calls / n,
        "wellsolver.ground_state.iterations": counts["wellsolver.ground_state.iterations"] / n,
        "wellsolver.ground_state.self_s": s("wellsolver.ground_state", "self_s"),
        "wellsolver.ground_state.per_call_s": s("wellsolver.ground_state") * n / calls
        if calls else 0.0,
        "wellsolver.calibrate_wells.self_s": s("wellsolver.calibrate_wells", "self_s"),
        "wellsolver.potential.s": s("wellsolver.potential"),
        "wellsolver.build_hamiltonian.s": s("wellsolver.build_hamiltonian"),
        "wellsolver.fidelity.s": s("wellsolver.fidelity"),
        "wellsolver.fidelity_mean": statistics.fmean(fidelities) if fidelities else 0.0,
        "wellsolver.energy_err_max": max(stat("energy_err"), default=0.0),
        "cli.run.self_s": run_self,
        "cli.bytes_written": written,
        "cli.write_mb_per_s": written / run_self / 1e6 if run_self > 0 else 0.0,
        "wigner.wigner_numeric.s": s("wigner.wigner_numeric"),
        "wigner.wigner_numeric.gflop_per_s": counts["wigner.wigner_numeric.flops"]
        / numeric_s / 1e9 if numeric_s > 0 else 0.0,
        "wigner.wigner_closed_form.s": s("wigner.wigner_closed_form"),
        "wigner.oracle_max_abs_diff": max(stat("max_abs_diff"), default=0.0),
        "marginals.position_marginal.s": s("marginals.position_marginal"),
        "marginals.momentum_marginal.s": s("marginals.momentum_marginal"),
        "photon.qts_pnd.s": s("photon.qts_pnd"),
        "photon.qts_pnd_closed_form.s": s("photon.qts_pnd_closed_form"),
        "photon.envelope_extrema.s": s("photon.envelope_extrema"),
        "photon.envelope_derivative.calls": counts["photon.envelope_derivative"] / n,
        "photon.digamma.calls": counts["photon.digamma"] / n,
        "photon.envelope_sample.s": s("photon.envelope_sample"),
        "photon.pnd_max_abs_err": max(stat("pnd_err"), default=0.0),
        "states.fock_amplitudes.s": s("states.fock_amplitudes"),
        "states.position_wavefunction.s": s("states.position_wavefunction"),
        "states.normalization.calls": counts["states.normalization"] / n,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    rounds = max(1, round(ROUNDS[args.workload] * args.seconds / ROUNDS_AT))
    batches = list(itertools.islice(wl.rounds(args.workload, args.seed), rounds))
    loop = Loop(args.workload, args.out, tracer)
    loop.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if tracer is not None:
        tracer.reset()

    loop.checker = Checker()
    start = time.perf_counter()
    for batch in batches:
        for target in batch:
            loop.operate(target)
    loop_s = time.perf_counter() - start
    loop.checker.close()

    result = {
        "ready": ready,
        "rounds": rounds,
        "loop_s": loop_s,
        "package": multicat.__file__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": loop.records,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(loop, tracer)
        trace_path = args.out / "trace.json"
        tracer.dump(trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
