"""One workload process: set-up probe or the closed loop of operations.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; it never runs commands in parallel.

    worker.py setup WORKLOAD INPUTS_JSON
        Time ``import mdsrepair.cli`` plus loading and validating the
        workload's input files with the CLI's loaders; print seconds.
    worker.py ops WORKLOAD INPUTS_JSON WORKDIR SECONDS SEED TRACE RESULT
        Run operations while the next one is expected to end within
        SECONDS (at least one), and write per-operation timings, gate
        failures and, with TRACE=1, per-layer metrics to the RESULT file.
        Untraced, every operation is followed by runs of a fixed reference
        kernel (at least REF_REPS, and at least REF_SHARE of the
        operation's time), whose timings go to the RESULT file too.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, op_totals, summarize

REF_REPS = 3
REF_SHARE = 0.05


def reference_kernel() -> float:
    """Seconds for a fixed piece of interpreter-bound work (dict updates)
    that calls no mdsrepair code and allocates no large memory.

    On a shared host a CPU's speed drifts by tens of percent for minutes at
    a time, which no run length averages out, and the CPUs drift apart.
    Run in the operations' own process right after each one, the kernel
    sees the speed of the CPU they run on at the same moments, so an
    operation's cost can be stated relative to it.  Kernels that also did
    numpy work on large arrays tracked the operations worse, and one that
    allocated them changed what it measured: freeing one large array
    raises glibc's mmap threshold, after which ``build`` operations run
    about 35% faster (4.7-5.0 s against 7.1-7.7 s).
    """
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - t0


def setup_probe(workload: str, paths: dict) -> float:
    t0 = time.perf_counter()
    from mdsrepair import cli
    if workload != "build":
        re, _, _ = cli._load_code(paths["code"])
        if workload == "replay":
            cli._load_scheme(paths["scheme"], re.skeleton.tower.base)
    return time.perf_counter() - t0


class Runner:
    """Runs the operations of one workload in this process."""

    def __init__(self, workload, paths, workdir, seed, refs):
        from mdsrepair import cli
        self.main = cli.main
        self.workload = workload
        self.paths = paths
        self.opdir = Path(workdir) / "op"
        self.seed = seed
        self.refs = refs
        self._realization = None

    def _witness_cost(self, objective, rows):
        from mdsrepair.cli import _load_code
        from mdsrepair.linalg import Matrix
        from mdsrepair.repair import bandwidth, io_count
        if self._realization is None:
            self._realization = _load_code(self.paths["code"])[0]
        re = self._realization
        m = Matrix(re.skeleton.tower.base, rows)
        cost = bandwidth if objective == "bandwidth" else io_count
        return cost(m, re, workloads.SCAN_NODE - 1)

    def _cli(self, label, argv, tracer):
        sink = io.StringIO()
        token = tracer.open(f"cli.{label}") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = self.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(f"cli.{label}", token)
        return rc, elapsed

    def op(self, tracer=None):
        """One operation: returns (per-command seconds, mismatches)."""
        workloads.clear_outputs(self.opdir)
        cmds = workloads.commands(self.workload, self.paths, self.opdir,
                                  self.seed)
        times, codes = {}, {}
        if tracer:
            tracer.install()
        try:
            for label, argv in cmds:
                codes[label], times[label] = self._cli(label, argv, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        bad = workloads.check_op(self.workload, codes, self.opdir, self.refs,
                                 self.seed, self._witness_cost)
        return times, bad


def run_ops(runner: Runner, seconds: float, trace: bool) -> dict:
    """Closed loop of operations; a command with any mismatch fails."""
    ops, failures = [], []
    attempted = failed = 0

    totals, repair_us, ref_s = [], [], []

    def reference(budget):
        runs = []
        while len(runs) < REF_REPS or sum(runs) < budget:
            runs.append(reference_kernel())
        ref_s.extend(runs)

    def one(tracer=None):
        nonlocal attempted, failed
        if tracer:
            tracer.spans.clear()
        times, bad = runner.op(tracer)
        if not trace:
            reference(REF_SHARE * sum(times.values()))
        attempted += len(times)
        failed += len({label for label, _ in bad})
        failures.extend(f"{label}: {msg}" for label, msg in bad)
        if tracer:
            total, us = op_totals(tracer.spans)
            totals.append(total)
            repair_us.extend(us)
        return times

    # A traced run alternates untraced and traced operations, so the
    # tracing overhead is measured against untraced ones of the same run.
    # The next operation starts only if the last one of its kind would
    # still fit in the window, so a run lasts about ``seconds`` at any
    # speed (and always holds at least one operation of each kind).
    tracer = Tracer() if trace else None
    untraced, last = [], {}
    start = time.perf_counter()
    while True:
        traced_turn = trace and len(untraced) > len(ops)
        times = one(tracer if traced_turn else None)
        last[traced_turn] = sum(times.values())
        if trace and not traced_turn:
            untraced.append(last[False])
        else:
            ops.append(times)
        next_turn = trace and len(untraced) > len(ops)
        estimate = last.get(next_turn, last[traced_turn])
        if ops and time.perf_counter() - start + estimate > seconds:
            break
    result = {"ops": ops, "failures": failures, "attempted": attempted,
              "failed": failed}
    if trace:
        metrics = summarize(totals, repair_us)
        baseline = statistics.median(untraced)
        traced = statistics.median(sum(t.values()) for t in ops)
        metrics["trace.overhead_pct"] = 100.0 * (traced - baseline) / baseline
        metrics["cli.artifact_bytes"] = workloads.artifact_bytes(
            runner.workload, runner.opdir)
        result["layer"] = metrics
        result["trace_baseline_op_s"] = baseline
        result["trace_op_s"] = traced
        result["trace_missing"] = tracer.missing
        result["tracer"] = tracer
    else:
        result["ref_s"] = ref_s
        result["artifact_bytes"] = workloads.artifact_bytes(runner.workload,
                                                            runner.opdir)
    return result


def main(argv) -> int:
    mode, workload, inputs = argv[0], argv[1], json.loads(argv[2])
    if mode == "setup":
        print(repr(setup_probe(workload, inputs)))
        return 0
    workdir, seconds, seed, trace, result_path = argv[3:8]
    seed, trace = int(seed), trace == "1"
    bench_dir = Path(__file__).resolve().parent
    runner = Runner(workload, inputs, workdir, seed,
                    workloads.load_references(bench_dir))
    result = run_ops(runner, float(seconds), trace)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        spans_path = Path(workdir).parent / "traces" / f"{workload}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
