"""mdsrepair benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {build,scan,replay}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src/`` (no install step).  The run

1. generates the workload's inputs with the program's ``construct``
   (outside any timed region) and checks them against pinned hashes;
2. with ``--trace 0``, times ``setup_s``: the median over fresh processes
   of importing ``mdsrepair.cli`` and loading the inputs, after one
   discarded warm-up process; half of the probes run before the
   operations and half after, so that they sample the host at two times;
3. runs the workload's closed loop of CLI commands in one worker process
   for about S seconds (at least one operation), gating every output
   against ``references.json``; untraced, a fixed reference kernel runs
   after every operation (see ``worker.reference_kernel``);
4. prints a report (run record, every named metric, failures) and, as
   the last line, ``{"correct", "attempted", "failed", "metrics"}`` with
   the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
   per-layer metrics from a traced run (``--trace 1``).

Scratch files live under ``.perfbench/`` in the checkout; the span file
of a traced run is kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_PROBES = 12
RUN_DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # one thread per process: the box is small and shared
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(argv, deadline, **kwargs):
    """subprocess.run bounded by the run's deadline; the child is reaped."""
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(argv, env=_env(), cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True, **kwargs)


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(deadline):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = _run(["git", "rev-parse", "HEAD"], deadline)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mdsrepair").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _record(deadline) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "git_commit": _git_commit(deadline),
            "src_sha256": _source_digest(),
            "loadavg_start": _loadavg()}


def _median(values):
    return statistics.median(values) if values else None


def _named(workload, result, setup_s) -> dict:
    """Per-command end-to-end metrics of this workload, by name."""
    ops = result["ops"]
    per = {label: _median([op[label] for op in ops]) for label in ops[0]}
    op_s = [sum(op.values()) for op in ops]
    ref_min_s = min(result["ref_s"])
    named = {"setup_s": setup_s, "op_s": _median(op_s),
             "op_min_s": min(op_s), "ref_min_s": ref_min_s,
             "op_rel": min(op_s) / ref_min_s,
             "ops": len(ops), "peak_rss_mb": result["peak_rss_mb"],
             "fail_ratio": result["failed"] / max(result["attempted"], 1)}
    if workload == "build":
        named.update(construct_s=per["construct"],
                     check_mds_s=per["check_mds"], eval_s=per["eval"],
                     artifact_bytes=result["artifact_bytes"])
    elif workload == "scan":
        cands = workloads.SCAN_RANGE[1] - workloads.SCAN_RANGE[0]
        named["scan_bw_cand_per_s"] = _median(
            [cands / op["scan_bandwidth"] for op in ops])
        named["scan_io_cand_per_s"] = _median(
            [cands / op["scan_io"] for op in ops])
    elif workload == "replay":
        repairs = workloads.REPLAY_TRIALS * workloads.REPLAY_NODES
        named["replay_repairs_per_s"] = _median(
            [repairs / op["simulate"] for op in ops])
    return named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "mdsrepair" / "cli.py").is_file():
        print(f"no mdsrepair sources under {ROOT / 'src'}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refs = workloads.load_references(BENCH_DIR)
    record = _record(deadline)

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        def run_cli(cli_argv):
            proc = _run([sys.executable, "-m", "mdsrepair.cli", *cli_argv],
                        deadline)
            return proc.returncode

        paths, gen_attempted, gen_failures = workloads.make_inputs(
            args.workload, workdir, refs, run_cli)
        if paths is None:
            print(f"cannot generate inputs: {gen_failures}", file=sys.stderr)
            return 1
        inputs = json.dumps(paths)
        worker = str(BENCH_DIR / "worker.py")

        samples = []

        def probe_setup(count):
            for _ in range(count):
                proc = _run([sys.executable, worker, "setup", args.workload,
                             inputs], deadline)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return False
                samples.append(float(proc.stdout.strip().splitlines()[-1]))
            return True

        if not args.trace and not probe_setup(1 + SETUP_PROBES // 2):
            return 1

        result_path = workdir / "result.json"
        proc = _run([sys.executable, worker, "ops", args.workload, inputs,
                     str(workdir), repr(args.seconds), str(args.seed),
                     str(args.trace), str(result_path)], deadline)
        if proc.returncode != 0 or not result_path.exists():
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not args.trace and not probe_setup(SETUP_PROBES // 2):
            return 1
        setup_s = _median(samples[1:]) if samples else None
    except subprocess.TimeoutExpired as exc:
        print(f"run exceeded {RUN_DEADLINE_S:.0f} s: {exc.cmd}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = gen_attempted + result["attempted"]
    failed = (1 if gen_failures else 0) + result["failed"]
    failures = gen_failures + result["failures"]
    record["loadavg_end"] = _loadavg()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "record": record, "failures": failures[:20]}
    if args.trace:
        layer = result["layer"]
        report.update(layer=layer, trace_missing=result["trace_missing"],
                      spans_file=result["spans_file"],
                      untraced_op_s=result["trace_baseline_op_s"],
                      traced_op_s=result["trace_op_s"])
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        named = _named(args.workload, result, setup_s)
        report["named"] = named
        report["op_samples_s"] = [sum(op.values()) for op in result["ops"]]
        report["ref_samples_s"] = result["ref_s"]
        report["setup_samples_s"] = samples[1:]
        metrics = {m["name"]: {"value": named[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
