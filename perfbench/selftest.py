"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. One operation of each workload runs against a deliberately wrong
   reference (a flipped artifact hash, a wrong witness, a flipped report
   hash); each must be counted as a failed
   command, not silently passed.
2. A short smoke run of every workload, untraced and traced, must exit 0
   and end with a passing result line that carries every end-to-end (or
   per-layer) metric of BENCHMARK.json with its unit.
3. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   must exit nonzero without printing a result.

Takes a few minutes; scratch files go to .perfbench/selftest/.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from worker import Runner, run_ops  # noqa: E402


def _flip(hexdigest: str) -> str:
    return ("0" if hexdigest[0] != "0" else "1") + hexdigest[1:]


def _wrong_references(refs: dict):
    """(workload, mutated references, label expected to fail)."""
    out = []
    bad = copy.deepcopy(refs)
    bad["build"]["code_sha256"] = _flip(bad["build"]["code_sha256"])
    out.append(("build", bad, "construct"))
    bad = copy.deepcopy(refs)
    witness = bad["scan"]["bandwidth"]["witness"]
    witness[0][2] = (witness[0][2] + 1) % 5
    out.append(("scan", bad, "scan_bandwidth"))
    bad = copy.deepcopy(refs)
    key = "report_sha256_without_seed"
    bad["replay"][key] = _flip(bad["replay"][key])
    out.append(("replay", bad, "simulate"))
    return out


def check_wrong_references(scratch: Path) -> list:
    errors = []
    refs = workloads.load_references(BENCH_DIR)

    def run_cli(argv):
        return subprocess.run([sys.executable, "-m", "mdsrepair.cli", *argv],
                              env=run._env(), cwd=ROOT, capture_output=True,
                              timeout=170).returncode

    for workload, bad, label in _wrong_references(refs):
        workdir = scratch / workload
        workdir.mkdir(parents=True)
        paths, _, gen_failures = workloads.make_inputs(workload, workdir,
                                                       refs, run_cli)
        if paths is None or gen_failures:
            errors.append(f"{workload}: inputs failed: {gen_failures}")
            continue
        result = run_ops(Runner(workload, paths, workdir, 0, bad), 0, False)
        if result["failed"] < 1 or \
                not any(f.startswith(label) for f in result["failures"]):
            errors.append(f"{workload}: wrong reference passed the gate "
                          f"({result['failures']})")
        print(f"wrong reference on {workload}: {result['failures']}")
    return errors


def _result_line(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "correct" in doc else None


def check_smoke_runs(bench: dict) -> list:
    errors = []
    for workload in workloads.NAMES:
        for trace in (0, 1):
            before = len(errors)
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", "0", "--seconds", "1", "--trace",
                 str(trace)], cwd=ROOT, capture_output=True, text=True,
                timeout=180)
            doc = _result_line(proc.stdout)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or doc is None:
                errors.append(f"{where}: exit {proc.returncode}, no result "
                              f"({proc.stderr.strip()[-300:]})")
                continue
            want = bench["per_layer" if trace else "end_to_end"]
            got = doc["metrics"]
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(doc)}")
            if doc["correct"] is not True or doc["failed"] != 0 or \
                    doc["attempted"] < 1:
                summary = {k: doc[k] for k in doc if k != "metrics"}
                errors.append(f"{where}: not a passing result: {summary}")
            if [m["name"] for m in want] != list(got):
                errors.append(f"{where}: metric names differ from "
                              "BENCHMARK.json")
            for m in want:
                entry = got.get(m["name"], {})
                value = entry.get("value")
                if entry.get("unit") != m["unit"] or \
                        not isinstance(value, (int, float)) or \
                        isinstance(value, bool):
                    errors.append(f"{where}: metric {m['name']} is {entry}")
            print(f"smoke {where}: {len(errors) - before} error(s)")
    return errors


def check_bare_directory(scratch: Path) -> list:
    bare = scratch / "bare"
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or _result_line(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode} with output "
                f"{proc.stdout[-200:]!r}"]
    print(f"bare directory: exit {proc.returncode}, no result")
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    if [m["name"] for m in bench["per_layer"]] != [n for n, _ in PER_LAYER]:
        errors.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    scratch = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        errors += check_wrong_references(scratch)
        errors += check_bare_directory(scratch)
        errors += check_smoke_runs(bench)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for err in errors:
        print(f"FAIL {err}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
