"""The three benchmark workloads: their inputs, operations and output gates.

Each workload runs a closed loop of whole CLI commands (one caller; the
next command starts when the previous one returns), all single-process
with ``--jobs 1`` where the command has that flag.  Inputs are made
outside the timed region by the program itself (``construct``), and the
only input that depends on the workload seed is the ``simulate`` seed.

* ``build``: construct the q=9 (extension base field) r=3 n=82 code,
  then ``check-mds`` and ``eval --expect-equality`` on the files written.
* ``scan``: ``bruteforce --node 1`` over a fixed prefix of the canonical
  enumeration on the q=5 r=3 n=24 code, bandwidth then io objective.
* ``replay``: ``simulate --node all`` on the same q=5 code.

Every command's exit code and output is compared with the pinned
references in ``references.json``; any difference is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

NAMES = ("build", "scan", "replay")

BUILD_CODE = ("--p", "3", "--m", "2", "--ell", "2", "--r", "3", "--n", "82")
SMALL_CODE = ("--p", "5", "--ell", "2", "--r", "3", "--n", "24")

# Both objectives' first maximizers of the full 508431-candidate scan lie
# in this prefix (bandwidth at index 15763, io at 203200), so the pinned
# optima equal the full-scan optima at about half the cost.
SCAN_NODE = 1
SCAN_RANGE = (0, 262144)

REPLAY_TRIALS = 1000
REPLAY_NODES = 24


def replay_seed(seed: int) -> int:
    """The ``simulate --seed`` derived from the workload seed."""
    return 2026 + seed % 1_000_000


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dumps(obj) -> str:
    """The CLI's own JSON layout, so a re-serialised report hashes stably."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_references(bench_dir) -> dict:
    with open(Path(bench_dir) / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, workdir: Path, refs: dict, run_cli):
    """Generate the workload's input files under ``workdir``.

    ``run_cli(argv)`` runs one CLI command and returns its exit code.
    Returns (paths, attempted, failures); paths is None when an input
    could not be produced at all.
    """
    paths: dict = {}
    failures: list = []
    if workload == "build":
        return paths, 0, failures
    ref = refs[workload]
    code_dir = workdir / "input"
    rc = run_cli(["construct", *SMALL_CODE, "--out", str(code_dir)])
    code = code_dir / "code.json"
    scheme = code_dir / "scheme.json"
    if rc != 0 or not code.exists() or not scheme.exists():
        return None, 1, [f"input construct exited {rc}"]
    for key, path in (("input_code_sha256", code),
                      ("input_scheme_sha256", scheme)):
        if sha256_file(path) != ref[key]:
            failures.append(f"input {path.name} sha256 differs from {key}")
    paths["code"] = str(code)
    paths["scheme"] = str(scheme)
    return paths, 1, failures


# ---------------------------------------------------------------------------
# operations


def commands(workload: str, paths: dict, opdir: Path, seed: int):
    """(label, argv) for each command of one operation."""
    out = str(opdir)
    if workload == "build":
        code, scheme = f"{out}/code.json", f"{out}/scheme.json"
        return [
            ("construct", ["construct", *BUILD_CODE, "--out", out]),
            ("check_mds", ["check-mds", code, "--format", "json",
                           "--out", f"{out}/check.json"]),
            ("eval", ["eval", code, scheme, "--expect-equality",
                      "--format", "json", "--out", f"{out}/eval.json"]),
        ]
    if workload == "scan":
        rng = f"{SCAN_RANGE[0]}:{SCAN_RANGE[1]}"
        return [
            (f"scan_{obj}", ["bruteforce", paths["code"], "--node",
                             str(SCAN_NODE), "--objective", obj,
                             "--range", rng, "--jobs", "1", "--format",
                             "json", "--out", f"{out}/{obj}.json"])
            for obj in ("bandwidth", "io")
        ]
    if workload == "replay":
        return [("simulate", ["simulate", paths["code"], paths["scheme"],
                              "--trials", str(REPLAY_TRIALS),
                              "--seed", str(replay_seed(seed)),
                              "--node", "all", "--jobs", "1",
                              "--format", "json",
                              "--out", f"{out}/simulate.json"])]
    raise ValueError(f"unknown workload {workload!r}")


def clear_outputs(opdir: Path) -> None:
    opdir.mkdir(parents=True, exist_ok=True)
    for entry in opdir.iterdir():
        entry.unlink()


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_op(workload: str, results: dict, opdir: Path, refs: dict,
             seed: int, witness_cost) -> list:
    """(command label, mismatch) pairs of one operation; empty = pass.

    ``results`` maps command label to its exit code (an int, or the
    exception text); ``witness_cost(objective, rows)`` recomputes the
    repair cost of a brute-force witness through the library.
    """
    bad = [(label, f"exit {rc!r}") for label, rc in results.items() if rc != 0]
    ref = refs[workload]
    if workload == "build":
        for name, key in (("code.json", "code_sha256"),
                          ("scheme.json", "scheme_sha256")):
            path = opdir / name
            if not path.exists() or sha256_file(path) != ref[key]:
                bad.append(("construct", f"{name} sha256 differs from {key}"))
        doc = _read(opdir / "check.json") or {}
        if doc.get("ok") is not True or doc.get("subsets") != ref["subsets"]:
            bad.append(("check_mds", f"report {doc!r}"))
        doc = _read(opdir / "eval.json") or {}
        if doc.get("equality") is not True:
            bad.append(("eval", "equality is not true"))
    elif workload == "scan":
        for obj, key, cost_key in (("bandwidth", "alpha", "beta"),
                                   ("io", "lambda", "gamma")):
            label = f"scan_{obj}"
            doc = _read(opdir / f"{obj}.json") or {}
            want = ref[obj]
            wit = doc.get("witness") or {}
            rows = None
            if wit.get("rows") and wit.get("cols"):
                ent = wit.get("entries", [])
                rows = [ent[k * wit["cols"]:(k + 1) * wit["cols"]]
                        for k in range(wit["rows"])]
            if (doc.get(key), doc.get(cost_key)) != (want[key],
                                                     want[cost_key]):
                bad.append((label, f"{key}/{cost_key} differ from reference"))
            if rows != want["witness"]:
                bad.append((label, f"witness {rows} differs from reference"))
            if doc.get("candidates") != SCAN_RANGE[1] - SCAN_RANGE[0]:
                bad.append((label, f"candidates {doc.get('candidates')!r}"))
            if rows is not None:
                try:
                    cost = witness_cost(obj, rows)
                except Exception as exc:  # noqa: BLE001 - fails the gate
                    cost = f"{type(exc).__name__}: {exc}"
                if cost != want[cost_key]:
                    bad.append((label, f"recomputed witness cost {cost!r} "
                                       f"differs from {cost_key}"))
    elif workload == "replay":
        doc = _read(opdir / "simulate.json") or {}
        per_node = doc.get("per_node", [])
        if doc.get("matches_metrics") is not True or doc.get("failures"):
            bad.append(("simulate", "failures or metrics mismatch reported"))
        if doc.get("seed") != replay_seed(seed) or \
                doc.get("trials") != REPLAY_TRIALS:
            bad.append(("simulate", "wrong seed or trial count"))
        if len(per_node) != REPLAY_NODES or any(
                row.get("downloaded") != row.get("beta")
                or row.get("accessed") != row.get("gamma")
                for row in per_node):
            bad.append(("simulate", "downloaded != beta or accessed != gamma"))
        unseeded = {k: v for k, v in doc.items() if k != "seed"}
        digest = hashlib.sha256(dumps(unseeded).encode()).hexdigest()
        if digest != ref["report_sha256_without_seed"]:
            bad.append(("simulate", "report sha256 differs from reference"))
    return bad


def artifact_bytes(workload: str, opdir: Path) -> int:
    if workload != "build":
        return 0
    return sum(os.path.getsize(opdir / f) for f in ("code.json", "scheme.json")
               if (opdir / f).exists())
