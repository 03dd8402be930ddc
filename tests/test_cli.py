import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mdsrepair
from mdsrepair import cli, codes, repair
from mdsrepair.cli import main
from mdsrepair.codes import (
    CodeSkeleton,
    realization_from_json,
    realization_to_json,
)
from mdsrepair.errors import (
    BudgetExceeded,
    InternalInconsistency,
    LengthOutOfRange,
    MalformedInput,
    NonPrime,
    NotARepairMatrix,
    NotMds,
    ReduciblePolynomial,
    RepairToolError,
)
from mdsrepair.gf import build_tower
from mdsrepair.repair import scheme_from_json, scheme_to_json


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["construct", "--p", "3", "--ell", "2", "--r", "2", "--n", "9",
               "--out", str(d)])
    assert rc == 0
    return d


def test_construct_writes_files(workspace):
    code = json.loads((workspace / "code.json").read_text())
    scheme = json.loads((workspace / "scheme.json").read_text())
    assert code["v"] == 1 and scheme["v"] == 1
    assert code["n"] == 9 and len(code["nodes"]) == 9
    assert code["provenance"]["params"]["q"] == 3
    assert [e["i"] for e in scheme["per_node"]] == list(range(1, 10))


def test_construct_rejects_bad_parameters(tmp_path, capsys):
    assert main(["construct", "--p", "4", "--ell", "2", "--r", "2",
                 "--n", "9", "--out", str(tmp_path)]) == 2
    assert "NonPrime" in capsys.readouterr().err
    assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                 "--n", "23", "--out", str(tmp_path)]) == 2
    assert "LengthOutOfRange" in capsys.readouterr().err
    assert main(["construct", "--p", "3", "--ell", "1", "--r", "2",
                 "--n", "4", "--out", str(tmp_path)]) == 2
    assert "EllTooSmall" in capsys.readouterr().err
    start = time.perf_counter()  # F_2187 is above the cap: no search runs
    assert main(["construct", "--p", "3", "--ell", "7", "--r", "2",
                 "--n", "2186", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "BadParameters: ell = 7" in capsys.readouterr().err


def test_check_mds_ok(workspace, capsys):
    assert main(["check-mds", str(workspace / "code.json")]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_mds_witness(workspace, tmp_path, capsys):
    obj = json.loads((workspace / "code.json").read_text())
    obj["nodes"][1] = obj["nodes"][0]
    obj.pop("provenance", None)
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(obj))
    assert main(["check-mds", str(bad), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["witness"] == [1, 2]


def test_check_mds_malformed(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert main(["check-mds", str(p)]) == 3
    assert "MalformedInput" in capsys.readouterr().err


def test_non_object_json_exits_3(workspace, tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[]")
    scheme = str(workspace / "scheme.json")
    for argv in (["check-mds", str(p)], ["eval", str(p), scheme],
                 ["bruteforce", str(p), "--node", "1"],
                 ["simulate", str(p), scheme, "--trials", "1"]):
        assert main(argv) == 3
        assert "expected a JSON object" in capsys.readouterr().err


def test_bounds_json(capsys):
    assert main(["bounds", "--q", "5", "--ell", "2", "--r", "3", "--n", "24",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["im_bound"] == 34 and doc["pc_bound"] == -110
    assert main(["bounds", "--q", "6", "--ell", "2", "--r", "3",
                 "--n", "24"]) == 2


@pytest.mark.parametrize("argv,named", [
    (["--q", "1000000000000000003", "--ell", "2", "--r", "3", "--n", "24"],
     "q=1000000000000000003 is above"),
    (["--q", "5", "--ell", "1000000", "--r", "3", "--n", "24"],
     "ell=1000000, r=3, n=24 at q=5"),
], ids=["huge-q", "huge-ell"])
def test_bounds_refuses_unprintable_points_at_once(argv, named, capsys):
    # no trial division up to sqrt(q), and no power with a million digits
    start = time.perf_counter()
    assert main(["bounds", *argv, "--format", "json"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"BadParameters: {named}" in captured.err


def test_eval_expect_equality(workspace, capsys):
    assert main(["eval", str(workspace / "code.json"),
                 str(workspace / "scheme.json"), "--expect-equality",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equality"] is True
    assert doc["aggregates"] == {"beta_avg": 12, "beta_max": 12,
                                 "gamma_avg": 12, "gamma_max": 12}
    assert all(row["gap"] == 0 for row in doc["per_node"])


def test_eval_gap_fails_expectation(workspace, tmp_path, capsys):
    scheme = json.loads((workspace / "scheme.json").read_text())
    # an everywhere-feasible but wasteful scheme: kernel = the unused
    # spread member (the last coordinate block)
    for entry in scheme["per_node"]:
        entry["M"] = {"rows": 2, "cols": 4,
                      "entries": [1, 0, 0, 0, 0, 1, 0, 0]}
    p = tmp_path / "lazy.json"
    p.write_text(json.dumps(scheme))
    assert main(["eval", str(workspace / "code.json"), str(p),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equality"] is False
    assert main(["eval", str(workspace / "code.json"), str(p),
                 "--expect-equality"]) == 1


def test_bruteforce_alpha(workspace, capsys):
    assert main(["bruteforce", str(workspace / "code.json"), "--node", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == 4 and doc["beta"] == 12
    assert doc["candidates"] == 130
    assert doc["witness"]["rows"] == 2 and doc["witness"]["cols"] == 4


def test_bruteforce_lambda_and_jobs(workspace, capsys):
    assert main(["bruteforce", str(workspace / "code.json"), "--node", "3",
                 "--objective", "io", "--format", "json"]) == 0
    solo = json.loads(capsys.readouterr().out)
    assert solo["lambda"] == 4 and solo["gamma"] == 12
    assert main(["bruteforce", str(workspace / "code.json"), "--node", "3",
                 "--objective", "io", "--jobs", "2", "--format",
                 "json"]) == 0
    fan = json.loads(capsys.readouterr().out)
    assert fan["lambda"] == solo["lambda"]
    assert fan["witness"] == solo["witness"]


def _apply(docs, path, value):
    """Set docs[path[0]][path[1]]...[path[-1]] = value (a copy of it)."""
    target = docs
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)


def _write_docs(docs, directory):
    """Write each document to <directory>/<name>.json; return the paths."""
    for name, doc in docs.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return [str(directory / f"{name}.json") for name in docs]


HUGE = 10 ** 30
# case -> (path, value) mutations of {"code": code.json, "scheme": scheme.json}
LOADER_FAULTS = {
    "H": [(("code", "nodes", 0, "H", 0, 0), HUGE)],
    "X": [(("code", "nodes", 0, "X", 0, 0), HUGE)],
    "M.entries": [(("scheme", "per_node", 0, "M", "entries", 0), HUGE)],
    "tower.m": [(("code", "tower", "m"), HUGE)],
    "nodes": [(("code", "nodes"), 5)],
    "X=zero point": [(("code", "nodes", 0, "X", 0), [0, 0, 0, 0])],
    # fields above the table cap, refused before any search or power runs
    "tower.p=2^61-1": [(("code", "tower", "p"), 2 ** 61 - 1)],
    "tower.m=7": [(("code", "tower", "m"), 7)],
    "tower.m=2^40": [(("code", "tower", "m"), 2 ** 40)],
    "tower.ell=30": [(("code", "tower", "ell"), 30),
                     (("code", "tower", "ext_poly"), [])],
    # tower blocks build_tower refuses; the code is over F_3 with m = 1
    "tower.p=4": [(("code", "tower", "p"), 4)],
    "tower.ext_poly reducible": [(("code", "tower", "ext_poly"), [2, 0, 1])],
    "tower.ext_poly degree 3": [(("code", "tower", "ext_poly"), [1, 0, 0, 1])],
    "tower.ext_poly not monic": [(("code", "tower", "ext_poly"), [1, 0, 2])],
    "tower.base_poly with m=1": [(("code", "tower", "base_poly"), [1, 1])],
    "tower.ext_poly entry 7": [(("code", "tower", "ext_poly"), [1, 0, 7])],
    # only an absent polynomial takes the default; a present one is a list
    **{f"tower.{key}={json.dumps(value)}": [(("code", "tower", key), value)]
       for key in ("base_poly", "ext_poly") for value in (0, False, "", None, {})},
    "tower.ext_poly=[]": [(("code", "tower", "ext_poly"), [])],
}


@pytest.mark.parametrize("case", list(LOADER_FAULTS))
def test_loader_faults_exit_3(workspace, tmp_path, capsys, case):
    docs = {name: json.loads((workspace / f"{name}.json").read_text())
            for name in ("code", "scheme")}
    for path, value in LOADER_FAULTS[case]:
        _apply(docs, path, value)
    start = time.perf_counter()
    assert main(["eval", *_write_docs(docs, tmp_path)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "MalformedInput" in err and "Traceback" not in err
    path, value = LOADER_FAULTS[case][0]
    if path[1] == "tower":
        assert f"MalformedInput: tower.{path[2]} = {value} " in err


def _retype(docs, faults):
    """Replace the value v at each path by retype(v)."""
    for path, retype in faults:
        target = docs
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = retype(target[path[-1]])


# case -> (command, [(path, retype)]): each value keeps the number a lax
# loader would read (int(1.5) == 1, int(True) == 1, np.int64("1") == 1)
# but is not a JSON integer, so only its type is at fault
LAX_INTEGERS = {
    "scheme entry 1.5": ("eval", [(("scheme", "per_node", 0, "M", "entries",
                                    0), lambda v: v + 0.5)], "matrix entries"),
    "rows 2.7": ("eval", [(("scheme", "per_node", 0, "M", "rows"),
                           lambda v: v + 0.7)], "matrix rows"),
    "i true": ("eval", [(("scheme", "per_node", 0, "i"), lambda v: v == 1)],
               "scheme entry i"),
    "n 9.9": ("check-mds", [(("code", "n"), lambda v: v + 0.9)], "n must"),
    "H float, X bool": ("check-mds",
                        [(("code", "nodes", 0, "H", 0, 0), lambda v: v + 0.5),
                         # a canonical point's first entry is 0 or 1
                         (("code", "nodes", 0, "X", 0, 0), bool)],
                        "node 0 H"),
    "X string": ("check-mds", [(("code", "nodes", 2, "X", 1, 3), str)],
                 "node 2 X"),
    "ext_poly 1.0": ("check-mds", [(("code", "tower", "ext_poly", 2), float)],
                     "tower.ext_poly"),
    "code v true": ("check-mds", [(("code", "v"), lambda v: v == 1)],
                    "unsupported schema version True"),
    "scheme v 1.0": ("eval", [(("scheme", "v"), float)],
                     "unsupported schema version 1.0"),
}


@pytest.mark.parametrize("case", list(LAX_INTEGERS))
def test_loaders_take_only_json_integers(workspace, tmp_path, capsys, case):
    docs = {name: json.loads((workspace / f"{name}.json").read_text())
            for name in ("code", "scheme")}
    command, faults, named = LAX_INTEGERS[case]
    _retype(docs, faults)
    code, scheme = _write_docs(docs, tmp_path)
    argv = [command, code] + ([scheme] if command == "eval" else [])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"MalformedInput: {named}" in err and "Traceback" not in err


def _double_x(docs):
    """Node 2's X points times 2 over F_3: the same points, not canonical."""
    node = docs["code"]["nodes"][2]
    node["X"] = [[2 * c % 3 for c in row] for row in node["X"]]


# case -> (exit code, stderr line start, argv, edit of the workspace files):
# "code" and "scheme" in argv stand for the files after the edit
BRUTEFORCE = ["bruteforce", "code", "--node", "1"]
SIMULATE = ["simulate", "code", "scheme", "--trials", "1"]
EXIT_CONTRACT = {
    "range 5": (2, "BadParameters: --range must be START:STOP, got '5'",
                BRUTEFORCE + ["--range", "5"], None),
    "range a:b": (2, "BadParameters: --range must be START:STOP, got 'a:b'",
                  BRUTEFORCE + ["--range", "a:b"], None),
    "range 7:3": (2, "BadParameters: --range 7:3 outside [0, 130]",
                  BRUTEFORCE + ["--range", "7:3"], None),
    "range 0:10^9": (2, "BadParameters: --range 0:1000000000 outside "
                        "[0, 130]", BRUTEFORCE + ["--range", "0:1000000000"],
                     None),
    "bruteforce node 0": (2, "BadParameters: --node must be in 1..9",
                          ["bruteforce", "code", "--node", "0"], None),
    "bruteforce node 10": (2, "BadParameters: --node must be in 1..9",
                           ["bruteforce", "code", "--node", "10"], None),
    "simulate node x": (2, "BadParameters: --node takes a 1-based index or "
                           "'all'", SIMULATE + ["--node", "x"], None),
    "simulate node 0": (2, "BadParameters: --node must be in 1..9",
                        SIMULATE + ["--node", "0"], None),
    "simulate node 10": (2, "BadParameters: --node must be in 1..9",
                         SIMULATE + ["--node", "10"], None),
    "scheme duplicate i": (3, "MalformedInput: duplicate node index 1",
                           ["eval", "code", "scheme"],
                           lambda d: d["scheme"]["per_node"][1].update(i=1)),
    "scheme gap in i": (3, "MalformedInput: scheme node indices must be 1..n",
                        ["eval", "code", "scheme"],
                        lambda d: d["scheme"]["per_node"][8].update(i=11)),
    "scheme entry without M": (3, "MalformedInput: bad scheme entry: 'M'",
                               ["eval", "code", "scheme"],
                               lambda d: d["scheme"]["per_node"][0].pop("M")),
    "scheme rows -2 cols -4": (
        3, "MalformedInput: matrix rows must be nonnegative, got -2",
        ["eval", "code", "scheme"],
        lambda d: d["scheme"]["per_node"][0]["M"].update(rows=-2, cols=-4)),
    "scheme cols -4": (
        3, "MalformedInput: matrix cols must be nonnegative, got -4",
        ["eval", "code", "scheme"],
        lambda d: d["scheme"]["per_node"][5]["M"].update(cols=-4)),
    "scheme matrix 0 is 0x0": (
        3, "BadShape: matrix 1 (2x4) and matrix 0 (0x0) differ in shape or "
           "field", ["eval", "code", "scheme"],
        lambda d: d["scheme"]["per_node"][0]["M"].update(rows=0, cols=0,
                                                         entries=[])),
    "per_node string": (3, "MalformedInput: per_node must be a list",
                        ["eval", "code", "scheme"],
                        lambda d: d["scheme"].update(per_node="[]")),
    "per_node dict": (3, "MalformedInput: per_node must be a list",
                      ["eval", "code", "scheme"],
                      lambda d: d["scheme"].update(per_node={
                          str(e["i"]): e for e in d["scheme"]["per_node"]})),
    "short H": (3, "MalformedInput: node 3: H must be 2 columns of length 4",
                ["check-mds", "code"],
                lambda d: d["code"]["nodes"][3]["H"].pop()),
    "long X": (3, "MalformedInput: node 4: X must be 2 points of length 4",
               ["check-mds", "code"],
               lambda d: d["code"]["nodes"][4]["X"].append([1, 0, 0, 0])),
    "missing ell": (3, "MalformedInput: bad code object: 'ell'",
                    ["check-mds", "code"], lambda d: d["code"].pop("ell")),
    **{f"{fault} {argv[0]}": (3, message, argv, edit)
       for argv in (["check-mds", "code"], ["eval", "code", "scheme"],
                    SIMULATE)
       for fault, message, edit in [
           ("X=2H", "MalformedInput: node 2: X points are not canonical",
            _double_x),
           *[(f"label {value}", "MalformedInput: node 1: label must be a "
              "JSON string",
              lambda d, v=value: d["code"]["nodes"][1].update(label=v))
             for value in (7, None, [1])]]},
}


@pytest.mark.parametrize("case", list(EXIT_CONTRACT))
def test_exit_code_contract(workspace, tmp_path, capsys, case):
    code, start, argv, edit = EXIT_CONTRACT[case]
    docs = {name: json.loads((workspace / f"{name}.json").read_text())
            for name in ("code", "scheme")}
    if edit is not None:
        edit(docs)
    files = dict(zip(docs, _write_docs(docs, tmp_path)))
    assert main([files.get(a, a) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and "Traceback" not in err


def _slow_routes(monkeypatch):
    """Send every load through the node-by-node and entry-by-entry loops."""
    monkeypatch.setattr(codes, "_node_arrays", lambda *args: None)
    monkeypatch.setattr(repair, "_scheme_stack", lambda *args: None)


# case -> (argv, edit) for every case of the three fault tables
FAULT_CASES = {
    **{f"loader {case}": (["eval", "code", "scheme"],
                          lambda d, f=faults: [_apply(d, *fault)
                                               for fault in f])
       for case, faults in LOADER_FAULTS.items()},
    **{f"lax {case}": ([command, "code"]
                       + (["scheme"] if command == "eval" else []),
                       lambda d, f=faults: _retype(d, f))
       for case, (command, faults, _) in LAX_INTEGERS.items()},
    **{f"exit {case}": (argv, edit or (lambda d: None))
       for case, (_, _, argv, edit) in EXIT_CONTRACT.items()},
}


@pytest.mark.parametrize("case", list(FAULT_CASES))
def test_both_load_routes_name_every_fault_alike(workspace, tmp_path, capsys,
                                                 monkeypatch, case):
    argv, edit = FAULT_CASES[case]
    docs = {name: json.loads((workspace / f"{name}.json").read_text())
            for name in ("code", "scheme")}
    edit(docs)
    files = dict(zip(docs, _write_docs(docs, tmp_path)))
    argv = [files.get(a, a) for a in argv]
    fast = main(argv), capsys.readouterr().err
    assert fast[0] in {2, 3, 4}
    _slow_routes(monkeypatch)
    assert (main(argv), capsys.readouterr().err) == fast


DEEP_FILES = {"code": ("tower",), "scheme": ("per_node",)}
DEEP_COMMANDS = {"check-mds": ["code"], "eval": ["code", "scheme"],
                 "bruteforce": ["code"], "simulate": ["code", "scheme"]}


@pytest.mark.parametrize("command,deep", [
    (command, name) for command, files in DEEP_COMMANDS.items()
    for name in files])
def test_deeply_nested_json_exits_3(workspace, tmp_path, capsys, command,
                                    deep):
    # 100000 nested lists are deeper than json's decoder can recurse
    doc = json.loads((workspace / f"{deep}.json").read_text())
    doc[DEEP_FILES[deep][0]] = "@"
    (tmp_path / f"{deep}.json").write_text(
        json.dumps(doc).replace('"@"', "[" * 100_000 + "]" * 100_000))
    paths = [str((tmp_path if name == deep else workspace) / f"{name}.json")
             for name in DEEP_COMMANDS[command]]
    extra = {"bruteforce": ["--node", "1"], "simulate": ["--trials", "2"]}
    start = time.perf_counter()
    assert main([command, *paths, *extra.get(command, [])]) == 3
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "MalformedInput" in err and "nested too deeply" in err
    assert "Traceback" not in err


def _mutable_paths(obj, path=()):
    """Paths to the integer, string and list fields of a JSON document.

    Inside lists only the first and the last element are descended into,
    which keeps the path set small while still reaching every kind of field.
    """
    if isinstance(obj, dict):
        items = [(k, v) for k, v in obj.items() if k != "provenance"]
    elif isinstance(obj, list):
        items = [(k, obj[k]) for k in sorted({0, len(obj) - 1})] if obj else []
    else:
        return [path] if type(obj) in (int, str) else []
    out = [path] if isinstance(obj, list) else []
    for key, value in items:
        out += _mutable_paths(value, path + (key,))
    return out


FUZZ_VALUES = [0, -1, 7, 2 ** 40, HUGE, "7", None, [], [1, 0], 0.5, 1e300,
               [2, 0, 1], [1, 0, 0, 1]]


@pytest.fixture(scope="module")
def fuzz_docs(workspace):
    docs = {name: json.loads((workspace / f"{name}.json").read_text())
            for name in ("code", "scheme")}
    paths = [(name, *path) for name, doc in docs.items()
             for path in _mutable_paths(doc)]
    return docs, paths


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_fail_classified_and_fast(fuzz_docs, tmp_path, capsys,
                                                 data):
    docs, paths = fuzz_docs
    docs = copy.deepcopy(docs)
    mutations = data.draw(st.lists(
        st.tuples(st.sampled_from(paths), st.sampled_from(FUZZ_VALUES)),
        min_size=1, max_size=2))
    for path, value in mutations:
        try:
            _apply(docs, path, value)
        except (IndexError, TypeError):
            pass  # an earlier mutation replaced a container on this path
    files = _write_docs(docs, tmp_path)
    start = time.perf_counter()
    try:
        re, _, _ = realization_from_json(docs["code"])
        scheme_from_json(docs["scheme"], re.skeleton.tower.base)
    except RepairToolError:
        pass
    code, scheme = files
    for argv in (["eval", code, scheme],
                 ["bruteforce", code, "--node", "1", "--budget", "1",
                  "--jobs", "1"],
                 ["simulate", code, scheme, "--trials", "1", "--jobs", "1"]):
        assert main(argv) in {0, 1, 3, 4}, argv  # 2 is for flags, not files
        assert "Traceback" not in capsys.readouterr().err, argv
    assert time.perf_counter() - start < 2.0


@pytest.fixture(scope="module")
def docs5(tmp_path_factory):
    d = tmp_path_factory.mktemp("q5")
    assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                 "--n", "24", "--out", str(d)]) == 0
    docs = {name: json.loads((d / f"{name}.json").read_text())
            for name in ("code", "scheme")}
    paths = [(name, *path) for name, doc in docs.items()
             for path in _mutable_paths(doc)]
    return docs, paths


def _load_outcome(docs):
    """What the loaders make of the files: arrays and labels, or the error.

    The scheme is loaded over F_5 even when the code does not load.
    """
    out = []
    try:
        re, labels, _ = realization_from_json(docs["code"])
        s = re.skeleton
        out += [a.tolist() for a in (re.points, s.bases, s.pivots)] + [labels]
    except RepairToolError as exc:
        out.append((type(exc), str(exc), exc.exit_code))
    try:
        sch, _ = scheme_from_json(docs["scheme"], build_tower(5, 1, 2).base)
        out.append(sch.stack.tolist())
    except RepairToolError as exc:
        out.append((type(exc), str(exc), exc.exit_code))
    return out


# one-field corruptions: a fixed value, or the same number as a float or
# a bool
CORRUPTIONS = [
    *[lambda v, x=x: copy.deepcopy(x)
      for x in FUZZ_VALUES + [True, -3, 4, 5, {}, "free"]],
    lambda v: v + 0.0 if type(v) is int else 0.0,
    lambda v: bool(v) if type(v) is int else True,
]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_both_load_routes_agree_on_corrupted_files(docs5, monkeypatch, data):
    docs, paths = docs5
    docs = copy.deepcopy(docs)
    path = data.draw(st.sampled_from(paths))
    _retype(docs, [(path, data.draw(st.sampled_from(CORRUPTIONS)))])
    fast = _load_outcome(docs)
    with monkeypatch.context() as m:
        _slow_routes(m)
        assert _load_outcome(docs) == fast


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_both_load_routes_agree_on_valid_files(docs5, monkeypatch, data):
    # any 3 or more of the nodes in any order, with any labels, and the
    # scheme entries in any order, make valid files
    docs = copy.deepcopy(docs5[0])
    keep = data.draw(st.lists(st.integers(0, 23), min_size=3, max_size=24,
                              unique=True))
    code, scheme = docs["code"], docs["scheme"]
    code["n"] = len(keep)
    code["nodes"] = [dict(code["nodes"][i], label=data.draw(st.text(
        max_size=4))) for i in keep]
    scheme["per_node"] = data.draw(st.permutations(
        [{"i": k + 1, "M": scheme["per_node"][i]["M"]}
         for k, i in enumerate(keep)]))
    fast = _load_outcome(docs)
    assert len(fast) == 5  # both files load
    with monkeypatch.context() as m:
        _slow_routes(m)
        assert _load_outcome(docs) == fast


@pytest.mark.parametrize("command", [
    ["bruteforce", "code.json", "--node", "3", "--objective", "io"],
    ["simulate", "code.json", "scheme.json", "--trials", "4", "--seed", "2"],
], ids=["bruteforce", "simulate"])
def test_jobs_clamped_to_cpu_count(workspace, monkeypatch, capsys, command):
    argv = [str(workspace / a) if a.endswith(".json") else a for a in command]
    argv += ["--format", "json"]
    assert main(argv + ["--jobs", "1"]) == 0
    solo = json.loads(capsys.readouterr().out)

    pools = []

    class InlinePool:
        """Records the requested pool size and runs the tasks in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # _fan_out imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert main(argv + ["--jobs", str(10 ** 6)]) == 0
    assert pools == [3]
    assert json.loads(capsys.readouterr().out) == solo


def test_one_part_commands_import_no_pool(workspace):
    # the pool's modules are imported only when a command runs more than
    # one part, so a --jobs 1 command pays nothing for them
    script = ("import sys\n"
              "from mdsrepair.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith("
              "('multiprocessing', 'concurrent.futures.'))), file=sys.stderr)")
    src = str(Path(mdsrepair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    for argv in (["bruteforce", str(workspace / "code.json"), "--node", "2",
                  "--jobs", "1"],
                 ["simulate", str(workspace / "code.json"),
                  str(workspace / "scheme.json"), "--trials", "1",
                  "--jobs", "2"]):  # one trial: one part
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert done.returncode == 0, done.stderr
        assert done.stderr.strip().splitlines()[-1] == "[]"


def test_bruteforce_budget_exit(workspace, capsys):
    assert main(["bruteforce", str(workspace / "code.json"), "--node", "1",
                 "--budget", "10"]) == 4
    assert "130" in capsys.readouterr().err


def test_simulate_deterministic(workspace, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["simulate", str(workspace / "code.json"),
            str(workspace / "scheme.json"), "--trials", "5", "--seed", "21"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["seed"] == 21 and doc["trials"] == 5
    assert all(r["downloaded"] == 12 and r["accessed"] == 12
               for r in doc["per_node"])


def test_simulate_single_node_and_jobs(workspace, capsys):
    assert main(["simulate", str(workspace / "code.json"),
                 str(workspace / "scheme.json"), "--trials", "4",
                 "--seed", "2", "--node", "5", "--format", "json"]) == 0
    solo = json.loads(capsys.readouterr().out)
    assert len(solo["per_node"]) == 1 and solo["per_node"][0]["i"] == 5
    assert main(["simulate", str(workspace / "code.json"),
                 str(workspace / "scheme.json"), "--trials", "4",
                 "--seed", "2", "--node", "5", "--jobs", "2",
                 "--format", "json"]) == 0
    fan = json.loads(capsys.readouterr().out)
    assert fan["per_node"] == solo["per_node"]
    assert fan["trials"] == solo["trials"]


def test_simulate_jobs_match_at_1000_trials(workspace, tmp_path, monkeypatch):
    # one process replays chunks of 256 trials and a last one of 232, two
    # processes chunks of 256 and 244 each: the same report, byte for byte
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert main(["simulate", str(workspace / "code.json"),
                     str(workspace / "scheme.json"), "--trials", "1000",
                     "--seed", "5", "--jobs", jobs, "--format", "json",
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["trials"] == 1000


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--trials", "0"),
                                        ("--trials", "-3")])
def test_simulate_rejects_bad_seed_and_trials(workspace, capsys, flag, value,
                                              jobs):
    argv = ["simulate", str(workspace / "code.json"),
            str(workspace / "scheme.json"), "--jobs", jobs, flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"BadParameters: {flag}" in err


def test_simulate_jobs_checks_the_scheme_length_first(workspace, tmp_path,
                                                      monkeypatch, capsys):
    scheme = json.loads((workspace / "scheme.json").read_text())
    del scheme["per_node"][-1]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(scheme))

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the scheme-length check")

    monkeypatch.setattr(CodeSkeleton, "mds_witness", refuse)
    monkeypatch.setattr(cli, "_fan_out", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main(["simulate", str(workspace / "code.json"), str(short),
                 "--trials", "4", "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert "BadShape: scheme has 8 matrices for 9 nodes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["bruteforce", "code.json", "--node", "1", "--range", "0:100"],
    ["simulate", "code.json", "scheme.json", "--trials", "4", "--seed", "2"],
], ids=["bruteforce", "simulate"])
def test_jobs_send_workers_only_the_loaded_code(workspace, tmp_path,
                                                monkeypatch, command):
    # a provenance 900 lists deep loads, but pickling it to a worker
    # would pass the recursion limit; workers get the code written anew
    deep = []
    for _ in range(899):
        deep = [deep]
    for name in ("code.json", "scheme.json"):
        doc = json.loads((workspace / name).read_text())
        doc["provenance"] = deep
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert main(argv + ["--jobs", jobs, "--format", "json",
                            "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_simulate_jobs_refuses_workers_that_disagree(workspace, monkeypatch):
    # every worker replays the same scheme, so their counts can only differ
    # through a fault; the parts are computed in this process
    def skewed(worker, start, stop, jobs, *args):
        mid = (start + stop) // 2
        parts = [worker(*args, start, mid), worker(*args, mid, stop)]
        parts[1] = dataclasses.replace(
            parts[1], accessed=tuple(a + 1 for a in parts[1].accessed))
        return parts

    monkeypatch.setattr(cli, "_fan_out", skewed)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["simulate", str(workspace / "code.json"),
            str(workspace / "scheme.json"), "--trials", "4", "--jobs", "2"]
    with pytest.raises(InternalInconsistency,
                       match="workers disagree on transcript counts"):
        main(argv)


def test_every_exported_name_resolves():
    missing = [name for name in mdsrepair.__all__
               if not hasattr(mdsrepair, name)]
    assert missing == []
    assert len(set(mdsrepair.__all__)) == len(mdsrepair.__all__)


def test_sweep(capsys):
    assert main(["sweep", "--p", "3", "--ell", "2", "--r", "2",
                 "--n-min", "8", "--n-max", "10", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["rows"]
    assert [r["n"] for r in rows] == [8, 9, 10]
    assert [r["beta_max"] for r in rows] == [10, 12, 14]
    assert [r["gamma_max"] for r in rows] == [10, 12, 14]
    assert all(r["equality"] for r in rows)


# sha256 of code.json and scheme.json written by construct
PINNED_ARTIFACTS = {
    "q3-r2-n9": (["--p", "3", "--ell", "2", "--r", "2", "--n", "9"],
                 "8f3c1889450fca32bc1fbcf112126f99a2cbed75e48afe7e2e49cf88d6a12401",
                 "c139b06380a61edb719caeb2a63c57f5bba7988d3b82dcfe4c6f100672655afd"),
    "q4-r2-n10": (["--p", "2", "--m", "2", "--ell", "2", "--r", "2", "--n", "10"],
                  "e935c2904e178fceee6456929843cdd4e2c6de31328db67b247d6566a5ea933a",
                  "6ccf5202a1e26ae22c90fafbb9822ad2928dde8e1fb4e0928ce0929f61819cc5"),
    "q5-r3-n24": (["--p", "5", "--ell", "2", "--r", "3", "--n", "24"],
                  "5234125e9c2eefd47e091c828f0315cbb2b253933593a211e28e78ed469fc0f4",
                  "0c11a1f30931496b70d5b61e0f959662fc18336ffe870e1b6725f6a858edf025"),
    # the build workload's code; the hashes of perfbench/references.json
    "q9-r3-n82": (["--p", "3", "--m", "2", "--ell", "2", "--r", "3", "--n", "82"],
                  "abd4d3a46c7d6905c293f938c0b8750bf714dd7a5c8df92cc8d6458a12f22cb5",
                  "9f337630ce22bd6e760ec634b25ee48cd97337bda7bfeeafb824110a1aa4c851"),
    # three norm-one cosets per block
    "q7-r4-n48": (["--p", "7", "--ell", "2", "--r", "4", "--n", "48"],
                  "d8093814fb7b39e97a9654d33c69454d668bbd658671c21a09032d37055438cf",
                  "3a19d48637d764ff5af3d9b9ffd5aa067a008d6d86c59214874467ad2d4469d1"),
    # a cubic ext_poly
    "q5-l3-r3-n126": (["--p", "5", "--ell", "3", "--r", "3", "--n", "126"],
                      "79f70b3861f177140c2f07a48d558ac5185a854ebb4e66bf482545d3d3c94ea5",
                      "be651954511ba49084634001febb510dea596169a684d66dc77a1c9f6632fedf"),
    # a non-prime base under a cubic extension
    "q4-l3-r2-n42": (["--p", "2", "--m", "2", "--ell", "3", "--r", "2", "--n", "42"],
                     "724dffcc09681882842786c922f0c9013e4e5c0be2475b0bbee968e6761eda25",
                     "4fb7f79827298c23ab59647b75453309710daa4cb5a01e81f36126f243e8f8d1"),
    # a degree-5 base_poly, 1023 top units, |Sigma| = 33
    "q32-r2-n66": (["--p", "2", "--m", "5", "--ell", "2", "--r", "2", "--n", "66"],
                   "877d8c9b89c54877263ab2d27c670a9e82efbf29eda3e007c333d0b09ac7c416",
                   "ed9cf4f5751cb4371bb3041b6c6e54675bfa0a56954929189a4641042efc2f6d"),
}


@pytest.fixture
def dumps_oracle(monkeypatch):
    """Check every document cli._dumps writes against json.dumps.

    Returns the list of the documents written.
    """
    written = []
    fast = cli._dumps

    def checked(obj):
        text = fast(obj)
        assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        written.append(obj)
        return text

    monkeypatch.setattr(cli, "_dumps", checked)
    return written


@pytest.mark.parametrize("point", list(PINNED_ARTIFACTS))
def test_construct_artifacts_pinned(tmp_path, monkeypatch, dumps_oracle,
                                    point):
    argv, code_sha, scheme_sha = PINNED_ARTIFACTS[point]
    # construct's realize and both loaders run whole-array steps only
    for module, loop in ((codes, "_column_faults"), (codes, "_load_nodes"),
                         (repair, "_load_entries")):
        monkeypatch.setattr(module, loop, _refuse(loop))
    assert main(["construct", *argv, "--out", str(tmp_path)]) == 0
    texts = {}
    for name, sha in (("code", code_sha), ("scheme", scheme_sha)):
        data = (tmp_path / f"{name}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha, name
        texts[name] = data.decode()
    # load then save writes the same bytes
    re, labels, prov = realization_from_json(json.loads(texts["code"]))
    assert cli._dumps(realization_to_json(re, labels, prov)) == texts["code"]
    sch, prov = scheme_from_json(json.loads(texts["scheme"]),
                                 re.skeleton.tower.base)
    assert cli._dumps(scheme_to_json(sch, prov)) == texts["scheme"]
    assert len(dumps_oracle) == 4


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refuse


# sha256 of the eval --format json report on construct's files
PINNED_EVAL = {
    "q9-r3-n82": "4b44df7dce028ea92d7a0a2401ae00c749d4842b760c2d901e5973d1725fc0b9",
    "q5-r3-n24": "e7f6481ff2dbcbc3e99ddf5f439005d068bba244a7cfceacdbc4619f8ffd12e4",
}


@pytest.mark.parametrize("point", list(PINNED_EVAL))
def test_eval_report_pinned(tmp_path, dumps_oracle, point):
    argv = PINNED_ARTIFACTS[point][0]
    assert main(["construct", *argv, "--out", str(tmp_path)]) == 0
    report = tmp_path / "eval.json"
    assert main(["eval", str(tmp_path / "code.json"),
                 str(tmp_path / "scheme.json"), "--format", "json",
                 "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        PINNED_EVAL[point]


@pytest.mark.parametrize("argv", [
    ["check-mds", "code.json"],
    ["bounds", "--q", "9", "--ell", "2", "--r", "3", "--n", "82"],
    ["bruteforce", "code.json", "--node", "2", "--objective", "io"],
    ["simulate", "code.json", "scheme.json", "--trials", "3", "--node", "4"],
    ["sweep", "--p", "3", "--ell", "2", "--r", "2", "--n-min", "8",
     "--n-max", "9"],
], ids=lambda argv: argv[0])
def test_reports_are_written_as_json_dumps_writes_them(workspace, capsys,
                                                       dumps_oracle, argv):
    argv = [str(workspace / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--format", "json"]) == 0
    doc, = dumps_oracle
    assert capsys.readouterr().out == \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"


TRICKY_TEXT = ["", "free", "inf", "\u00e9\u2603\U0001f600", '"\\/\b\f\n\r\t',
               "\x00\x1f\x7f", "\ud800"]
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(),
    st.integers(), st.integers(-10 ** 40, 10 ** 40),
    st.text(max_size=8), st.sampled_from(TRICKY_TEXT))
JSON_TREES = st.recursive(
    JSON_SCALARS | st.lists(st.integers() | st.booleans(), max_size=6),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.tuples(kids, kids)
                  | st.dictionaries(st.text(max_size=4)
                                    | st.sampled_from(TRICKY_TEXT), kids,
                                    max_size=4)
                  | st.dictionaries(st.integers(-3, 3), kids, max_size=3)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(tree=JSON_TREES)
def test_writer_writes_what_json_dumps_writes(tree):
    assert cli._dumps(tree) == \
        json.dumps(tree, indent=2, sort_keys=True) + "\n"


def test_construct_reruns_byte_identical(tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    for d in (d1, d2):
        assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                     "--n", "24", "--out", str(d)]) == 0
    assert (d1 / "code.json").read_bytes() == (d2 / "code.json").read_bytes()
    assert (d1 / "scheme.json").read_bytes() == \
        (d2 / "scheme.json").read_bytes()


def _refuse_work(monkeypatch):
    """Make every command's main computation fail loudly if it runs."""
    def boom(*args, **kwargs):
        raise AssertionError("the command computed before checking --out")
    for name in ("build", "evaluate_scheme", "bruteforce_overlap",
                 "bruteforce_column_hits", "campaign", "bounds_report"):
        monkeypatch.setattr(cli, name, boom)
    # check-mds asks the skeleton, which holds the certificate and the scan
    monkeypatch.setattr(CodeSkeleton, "mds_witness", boom)


def test_construct_refuses_a_file_as_out_dir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "code.json"
    target.write_text("{}")
    _refuse_work(monkeypatch)
    for out in (target, target / "sub"):
        assert main(["construct", "--p", "3", "--ell", "2", "--r", "2",
                     "--n", "9", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"BadParameters: --out {out}: {target} is not a directory" \
            in err
    assert target.read_text() == "{}"


@pytest.mark.parametrize("command", [
    ["check-mds", "code.json"],
    ["bounds", "--q", "3", "--ell", "2", "--r", "2", "--n", "9"],
    ["eval", "code.json", "scheme.json"],
    ["bruteforce", "code.json", "--node", "1"],
    ["simulate", "code.json", "scheme.json", "--trials", "3"],
    ["sweep", "--p", "3", "--ell", "2", "--r", "2", "--n-min", "8",
     "--n-max", "9"],
], ids=lambda c: c[0])
def test_unwritable_out_rejected_before_work(workspace, tmp_path, monkeypatch,
                                             capsys, command):
    argv = [str(workspace / a) if a.endswith(".json") else a for a in command]
    _refuse_work(monkeypatch)
    missing = tmp_path / "nodir" / "x.json"
    assert main(argv + ["--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"BadParameters: --out {missing}: no directory" in err
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"BadParameters: --out {tmp_path} is a directory" in err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["bruteforce", "code.json", "--node", "1"],
    ["simulate", "code.json", "scheme.json", "--trials", "3"],
], ids=["bruteforce", "simulate"])
def test_jobs_below_one_rejected(workspace, monkeypatch, capsys, command,
                                 jobs):
    argv = [str(workspace / a) if a.endswith(".json") else a for a in command]
    _refuse_work(monkeypatch)
    assert main(argv + ["--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"BadParameters: --jobs must be at least 1, got {jobs}" in err


@pytest.mark.parametrize("extra", [[], ["--range", "0:10"]])
def test_bruteforce_rejects_a_negative_budget(workspace, monkeypatch, capsys,
                                              extra):
    def boom(*args):
        raise AssertionError("the code file was read before checking --budget")

    monkeypatch.setattr(cli, "_load_json", boom)
    assert main(["bruteforce", str(workspace / "code.json"), "--node", "1",
                 "--budget", "-1", *extra]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "BadParameters: --budget must be nonnegative, got -1" in err


def test_sweep_rejects_an_empty_length_range(monkeypatch, capsys):
    _refuse_work(monkeypatch)
    assert main(["sweep", "--p", "3", "--ell", "2", "--r", "2",
                 "--n-min", "10", "--n-max", "8", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BadParameters: --n-min 10 is greater than --n-max 8" \
        in captured.err


@pytest.mark.parametrize("n_min,n_max,bad", [
    ("24", "100000", 27),  # the range runs past the longest length, 26
    ("20", "25", 20),      # it starts below the shortest, 24
])
def test_sweep_checks_every_length_before_building(monkeypatch, capsys,
                                                   n_min, n_max, bad):
    built = []
    monkeypatch.setattr(cli, "build", lambda params: built.append(params))
    assert main(["sweep", "--p", "5", "--ell", "2", "--r", "3",
                 "--n-min", n_min, "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert built == [] and captured.out == ""
    assert "Traceback" not in captured.err
    assert f"LengthOutOfRange: length n={bad} outside the constructible " \
           "range [24, 26]" in captured.err


def test_package_errors_survive_pickling():
    # a --jobs worker hands its error to the parent through pickle
    for exc in (NotMds((0, 2, 5)), NotARepairMatrix(3),
                BudgetExceeded(7, "x", "y"), LengthOutOfRange(9, 4, 8),
                NonPrime(4), ReduciblePolynomial("poly", (1, 0, 1)),
                MalformedInput("bad input")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and vars(back) == vars(exc)


def test_simulate_jobs_fan_out_writes_identical_bytes(workspace, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert main(["simulate", str(workspace / "code.json"),
                     str(workspace / "scheme.json"), "--trials", "9",
                     "--seed", "13", "--jobs", jobs,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_eval_wrong_width_scheme_exits_3(workspace, tmp_path, capsys):
    scheme = json.loads((workspace / "scheme.json").read_text())
    for cols in (3, 5):
        for entry in scheme["per_node"]:
            entry["M"] = {"rows": 2, "cols": cols,
                          "entries": [1] + [0] * cols + [1] + [0] * (cols - 2)}
        p = tmp_path / f"wide{cols}.json"
        p.write_text(json.dumps(scheme))
        assert main(["eval", str(workspace / "code.json"), str(p)]) == 3
        err = capsys.readouterr().err
        assert "BadShape: repair matrix must be 2 x 4" in err
        assert "Traceback" not in err and "ValueError" not in err


def test_eval_names_the_node_a_matrix_cannot_repair(workspace, tmp_path,
                                                    capsys):
    scheme = json.loads((workspace / "scheme.json").read_text())
    # node 9 (index 8) is repaired with the first block's kernel, which
    # meets every first-block node, node 3 (index 2) among them
    scheme["per_node"][2]["M"] = scheme["per_node"][8]["M"]
    p = tmp_path / "swapped.json"
    p.write_text(json.dumps(scheme))
    assert main(["eval", str(workspace / "code.json"), str(p)]) == 3
    err = capsys.readouterr().err
    assert "NotARepairMatrix: matrix does not repair node 2" in err
    assert "Traceback" not in err
