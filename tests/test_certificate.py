"""The curve certificate for MDS, its fallback to the exhaustive scan, and
the work bounds on input files.

``check_mds`` is the oracle throughout: the certificate may only ever say
"MDS" where the scan agrees, and every code whose labels it refuses must
get the scan's own verdict.
"""

import json
import math
import os
import pickle
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdsrepair import cli, codes, nrc, repair, simulate
from mdsrepair.cli import main
from mdsrepair.codes import check_mds, realization_from_json
from mdsrepair.errors import InternalInconsistency, NotMds
from mdsrepair.gf import build_tower
from mdsrepair.linalg import Matrix
from mdsrepair.nrc import INF, build, curve_certificate, validate_params

import tower_maps as tm
from curve_rows import curve_rows

SRC = Path(__file__).resolve().parents[1] / "src"

# (p, m, ell, r, n) of every constructed point the suite checks
NRC_POINTS = [(3, 1, 2, 2, 9), (5, 1, 2, 3, 24), (5, 1, 2, 3, 26),
              (3, 2, 2, 3, 82), (7, 1, 2, 4, 48), (5, 1, 3, 3, 126)]
TOWERS = [(3, 1, 2, 2), (5, 1, 2, 3), (3, 2, 2, 3), (7, 1, 2, 4),
          (5, 1, 3, 3), (2, 2, 2, 2), (3, 1, 3, 2), (13, 1, 2, 4)]


def _scalar_curve_rows(tower, r, c):
    """The per-parameter route: moment vector, z^t times it, field reduction."""
    top = tower.top
    nu = [0] * (r - 1) + [1] if c is INF else [tm.power(top, c, e)
                                                 for e in range(r)]
    rows = np.empty((tower.ell, r * tower.ell), dtype=np.int64)
    for t in range(tower.ell):
        zt = tower.q ** t
        rows[t] = [d for x in nu for d in tm.coords(tower, tm.mul(top, zt, x))]
    return rows


@pytest.mark.parametrize("p,m,ell,r", TOWERS)
def test_curve_stack_matches_the_per_parameter_route(p, m, ell, r):
    tower = build_tower(p, m, ell)
    params = list(range(tower.top_order)) + [INF]
    stack = nrc._curve_stack(tower, r, params)
    want = np.stack([_scalar_curve_rows(tower, r, c) for c in params])
    assert stack.shape == (len(params), ell, r * ell)
    assert np.array_equal(stack, want)
    for c in (0, 1, INF, tower.top_order - 1):
        assert np.array_equal(curve_rows(tower, r, c),
                              _scalar_curve_rows(tower, r, c))
    # the rows are their own canonical basis, which the certificate reads
    assert np.array_equal(codes.CodeSkeleton(tower, r, stack).bases, stack)


def _bundle(p, m, ell, r, n):
    return build(validate_params(build_tower(p, m, ell), r, n))


def _relabelled(s, labels):
    return codes.CodeSkeleton(s.tower, s.r, s.bases, labels)


@pytest.mark.parametrize("point", NRC_POINTS, ids=str)
def test_certificate_agrees_with_check_mds(point):
    s = _bundle(*point).skeleton
    assert curve_certificate(s)
    assert check_mds(s) is None
    # the same nodes under any other labels, or none, are not certified
    rng = random.Random(point[-1])
    labels = list(s.labels)
    i, j = rng.sample(range(s.n), 2)
    labels[i], labels[j] = labels[j], labels[i]
    assert not curve_certificate(_relabelled(s, labels))
    assert not curve_certificate(_relabelled(s, None))


@pytest.mark.parametrize("point", NRC_POINTS[:2] + [NRC_POINTS[4]], ids=str)
def test_certificate_never_passes_a_non_mds_skeleton(point):
    s = _bundle(*point).skeleton
    rng = random.Random(sum(point))
    for _ in range(20):
        bases = s.bases.copy()
        i, j = rng.sample(range(s.n), 2)
        bases[i] = bases[j]
        bad = codes.CodeSkeleton(s.tower, s.r, bases, s.labels)
        assert not curve_certificate(bad)
        assert check_mds(bad) is not None
        assert bad.mds_witness() == check_mds(bad)


def test_certificate_holds_for_exactly_the_true_labels():
    s = _bundle(3, 1, 2, 2, 10).skeleton  # labels 0..8 and inf
    rng = random.Random(5)
    names = [str(c) for c in range(9)] + ["inf"]
    for _ in range(300):
        labels = list(s.labels)
        for k in rng.sample(range(s.n), rng.randint(1, 3)):
            labels[k] = rng.choice(names)
        assert curve_certificate(_relabelled(s, labels)) == \
            (labels == list(s.labels))


def test_certificate_reads_only_canonical_labels():
    s = _bundle(3, 2, 2, 3, 82).skeleton  # q^l = 81, so "01" fits in 2 digits
    for node, texts in (("1", ("01", "+1", " 1", "1 ", "-1", "1.0", "\u0661",
                               "1" * 5000)),
                        ("10", ("010", "1_0", "+10", "10.", "1e1")),
                        ("0", ("00", "-0", "+0", "81", "free")),
                        ("inf", ("INF", "Inf", " inf", "81", "-1"))):
        at = s.labels.index(node)
        for text in texts:
            labels = list(s.labels)
            labels[at] = text
            assert not curve_certificate(_relabelled(s, labels)), (node, text)
    assert curve_certificate(s)


# -- code.json variants --------------------------------------------------------------


@pytest.fixture(scope="module")
def curve_code(tmp_path_factory):
    d = tmp_path_factory.mktemp("curve")
    assert main(["construct", "--p", "3", "--ell", "2", "--r", "2",
                 "--n", "10", "--out", str(d)]) == 0
    return d


def _variant(curve_code, tmp_path, change):
    obj = json.loads((curve_code / "code.json").read_text())
    change(obj["nodes"])
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(obj))
    return path, obj


def _relabel(index, label):
    def change(nodes):
        nodes[index]["label"] = label
    return change


def _swap(nodes):
    nodes[0]["label"], nodes[1]["label"] = nodes[1]["label"], nodes[0]["label"]


def _inf_twice(nodes):
    nodes[0] = dict(nodes[-1])  # the node at infinity, label and all


def _node_twice(nodes):
    nodes[1] = dict(nodes[0])


def _repeat_a_node(nodes):
    # node 5 becomes node 2's subspace but keeps its own valid label
    for key in ("H", "X"):
        nodes[5][key] = nodes[2][key]


def _adversarial_changes(curve_code):
    obj = json.loads((curve_code / "code.json").read_text())
    labels = [nd["label"] for nd in obj["nodes"]]
    assert labels[-1] == "inf"
    one = labels.index("1")
    changes = {"swap": _swap, "duplicate": _relabel(1, labels[0]),
               "inf twice": _inf_twice, "node twice": _node_twice,
               "non-MDS": _repeat_a_node,
               "5000 digits": _relabel(one, "1" * 5000)}
    for text in ("01", "+1", " 1", "-1", "1.0", "9", "free"):
        changes[repr(text)] = _relabel(one, text)  # q^l = 9
    return changes


def test_adversarial_labels_fall_back_to_the_scan(curve_code, tmp_path,
                                                  monkeypatch, capsys):
    calls = []
    real = codes.check_mds

    def counted(s):
        calls.append(s.n)
        return real(s)

    monkeypatch.setattr(codes, "check_mds", counted)
    witnesses = {}
    for name, change in _adversarial_changes(curve_code).items():
        path, obj = _variant(curve_code, tmp_path, change)
        re, _, _ = realization_from_json(obj)
        assert not curve_certificate(re.skeleton), name
        witness = witnesses[name] = real(re.skeleton)
        calls.clear()
        rc = main(["check-mds", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        assert calls == [10], name
        assert "Traceback" not in err
        if witness is None:
            assert rc == 0, name
            assert json.loads(out) == {"v": 1, "ok": True, "subsets": 45}
        else:
            assert rc == 1, name
            assert json.loads(out) == {"v": 1, "ok": False,
                                       "witness": [i + 1 for i in witness]}
    # only the variants with a repeated subspace have a witness
    assert {k: w for k, w in witnesses.items() if w} == {
        "inf twice": (0, 9), "node twice": (0, 1), "non-MDS": (2, 5)}


# -- where check_mds runs ------------------------------------------------------------


def _commands(d):
    code, scheme = str(d / "code.json"), str(d / "scheme.json")
    return {
        "check-mds": ["check-mds", code, "--format", "json"],
        "simulate": ["simulate", code, scheme, "--trials", "3",
                     "--format", "json"],
        "bruteforce": ["bruteforce", code, "--node", "1", "--range", "0:50",
                       "--format", "json"],
    }


def _free_labelled(curve: Path, free: Path) -> Path:
    """A copy of the code and scheme in ``curve`` with every label "free"."""
    free.mkdir()
    obj = json.loads((curve / "code.json").read_text())
    for nd in obj["nodes"]:
        nd["label"] = "free"
    (free / "code.json").write_text(json.dumps(obj))
    (free / "scheme.json").write_text((curve / "scheme.json").read_text())
    return free


def test_check_mds_runs_only_without_a_certificate(tmp_path, monkeypatch,
                                                   capsys):
    calls = []
    real = codes.check_mds
    monkeypatch.setattr(codes, "check_mds",
                        lambda s: calls.append(s.n) or real(s))
    curve = tmp_path / "curve"
    assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                 "--n", "24", "--out", str(curve)]) == 0
    assert calls == []
    capsys.readouterr()
    free = _free_labelled(curve, tmp_path / "free")
    reports = {}
    for name, argv in _commands(curve).items():
        assert main(argv) == 0, name
        assert calls == [], name
        reports[name] = capsys.readouterr().out
    for name, argv in _commands(free).items():
        calls.clear()
        assert main(argv) == 0, name
        assert calls == [24], name
        assert capsys.readouterr().out == reports[name], name


def test_build_falls_back_to_check_mds(monkeypatch, tower3):
    monkeypatch.setattr(nrc, "curve_certificate", lambda s: False)
    calls = []
    real = codes.check_mds
    monkeypatch.setattr(codes, "check_mds",
                        lambda s: calls.append(s.n) or real(s))
    bundle = build(validate_params(tower3, 2, 9))
    assert calls == [9] and bundle.skeleton.mds_witness() is None
    monkeypatch.setattr(codes, "check_mds", lambda s: (0, 1))
    with pytest.raises(InternalInconsistency,
                       match="constructed skeleton not MDS: \\(0, 1\\)"):
        build(validate_params(tower3, 2, 9))


def test_large_curve_build_needs_no_scan(monkeypatch):
    def refuse(s):
        raise AssertionError("check_mds ran on a certified code")

    monkeypatch.setattr(codes, "check_mds", refuse)
    bundle = _bundle(13, 1, 2, 4, 170)  # C(170, 4) = 3.4e7 subsets
    assert bundle.metrics.equality


# -- the check-mds budget ------------------------------------------------------------


def test_check_mds_budget(tmp_path, monkeypatch, capsys):
    d = tmp_path / "code"
    assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                 "--n", "24", "--out", str(d)]) == 0
    capsys.readouterr()
    free = _free_labelled(d, tmp_path / "free") / "code.json"
    assert main(["check-mds", str(free), "--budget", "2024"]) == 0
    assert "ok: all 2024 subsets" in capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("a subset was ranked over budget")

    monkeypatch.setattr(codes, "check_mds", refuse)
    assert main(["check-mds", str(free), "--budget", "2023"]) == 4
    err = capsys.readouterr().err
    assert "BudgetExceeded: enumeration of 2024 3-subsets of nodes" in err
    assert "candidates" not in err
    # curve labels need no budget at all
    assert main(["check-mds", str(d / "code.json"), "--budget", "0",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"v": 1, "ok": True,
                                                   "subsets": 2024}
    assert main(["check-mds", str(tmp_path / "missing.json"),
                 "--budget", "-1"]) == 2
    assert "BadParameters: --budget must be nonnegative, got -1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["bruteforce", "code.json", "--node", "1", "--range", "0:50"],
    ["simulate", "code.json", "scheme.json", "--trials", "2"],
    ["simulate", "code.json", "scheme.json", "--trials", "2", "--jobs", "2"],
], ids=["bruteforce", "simulate", "simulate-jobs"])
def test_every_command_takes_the_subset_budget(tmp_path, monkeypatch, capsys,
                                               command):
    curve = tmp_path / "curve"
    assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                 "--n", "24", "--out", str(curve)]) == 0
    free = _free_labelled(curve, tmp_path / "free")
    argv = [str(free / a) if a.endswith(".json") else a for a in command]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    capsys.readouterr()
    assert main(argv + ["--budget", "2023"]) == 4
    err = capsys.readouterr().err
    assert ("BudgetExceeded: enumeration of 2024 3-subsets of nodes exceeds "
            "the budget; the labels do not certify the code MDS") in err
    assert main(argv + ["--budget", "2024", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["v"] == 1


def test_eval_takes_the_subset_budget(tmp_path, capsys):
    # every node repeats one of three points, so the pass breaches the
    # incidence cap and asks whether the code is MDS: C(6, 2) = 15 subsets
    code, scheme = _wide_code(tmp_path / "wide", 6)
    assert main(["eval", code, scheme, "--budget", "14"]) == 4
    assert "enumeration of 15 2-subsets of nodes" in capsys.readouterr().err
    assert main(["eval", code, scheme, "--budget", "15"]) == 0
    assert main(["eval", code, scheme, "--budget", "-1"]) == 2


def test_bruteforce_budget_admits_a_long_free_labelled_code(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    curve = tmp_path / "curve"
    assert main(["construct", "--p", "13", "--ell", "2", "--r", "4",
                 "--n", "170", "--out", str(curve)]) == 0
    free = _free_labelled(curve, tmp_path / "free") / "code.json"
    subsets = math.comb(170, 4)  # 3.4e7, over the default budget
    assert subsets > codes.DEFAULT_BUDGET
    calls = []
    # the scan itself takes seconds here; what matters is that it is asked
    monkeypatch.setattr(codes, "check_mds", lambda s: calls.append(s.n))
    argv = ["bruteforce", str(free), "--node", "1", "--range", "0:5"]
    capsys.readouterr()
    assert main(argv) == 4
    assert f"enumeration of {subsets} 4-subsets" in capsys.readouterr().err
    assert calls == []
    assert main(argv + ["--budget", str(subsets)]) == 0
    assert calls == [170]


# -- --jobs workers take the parent's verdict ---------------------------------------


@pytest.fixture
def free_q5(tmp_path):
    curve = tmp_path / "curve"
    assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                 "--n", "24", "--out", str(curve)]) == 0
    return _free_labelled(curve, tmp_path / "free")


def _counted_scans(monkeypatch):
    calls = []
    real = codes.check_mds
    monkeypatch.setattr(codes, "check_mds",
                        lambda s: calls.append(s.n) or real(s))
    return calls


def _pickled_after_the_verdict(code_obj, scheme_obj):
    """The loaded code and scheme as a --jobs worker gets them: pickled
    after the parent asked the MDS verdict."""
    re, _, _ = realization_from_json(code_obj)
    sch, _ = repair.scheme_from_json(scheme_obj, re.skeleton.tower.base)
    re.skeleton.mds_witness(2024)
    return pickle.loads(pickle.dumps((re, sch)))


def test_workers_reuse_the_parent_verdict(free_q5, monkeypatch):
    code_obj = json.loads((free_q5 / "code.json").read_text())
    scheme_obj = json.loads((free_q5 / "scheme.json").read_text())
    re, _, _ = realization_from_json(code_obj)
    sch, _ = repair.scheme_from_json(scheme_obj, re.skeleton.tower.base)
    want_sim = simulate.campaign(re, sch, trials=3, seed=5, first_trial=1)
    want_bf = cli._bf_scan(re, 0, "io", 2024, 0, 50)
    re, sch = _pickled_after_the_verdict(code_obj, scheme_obj)
    calls = _counted_scans(monkeypatch)
    assert cli._sim_worker(re, sch, 5, None, 2024, 1, 4) == want_sim
    assert cli._bf_scan(re, 0, "io", 2024, 0, 50) == want_bf
    assert calls == []
    # a witness the parent found stops the worker with the parent's error
    monkeypatch.undo()
    code_obj["nodes"][5] = code_obj["nodes"][2]  # 0, 2 and 5 do not span
    re, sch = _pickled_after_the_verdict(code_obj, scheme_obj)
    calls = _counted_scans(monkeypatch)
    for run in (lambda: cli._bf_scan(re, 0, "io", 2024, 0, 50),
                lambda: cli._sim_worker(re, sch, 5, None, 2024, 0, 3)):
        with pytest.raises(NotMds, match=r"nodes \[0, 2, 5\] do not span"):
            run()
    assert calls == []


@pytest.mark.parametrize("command", [
    ["bruteforce", "code.json", "--node", "1", "--range", "0:50"],
    ["simulate", "code.json", "scheme.json", "--trials", "5"],
], ids=["bruteforce", "simulate"])
def test_jobs_scan_the_subsets_once(free_q5, monkeypatch, capsys, command):
    def in_process(worker, start, stop, jobs, *args):
        cuts = [start + (stop - start) * k // jobs for k in range(jobs + 1)]
        return [worker(*args, lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    monkeypatch.setattr(cli, "_fan_out", in_process)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = [str(free_q5 / a) if a.endswith(".json") else a for a in command]
    calls = _counted_scans(monkeypatch)
    capsys.readouterr()
    assert main(argv + ["--jobs", "1", "--format", "json"]) == 0
    solo = capsys.readouterr().out
    assert calls == [24]
    calls.clear()
    assert main(argv + ["--jobs", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == solo
    assert calls == [24]  # in the parent only


@pytest.mark.parametrize("command", [
    ["bruteforce", "code.json", "--node", "1", "--range", "0:50"],
    ["simulate", "code.json", "scheme.json", "--trials", "4"],
], ids=["bruteforce", "simulate"])
def test_a_worker_error_keeps_its_message(free_q5, monkeypatch, capsys,
                                          command):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    obj = json.loads((free_q5 / "code.json").read_text())
    obj["nodes"][5] = obj["nodes"][2]  # nodes 0, 2 and 5 no longer span
    (free_q5 / "code.json").write_text(json.dumps(obj))
    argv = [str(free_q5 / a) if a.endswith(".json") else a for a in command]
    errs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == ("NotMds: code skeleton is not MDS "
                                  "(nodes [0, 2, 5] do not span)\n")


# -- input files that ask for too much work -----------------------------------------


def _reed_solomon(path: Path, curve_labels: bool):
    """Doubly-extended RS code over F_256 with r = 64, n = 257, and a scheme."""
    tower = build_tower(2, 8, 1)
    f, r = tower.base, 64
    cols = np.ones((257, r), dtype=np.int64)
    for e in range(1, r):
        cols[:256, e] = f.arr_mul(cols[:256, e - 1], np.arange(256))
    cols[256] = np.eye(r, dtype=np.int64)[-1]
    labels = ([str(c) for c in range(256)] + ["inf"] if curve_labels
              else ["free"] * 257)
    code = {"v": 1, "tower": tower.to_json_dict(), "ell": 1, "r": r,
            "n": 257, "nodes": [{"label": lab, "H": [c.tolist()],
                                 "X": [c.tolist()]}
                                for lab, c in zip(labels, cols)]}
    ms = [np.eye(1, r, 0 if i < 256 else r - 1, dtype=np.int64)
          for i in range(257)]
    scheme = {"v": 1, "per_node": [{"i": i + 1, "M": Matrix(f, m).to_json_dict()}
                                   for i, m in enumerate(ms)]}
    return _write(path, code, scheme)


def _wide_code(path: Path, n: int):
    """n nodes on the three points of F_2^2 (not MDS), and a scheme."""
    tower = build_tower(2, 1, 1)
    pts = [[1, 0], [0, 1], [1, 1]]
    code = {"v": 1, "tower": tower.to_json_dict(), "ell": 1, "r": 2, "n": n,
            "nodes": [{"label": "free", "H": [pts[i % 3]], "X": [pts[i % 3]]}
                      for i in range(n)]}
    rows = [[1, 0], [0, 1], [1, 0]]
    scheme = {"v": 1, "per_node": [
        {"i": i + 1, "M": {"rows": 1, "cols": 2, "entries": rows[i % 3]}}
        for i in range(n)]}
    return _write(path, code, scheme)


def _write(path, code, scheme):
    path.mkdir()
    (path / "code.json").write_text(json.dumps(code))
    (path / "scheme.json").write_text(json.dumps(scheme))
    return str(path / "code.json"), str(path / "scheme.json")


def _limited(argv, seconds=60, memory=3 << 30):
    """Run the CLI in a child process under an address-space and time limit."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "mdsrepair.cli", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          preexec_fn=limit, env=env)


def test_a_long_free_labelled_code_is_refused_by_the_budget(tmp_path):
    code, scheme = _reed_solomon(tmp_path / "free", curve_labels=False)
    subsets = math.comb(257, 64)
    for argv in (["check-mds", code],
                 ["bruteforce", code, "--node", "1", "--range", "0:1"],
                 ["simulate", code, scheme, "--trials", "1"]):
        proc = _limited(argv)
        assert proc.returncode == 4, (argv, proc.stderr[-500:])
        assert "Traceback" not in proc.stderr
        assert (f"BudgetExceeded: enumeration of {subsets} 64-subsets of "
                "nodes") in proc.stderr
    # the same code with its curve labels is certified at once
    code, _ = _reed_solomon(tmp_path / "curve", curve_labels=True)
    proc = _limited(["check-mds", code, "--format", "json"])
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout) == {"v": 1, "ok": True, "subsets": subsets}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_asks_the_budget_before_the_scheme_pass(tmp_path, monkeypatch,
                                                         capsys, jobs):
    code, scheme = _reed_solomon(tmp_path / "free", curve_labels=False)

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(simulate, "evaluate_scheme", refuse)
    monkeypatch.setattr(cli, "_fan_out", refuse)  # no worker pool either
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["simulate", code, scheme, "--trials", "2", "--jobs", jobs]
    assert main(argv) == 4
    assert (f"BudgetExceeded: enumeration of {math.comb(257, 64)} 64-subsets "
            "of nodes") in capsys.readouterr().err


def test_the_pass_cap_follows_the_scheme_checks(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setattr(repair, "_PASS_BYTES", 3 * 10 * 10)
    code, scheme = _wide_code(tmp_path / "ten", 10)
    assert main(["eval", code, scheme]) == 0
    code, scheme = _wide_code(tmp_path / "eleven", 11)
    capsys.readouterr()
    assert main(["eval", code, scheme]) == 4
    assert ("BudgetExceeded: enumeration of 121 node pairs exceeds the "
            "budget; a scheme pass keeps 3 bytes a pair and at most 300 "
            "bytes") in capsys.readouterr().err
    # a scheme of the wrong shape is malformed input at any n
    obj = json.loads(Path(scheme).read_text())
    for nd in obj["per_node"]:
        nd["M"] = {"rows": 1, "cols": 3, "entries": [1, 0, 0]}
    Path(scheme).write_text(json.dumps(obj))
    assert main(["eval", code, scheme]) == 3
    assert "BadShape" in capsys.readouterr().err


def test_a_12000_node_scheme_pass_is_refused(tmp_path):
    code, scheme = _wide_code(tmp_path / "wide", 12000)
    proc = _limited(["eval", code, scheme])
    assert proc.returncode == 4, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert ("BudgetExceeded: enumeration of 144000000 node pairs exceeds "
            "the budget") in proc.stderr
