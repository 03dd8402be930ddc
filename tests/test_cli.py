import json

import pytest

from mdsrepair import cli
from mdsrepair.cli import main


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


def test_bounds_json(capsys):
    assert main(["bounds", "--q", "5", "--ell", "2", "--r", "3", "--n", "24",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["im_bound"] == 34 and doc["pc_bound"] == -110
    assert main(["bounds", "--q", "6", "--ell", "2", "--r", "3",
                 "--n", "24"]) == 2


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


@pytest.mark.parametrize("field", ["H", "X", "M.entries", "tower.m", "nodes"])
def test_loader_faults_exit_3(workspace, tmp_path, capsys, field):
    code = json.loads((workspace / "code.json").read_text())
    scheme = json.loads((workspace / "scheme.json").read_text())
    huge = 10 ** 30
    if field in ("H", "X"):
        code["nodes"][0][field][0][0] = huge
    elif field == "M.entries":
        scheme["per_node"][0]["M"]["entries"][0] = huge
    elif field == "tower.m":
        code["tower"]["m"] = huge
    else:
        code["nodes"] = 5
    code_path, scheme_path = tmp_path / "code.json", tmp_path / "scheme.json"
    code_path.write_text(json.dumps(code))
    scheme_path.write_text(json.dumps(scheme))
    assert main(["eval", str(code_path), str(scheme_path)]) == 3
    err = capsys.readouterr().err
    assert "MalformedInput" in err and "Traceback" not in err


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert main(argv + ["--jobs", str(10 ** 6)]) == 0
    assert pools == [3]
    assert json.loads(capsys.readouterr().out) == solo


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


def test_sweep(capsys):
    assert main(["sweep", "--p", "3", "--ell", "2", "--r", "2",
                 "--n-min", "8", "--n-max", "10", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["rows"]
    assert [r["n"] for r in rows] == [8, 9, 10]
    assert [r["beta_max"] for r in rows] == [10, 12, 14]
    assert [r["gamma_max"] for r in rows] == [10, 12, 14]
    assert all(r["equality"] for r in rows)


def test_construct_reruns_byte_identical(tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    for d in (d1, d2):
        assert main(["construct", "--p", "5", "--ell", "2", "--r", "3",
                     "--n", "24", "--out", str(d)]) == 0
    assert (d1 / "code.json").read_bytes() == (d2 / "code.json").read_bytes()
    assert (d1 / "scheme.json").read_bytes() == \
        (d2 / "scheme.json").read_bytes()
