"""Command-line front end.

Commands: construct | check-mds | bounds | eval | bruteforce | simulate |
sweep.  Every emitted file carries a schema version field "v": 1 and, for
randomized commands, the seed, so reruns are byte-identical.

Exit codes are a stable contract: 0 success, 1 verdict failure (a failing
MDS witness, or --expect-equality with a positive gap), 2 parameter
rejection, 3 malformed input, 4 budget exceeded.  Each package error
carries its code (:attr:`RepairToolError.exit_code`).

``bruteforce`` and ``simulate`` split their candidate or trial range into
at most --jobs parts (:func:`_fan_out`).  Each part runs the same worker
on the loaded code and scheme; with more than one part they are pickled
to a process pool, the code's MDS verdict with them, which the parent
asks once before any part starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from math import comb
from pathlib import Path

from . import __version__
from .codes import (
    DEFAULT_BUDGET,
    bounds_report,
    realization_from_json,
    realization_to_json,
)
from .errors import (
    BadParameters,
    BudgetExceeded,
    InternalInconsistency,
    MalformedInput,
    RepairToolError,
)
from .gf import build_tower
from .linalg import gaussian_binomial
from .nrc import build, bundle_provenance, validate_params
from .repair import (
    _check_scheme_length,
    bruteforce_column_hits,
    bruteforce_overlap,
    evaluate_scheme,
    scheme_from_json,
    scheme_to_json,
)
from .simulate import campaign


def _dumps(obj: dict) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, written faster.

    Dicts with string keys and nonempty lists are written here, a list of
    plain ints in one join, and str and int scalars directly; every other
    value (floats, bools, None, empty containers) is json.dumps's own text,
    indented to its depth.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, pad: str, out: list) -> None:
    """Append the JSON text of ``obj`` at the indent ``pad`` (a newline and
    the spaces of its depth) to ``out``."""
    kind = type(obj)
    inner = pad + "  "
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is list and obj and set(map(type, obj)) == {int}:
        out.append(f"[{inner}{(',' + inner).join(map(str, obj))}{pad}]")
    elif kind is list and obj:
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif kind is dict and obj and set(map(type, obj)) == {str}:
        sep = "{" + inner
        for key in sorted(obj):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    else:
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace(
            "\n", pad))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the decoder's stack
        raise MalformedInput(f"cannot read {path}: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise MalformedInput(f"{path}: expected a JSON object")
    return obj


def _load_code(path: str):
    return realization_from_json(_load_json(path))


def _load_scheme(path: str, field):
    return scheme_from_json(_load_json(path), field)


def _workers(jobs: int) -> int:
    """--jobs, at least 1, clamped to the number of CPUs."""
    if jobs < 1:
        raise BadParameters(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _fan_out(worker, start: int, stop: int, jobs: int, *args) -> list:
    """worker(*args, lo, hi) over at most jobs parts of [start, stop), in order.

    One part, or an empty range, runs in this process; more parts run in a
    pool of jobs processes, each sent ``args`` pickled.
    """
    cuts = [start + (stop - start) * k // jobs for k in range(jobs + 1)]
    parts = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    if len(parts) <= 1:
        return [worker(*args, start, stop)]
    # imported here: the pool's modules take longer to import than a
    # one-part command runs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, *zip(*(args + part for part in parts))))


def _check_out(args) -> None:
    """Refuse an --out target that cannot be written, before any work runs.

    ``construct`` writes into the directory --out, creating it if needed;
    every other command writes the file --out in an existing directory.
    """
    out = args.out
    if not out:
        return
    if args.command == "construct":
        nearest = os.path.abspath(out)
        while not os.path.exists(nearest):
            nearest = os.path.dirname(nearest)
        if not os.path.isdir(nearest):
            raise BadParameters(f"--out {out}: {nearest} is not a directory")
    elif os.path.isdir(out):
        raise BadParameters(f"--out {out} is a directory")
    elif not os.path.isdir(os.path.dirname(out) or "."):
        raise BadParameters(f"--out {out}: no directory "
                            f"{os.path.dirname(out)}")


def _emit(args, doc: dict, table: str) -> None:
    if args.out:
        Path(args.out).write_text(_dumps(doc), encoding="utf-8")
    elif args.format == "json":
        sys.stdout.write(_dumps(doc))
    else:
        print(table)


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    tower = build_tower(args.p, args.m, args.ell)
    params = validate_params(tower, args.r, args.n)
    bundle = build(params)
    prov = bundle_provenance(bundle, __version__)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    code_path = outdir / "code.json"
    scheme_path = outdir / "scheme.json"
    code_path.write_text(
        _dumps(realization_to_json(bundle.realization, bundle.labels, prov)),
        encoding="utf-8")
    scheme_path.write_text(_dumps(scheme_to_json(bundle.scheme, prov)),
                           encoding="utf-8")
    print(f"wrote {code_path} and {scheme_path} "
          f"(q={params.q}, ell={params.ell}, r={params.r}, n={params.n})")
    return 0


# ---------------------------------------------------------------------------
# check-mds


def _check_budget(args) -> None:
    if args.budget < 0:
        raise BadParameters(f"--budget must be nonnegative, got {args.budget}")


def cmd_check_mds(args) -> int:
    _check_budget(args)
    re, _, _ = _load_code(args.code)
    s = re.skeleton
    witness = s.mds_witness(budget=args.budget)
    subsets = comb(s.n, s.r)
    if witness is None:
        doc = {"v": 1, "ok": True, "subsets": subsets}
        _emit(args, doc, f"ok: all {subsets} subsets of {s.r} nodes span")
        return 0
    w1 = [i + 1 for i in witness]
    doc = {"v": 1, "ok": False, "witness": w1}
    _emit(args, doc, f"witness: nodes {w1} do not span")
    return 1


# ---------------------------------------------------------------------------
# bounds


def _bounds_table(rep) -> str:
    d = rep.to_json_dict()
    lines = [f"q={d['q']} ell={d['ell']} r={d['r']} n={d['n']}"]
    for key in ("im_bound", "pc_bound", "length_max", "equality_min_length",
                "coverage_fraction", "r_le_q"):
        lines.append(f"  {key:<21} {d[key]}")
    return "\n".join(lines)


def cmd_bounds(args) -> int:
    rep = bounds_report(args.q, args.ell, args.r, args.n)
    doc = {"v": 1, **rep.to_json_dict()}
    _emit(args, doc, _bounds_table(rep))
    return 0


# ---------------------------------------------------------------------------
# eval


def _metrics_table(doc: dict) -> str:
    lines = ["node  beta  gamma  bound  gap"]
    bound = doc["bounds"]["im_bound"]
    for row in doc["per_node"]:
        lines.append(f"{row['i']:>4}  {row['beta']:>4}  {row['gamma']:>5}  "
                     f"{bound:>5}  {row['gap']:>3}")
    agg = doc["aggregates"]
    lines.append(f" avg  {agg['beta_avg']:>4}  {agg['gamma_avg']:>5}")
    lines.append(f" max  {agg['beta_max']:>4}  {agg['gamma_max']:>5}")
    lines.append(f"equality: {'yes' if doc['equality'] else 'no'}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    _check_budget(args)
    re, _, _ = _load_code(args.code)
    sch, _ = _load_scheme(args.scheme, re.skeleton.tower.base)
    metrics = evaluate_scheme(re, sch, budget=args.budget)
    doc = {"v": 1, **metrics.to_json_dict()}
    _emit(args, doc, _metrics_table(doc))
    if args.expect_equality and not metrics.equality:
        return 1
    return 0


# ---------------------------------------------------------------------------
# bruteforce


def _bf_scan(re, node0, objective, budget, start, stop):
    if objective == "bandwidth":
        value, witness = bruteforce_overlap(re.skeleton, node0,
                                            index_range=(start, stop),
                                            budget=budget)
    else:
        value, witness = bruteforce_column_hits(re, node0,
                                                index_range=(start, stop),
                                                budget=budget)
    return value, None if witness is None else witness.to_json_dict()


def _parse_range(text, total):
    if text is None:
        return None
    try:
        a, b = text.split(":")
        rng = (int(a), int(b))
    except ValueError as exc:
        raise BadParameters(f"--range must be START:STOP, got {text!r}") from exc
    if not 0 <= rng[0] <= rng[1] <= total:
        raise BadParameters(f"--range {text} outside [0, {total}]")
    return rng


def cmd_bruteforce(args) -> int:
    _check_budget(args)
    re, _, _ = _load_code(args.code)
    s = re.skeleton
    node0 = args.node - 1
    if not 0 <= node0 < s.n:
        raise BadParameters(f"--node must be in 1..{s.n}")
    field = s.tower.base
    total = gaussian_binomial(s.ambient, s.ell, field.order)
    rng = _parse_range(args.range, total)
    jobs = _workers(args.jobs)
    if rng is None and total > args.budget:
        raise BudgetExceeded(total)
    start, stop = rng if rng is not None else (0, total)
    s.mds_witness(args.budget)  # once, before any part
    parts = _fan_out(_bf_scan, start, stop, jobs, re, node0, args.objective,
                     args.budget)
    value, witness = max(parts, key=lambda p: p[0])  # the first maximizer

    key = "alpha" if args.objective == "bandwidth" else "lambda"
    cost_key = "beta" if args.objective == "bandwidth" else "gamma"
    cost = s.ell * (s.n - 1) - value if value >= 0 else None
    doc = {"v": 1, "node": args.node, "objective": args.objective,
           key: value, cost_key: cost, "candidates": stop - start,
           "range": [start, stop], "witness": witness}
    table = (f"node {args.node}: {key} = {value} ({cost_key} = {cost}) "
             f"over {stop - start} candidates")
    _emit(args, doc, table)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _sim_worker(re, sch, seed, nodes, budget, first_trial, stop):
    return campaign(re, sch, trials=stop - first_trial, seed=seed, nodes=nodes,
                    first_trial=first_trial, budget=budget)


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise BadParameters(f"--seed must be nonnegative, got {args.seed}")
    if args.trials < 1:
        raise BadParameters(f"--trials must be at least 1, got {args.trials}")
    _check_budget(args)
    jobs = _workers(args.jobs)
    re, _, _ = _load_code(args.code)
    sch, _ = _load_scheme(args.scheme, re.skeleton.tower.base)
    s = re.skeleton
    if args.node == "all":
        nodes = None
    else:
        try:
            node0 = int(args.node) - 1
        except ValueError as exc:
            raise BadParameters("--node takes a 1-based index or 'all'") from exc
        if not 0 <= node0 < s.n:
            raise BadParameters(f"--node must be in 1..{s.n}")
        nodes = (node0,)

    _check_scheme_length(re, sch)  # as campaign does, before any part
    s.mds_witness(args.budget)  # then the verdict, once
    parts = _fan_out(_sim_worker, 0, args.trials, jobs, re, sch, args.seed,
                     nodes, args.budget)
    if len({(p.downloaded, p.accessed) for p in parts}) != 1:
        raise InternalInconsistency("workers disagree on transcript counts")
    rep = dataclasses.replace(parts[0], trials=args.trials)

    doc = {"v": 1, **rep.to_json_dict()}
    lines = [f"trials={doc['trials']} seed={doc['seed']} rng={doc['rng']}",
             "node  downloaded  accessed  beta  gamma"]
    for row in doc["per_node"]:
        lines.append(f"{row['i']:>4}  {row['downloaded']:>10}  "
                     f"{row['accessed']:>8}  {row['beta']:>4}  {row['gamma']:>5}")
    lines.append("failures: none" if not doc["failures"]
                 else f"failures: {doc['failures']}")
    _emit(args, doc, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    if args.n_min > args.n_max:
        raise BadParameters(f"--n-min {args.n_min} is greater than "
                            f"--n-max {args.n_max}")
    tower = build_tower(args.p, args.m, args.ell)
    # every length is checked before the first build; the constructible
    # lengths are an interval of at most q^l + 1, so this stops at the
    # first length outside it
    params = [validate_params(tower, args.r, n)
              for n in range(args.n_min, args.n_max + 1)]
    rows = []
    for p in params:
        m = build(p).metrics
        d = m.to_json_dict()
        rows.append({
            "n": p.n,
            "beta_avg": d["aggregates"]["beta_avg"],
            "beta_max": d["aggregates"]["beta_max"],
            "gamma_avg": d["aggregates"]["gamma_avg"],
            "gamma_max": d["aggregates"]["gamma_max"],
            "im_bound": m.bounds.im_bound,
            "equality": m.equality,
        })
    doc = {"v": 1, "p": args.p, "m": args.m, "ell": args.ell, "r": args.r,
           "rows": rows}
    lines = ["   n  beta_avg  beta_max  gamma_avg  gamma_max  im_bound  equal"]
    for row in rows:
        lines.append(f"{row['n']:>4}  {row['beta_avg']!s:>8}  "
                     f"{row['beta_max']:>8}  {row['gamma_avg']!s:>9}  "
                     f"{row['gamma_max']:>9}  {row['im_bound']:>8}  "
                     f"{'yes' if row['equality'] else 'no':>5}")
    _emit(args, doc, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("json", "table"), default="table")
    sp.add_argument("--out", default=None,
                    help="write the JSON report to this path")


def _add_budget(sp, also: str = "") -> None:
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help=f"{also}most r-subsets to rank when the curve "
                         "labels do not certify the code MDS")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mdsrepair",
        description="Construct, verify, and measure repair-efficient MDS "
                    "array codes over small finite fields.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="build a code + repair scheme")
    sp.add_argument("--p", type=int, required=True, help="field characteristic")
    sp.add_argument("--m", type=int, default=1, help="base degree (q = p^m)")
    sp.add_argument("--ell", type=int, required=True, help="sub-packetization")
    sp.add_argument("--r", type=int, required=True, help="redundancy")
    sp.add_argument("--n", type=int, required=True, help="code length")
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("check-mds", help="verify the r-wise spanning property")
    sp.add_argument("code", help="code.json path")
    _add_budget(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_check_mds)

    sp = sub.add_parser("bounds", help="evaluate the lower-bound formulas")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("eval", help="per-node achieved repair cost of a scheme")
    sp.add_argument("code")
    sp.add_argument("scheme")
    sp.add_argument("--expect-equality", action="store_true",
                    help="exit 1 unless every gap is zero")
    _add_budget(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("bruteforce",
                        help="exact optimum over all repair subspaces")
    sp.add_argument("code")
    sp.add_argument("--node", type=int, required=True, help="1-based node")
    sp.add_argument("--objective", choices=("bandwidth", "io"),
                    default="bandwidth")
    _add_budget(sp, "most candidates to scan without --range; ")
    sp.add_argument("--range", default=None, help="START:STOP candidate range")
    sp.add_argument("--jobs", type=int, default=1)
    _add_common(sp)
    sp.set_defaults(func=cmd_bruteforce)

    sp = sub.add_parser("simulate", help="run repair trials and reconcile counts")
    sp.add_argument("code")
    sp.add_argument("scheme")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--node", default="all", help="1-based node or 'all'")
    sp.add_argument("--jobs", type=int, default=1)
    _add_budget(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="construct and evaluate a length range")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_out(args)
        return args.func(args)
    except InternalInconsistency:
        raise
    except RepairToolError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
