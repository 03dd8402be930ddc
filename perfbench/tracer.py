"""Span tracer wrapped around the public calls of each mdsrepair layer.

Nothing under ``src/`` is modified: :meth:`Tracer.install` replaces each
target function (or method) with a wrapper in every ``mdsrepair`` module
namespace that holds it, and :meth:`Tracer.uninstall` puts the originals
back.  Every call becomes one span ``(name, start_ns, end_ns, parent)``.
Spans are kept in memory for one operation at a time and reduced to
metrics when it ends; the last traced operation's spans are written out
when the run ends.

Metric conventions (all per traced operation unless stated):

* ``<name>.calls`` counts outermost activations of a span name: a call
  made while another span of the same name is open (recursion, or one
  elimination entry point calling another) is not counted again.
* ``<name>.s`` is the inclusive wall time of those outermost activations.
* ``<layer>.s`` (``gf.s``, ``cli.s``) is the layer's self time: span
  durations minus the time covered by their direct child spans.
* ``gf.calls``, ``gf.elems`` and ``gf.bytes_computed`` cover calls into
  the gf array API from other layers.  ``gf.bytes_computed`` is computed
  from array sizes (8 bytes per int64 element in and out), not measured.
* A layer that a workload does not run reports 0 for its metrics.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from math import comb

_GF_ARRAY_API = ("arr_add", "arr_neg", "arr_sub", "arr_mul", "arr_inv",
                 "arr_sum", "matmul")
# Every public single-matrix elimination entry point shares one span name.
_ELIM = ("rref", "rank_of", "kernel", "Subspace.from_rows", "intersect_dim",
         "inverse", "solve_exact")

# (module, attribute path, span name, kind)
TARGETS = (
    [("gf", f"Field.{f}", f"gf.{f}", "gf") for f in _GF_ARRAY_API]
    + [("linalg", "batched_rank", "linalg.batched_rank", "batch"),
       ("linalg", "rref_blocks", "linalg.rref_blocks", "generator")]
    + [("linalg", f, "linalg.elim", "plain") for f in _ELIM]
    + [("codes", "check_mds", "codes.check_mds", "check_mds"),
       ("codes", "realization_from_json", "codes.realization_from_json",
        "plain"),
       ("codes", "sample_codeword", "codes.sample_codeword", "plain"),
       ("codes", "is_codeword", "codes.is_codeword", "plain"),
       ("repair", "bruteforce_overlap", "repair.bruteforce", "bandwidth"),
       ("repair", "bruteforce_column_hits", "repair.bruteforce", "io"),
       ("repair", "evaluate_scheme", "repair.evaluate_scheme", "plain"),
       ("repair", "bandwidth", "repair.bandwidth", "plain"),
       ("repair", "io_count", "repair.io_count", "plain"),
       ("repair", "incidence_profile", "repair.incidence_profile", "plain"),
       ("repair", "dual_cover", "repair.dual_cover", "plain"),
       ("nrc", "build", "nrc.build", "plain"),
       ("nrc", "block_partition", "nrc.block_partition", "plain"),
       ("simulate", "RepairSession.repair", "simulate.repair", "plain"),
       ("simulate", "row_factor", "simulate.row_factor", "plain"),
       ("simulate", "campaign", "simulate.campaign", "plain")]
)

# Per-layer metrics derived from the spans, in report order, with units.
PER_LAYER = (
    [("gf.calls", "count"), ("gf.s", "s")]
    + [(f"gf.{f}.s", "s") for f in ("arr_sub", "arr_add", "arr_neg",
                                     "arr_mul")]
    + [("gf.matmul.calls", "count"), ("gf.matmul.s", "s"),
       ("gf.elems", "count"), ("gf.bytes_computed", "B"),
       ("linalg.batched_rank.calls", "count"),
       ("linalg.batched_rank.matrices", "count"),
       ("linalg.batched_rank.s", "s"),
       ("linalg.elim.calls", "count"), ("linalg.elim.s", "s"),
       ("linalg.rref_blocks.candidates", "count"),
       ("linalg.rref_blocks.s", "s"),
       ("codes.check_mds.calls", "count"),
       ("codes.check_mds.subsets", "count"),
       ("codes.check_mds.ranked", "count"),
       ("codes.check_mds.s", "s"),
       ("codes.realization_from_json.s", "s"),
       ("codes.sample_codeword.calls", "count"),
       ("codes.sample_codeword.s", "s"),
       ("codes.is_codeword.calls", "count"), ("codes.is_codeword.s", "s"),
       ("repair.bruteforce.bandwidth.candidates", "count"),
       ("repair.bruteforce.io.candidates", "count"),
       ("repair.bruteforce.s", "s"),
       ("repair.evaluate_scheme.s", "s"),
       ("repair.bandwidth.calls", "count"), ("repair.bandwidth.s", "s"),
       ("repair.io_count.calls", "count"), ("repair.io_count.s", "s"),
       ("repair.incidence_profile.s", "s"), ("repair.dual_cover.s", "s"),
       ("nrc.build.s", "s"), ("nrc.build.self_s", "s"),
       ("nrc.block_partition.s", "s"),
       ("simulate.repair.calls", "count"), ("simulate.repair.s", "s"),
       ("simulate.repair.p50_us", "us"), ("simulate.repair.p99_us", "us"),
       ("simulate.row_factor.calls", "count"),
       ("simulate.row_factor.s", "s"),
       ("simulate.campaign.s", "s"),
       ("cli.s", "s"), ("cli.artifact_bytes", "B"),
       ("trace.spans", "count"), ("trace.overhead_pct", "%")]
)


def _nbytes(x) -> int:
    # int64 elements, as the kernel computes on them
    size = getattr(x, "size", None)
    return 8 * (size if size is not None else 1)


class Tracer:
    """Records nested spans around the wrapped calls of one process."""

    def __init__(self):
        self.spans = []          # (name, t0_ns, t1_ns, parent, outer, info)
        self._stack = []
        self._depth = {}         # open spans per name
        self._gf_depth = 0
        self._saved = []
        self.missing = []

    # -- recording -----------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self._stack.append(idx)
        return idx, parent, depth == 0, time.perf_counter_ns()

    def close(self, name, token, info=None):
        t1 = time.perf_counter_ns()
        idx, parent, outer, t0 = token
        self._stack.pop()
        self._depth[name] -= 1
        self.spans[idx] = (name, t0, t1, parent, outer, info)

    def _wrap(self, name, kind, fn):
        tracer = self
        if kind == "generator":
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    token = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer.close(name, token, 0)
                        return
                    except BaseException:
                        tracer.close(name, token, 0)
                        raise
                    tracer.close(name, token, len(item[1]))
                    yield item
        elif kind == "gf":
            def wrapper(*args, **kwargs):
                layer_outer = tracer._gf_depth == 0
                tracer._gf_depth += 1
                token = tracer.open(name)
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    tracer._gf_depth -= 1
                    info = None
                    if layer_outer and out is not None:
                        info = (out.size, sum(_nbytes(a) for a in args[1:])
                                + _nbytes(out))
                    tracer.close(name, token, info)
        else:
            def wrapper(*args, **kwargs):
                token = tracer.open(name)
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    tracer.close(name, token, _info(kind, args, kwargs, out))
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"mdsrepair.{m}")
                for m in ("gf", "linalg", "codes", "repair", "nrc",
                          "simulate", "cli")}
        for mod, path, name, kind in TARGETS:
            owner = mods[mod]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                if f"{mod}.{path}" not in self.missing:
                    self.missing.append(f"{mod}.{path}")
                continue
            if cls_path:
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, kind, raw.__func__))
                else:
                    new = self._wrap(name, kind, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            new = self._wrap(name, kind, raw)
            # rebind every module-level alias made by ``from .x import f``
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is raw:
                        self._saved.append((m, key, raw))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, _, _ in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")


def _info(kind, args, kwargs, out):
    if kind == "batch":
        return len(args[1])
    if kind == "check_mds":
        s = args[0]
        if out is None:
            return comb(s.n, s.r)
        # subsets scanned up to and including the first failing one
        combos = itertools.combinations(range(s.n), s.r)
        return 1 + sum(1 for _ in itertools.takewhile(
            lambda c: c != tuple(out), combos))
    if kind in ("bandwidth", "io"):
        rng = kwargs.get("index_range", args[2] if len(args) > 2 else None)
        if rng is None:
            from mdsrepair.linalg import gaussian_binomial
            s = args[0] if kind == "bandwidth" else args[0].skeleton
            return kind, gaussian_binomial(s.ambient, s.ell,
                                           s.tower.base.order)
        return kind, int(rng[1]) - int(rng[0])
    return None


def _percentile(sorted_vals, pct):
    if not sorted_vals:
        return 0.0
    last = len(sorted_vals) - 1
    return sorted_vals[min(last, int(round(pct / 100 * last)))]


def op_totals(spans):
    """Metric totals over the spans of one operation, and repair µs."""
    n = len(spans)
    child_ns = [0] * n
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    total = {key: 0.0 for key, _ in PER_LAYER}
    repair_us = []
    for idx, (name, t0, t1, parent, outer, info) in enumerate(spans):
        dur = t1 - t0
        layer = name.split(".", 1)[0]
        if layer in ("gf", "cli"):
            total[f"{layer}.s"] += (dur - child_ns[idx]) / 1e9
        if layer == "gf" and info is not None:
            total["gf.calls"] += 1
            total["gf.elems"] += info[0]
            total["gf.bytes_computed"] += info[1]
        if name == "simulate.repair":
            repair_us.append(dur / 1e3)
        if name == "linalg.rref_blocks":
            total["linalg.rref_blocks.candidates"] += info
            total["linalg.rref_blocks.s"] += dur / 1e9
            continue
        if not outer:
            continue
        if f"{name}.calls" in total:
            total[f"{name}.calls"] += 1
        if f"{name}.s" in total:
            total[f"{name}.s"] += dur / 1e9
        if name == "linalg.batched_rank":
            total["linalg.batched_rank.matrices"] += info
        elif name == "codes.check_mds":
            total["codes.check_mds.subsets"] += info
        elif name == "repair.bruteforce":
            total[f"repair.bruteforce.{info[0]}.candidates"] += info[1]

    # matrices batched_rank received under check_mds, and the check_mds /
    # repair spans under nrc.build (subtracted from its self time)
    under_build_ns = 0
    for name, t0, t1, parent, outer, info in spans:
        if name == "linalg.batched_rank" and outer:
            p = parent
            while p >= 0 and spans[p][0] != "codes.check_mds":
                p = spans[p][3]
            if p >= 0:
                total["codes.check_mds.ranked"] += info
        if name == "codes.check_mds" or name.startswith("repair."):
            p = parent
            inner = False
            while p >= 0 and spans[p][0] != "nrc.build":
                pname = spans[p][0]
                inner = inner or pname == "codes.check_mds" \
                    or pname.startswith("repair.")
                p = spans[p][3]
            if p >= 0 and not inner:
                under_build_ns += t1 - t0
    total["nrc.build.self_s"] = total["nrc.build.s"] - under_build_ns / 1e9
    total["trace.spans"] = n
    return total, repair_us


def summarize(totals, repair_us) -> dict:
    """Per-operation means of the op totals; repair percentiles over all."""
    ops = max(len(totals), 1)
    out = {key: sum(t[key] for t in totals) / ops for key, _ in PER_LAYER}
    calls = out["codes.check_mds.calls"]
    for key in ("codes.check_mds.subsets", "codes.check_mds.ranked"):
        out[key] = out[key] / calls if calls else 0.0
    repair_us = sorted(repair_us)
    out["simulate.repair.p50_us"] = _percentile(repair_us, 50)
    out["simulate.repair.p99_us"] = _percentile(repair_us, 99)
    return out
