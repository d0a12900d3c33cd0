"""Spans around the public ctxapprox functions, recorded from outside the package.

Each hook replaces a function at the name its caller looks it up under: the
position scan calls ``construction.pe_block``, ``density_audit`` calls
``vocab_pe.pe_block``, so both names are wrapped.  Nothing under ``src/``
changes.  Spans are kept in memory while the command runs; ``layer_metrics``
turns them into per-layer self times and counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _report(args, kwargs, report):
    return {"n": report.n, "tokens": len(report.tokens)}


def _count(key, index, name):
    """Counts ``{key: argument}`` for the argument at ``index`` or keyword ``name``."""
    return lambda args, kwargs, result: {key: _arg(args, kwargs, index, name)}


def _queries(args, kwargs, result):
    points = _arg(args, kwargs, 2, "points")
    return {"queries": points.points().shape[0] if hasattr(points, "points") else len(points)}


def _witness(args, kwargs, witness):
    return {"q": witness.q}


# (module, attribute, span name, counts taken from (args, kwargs, result))
HOOKS = (
    ("cli", "construct_context", "construction.construct", _report),
    ("cli", "construct_context_multi_output", "construction.construct", _report),
    ("cli", "construct_relu_rescaled", "construction.construct", _report),
    ("construction", "fit_fnn", "fnn.fit_fnn", None),
    ("construction", "coefficient_decompose", "kronecker.coefficient_decompose", None),
    ("construction", "pe_block", "vocab_pe.pe_block", _count("positions", 2, "count")),
    ("vocab_pe", "pe_block", "vocab_pe.pe_block", _count("positions", 2, "count")),
    ("cli", "density_audit", "vocab_pe.density_audit", _count("positions", 3, "n_max")),
    ("cli", "kronecker_search", "kronecker.kronecker_search", _witness),
    ("kronecker", "kronecker_search", "kronecker.kronecker_search", _witness),
    ("cli", "nonuap_audit", "nonuap.nonuap_audit", _count("trials", 2, "trials")),
    ("cli", "embed_fnn", "embedding.embed", None),
    ("cli", "embed_softmax_fnn", "embedding.embed", None),
    ("cli", "readout_batch", "embedding.readout_batch", _queries),
    ("embedding", "readout_batch", "embedding.readout_batch", _queries),
)

ROOT_SPAN = "cli.main"

# span name -> per-layer self-time metric
SELF_METRIC = {
    ROOT_SPAN: "cli.self_s",
    "construction.construct": "construction.self_s",
    "fnn.fit_fnn": "fnn.fit_fnn_s",
    "vocab_pe.pe_block": "vocab_pe.pe_block_s",
    "vocab_pe.density_audit": "vocab_pe.density_audit_s",
    "kronecker.kronecker_search": "kronecker.search_s",
    "kronecker.coefficient_decompose": "kronecker.search_s",
    "nonuap.nonuap_audit": "nonuap.audit_s",
    "embedding.embed": "embedding.embed_s",
    "embedding.readout_batch": "embedding.readout_batch_s",
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, operation."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record["counts"] = counts(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every hook in ``modules`` (short name -> module) for the block."""
        saved = []
        try:
            for mod, attr, name, counts in HOOKS:
                original = getattr(modules[mod], attr)
                saved.append((modules[mod], attr, original))
                setattr(modules[mod], attr, self._wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer self times, counts and rates from the spans of one command set.

    Span ids are unique within an operation.  A span's self time is its
    duration minus the durations of its direct children; calls are strictly
    nested, so the self times of all spans add up to the root spans'
    durations.
    """
    by_id = {(s["op"], s["id"]): s for s in spans}
    child_s = dict.fromkeys(by_id, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["op"], s["parent"]] += s["end"] - s["start"]
    out = {metric: 0.0 for metric in SELF_METRIC.values()}
    total = {name: 0.0 for name in SELF_METRIC}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    scan_positions = 0
    for s in spans:
        duration = s["end"] - s["start"]
        out[SELF_METRIC[s["name"]]] += duration - child_s[s["op"], s["id"]]
        total[s["name"]] += duration
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        for key, value in s.get("counts", {}).items():
            counts[f"{s['name']}.{key}"] = counts.get(f"{s['name']}.{key}", 0) + value
        if s["name"] == "vocab_pe.pe_block" and _inside(s, "construction.construct", by_id):
            scan_positions += s["counts"]["positions"]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    n = counts.get("construction.construct.n", 0)
    tokens = counts.get("construction.construct.tokens", 0)
    kron_calls = calls.get("kronecker.kronecker_search", 0)
    trials = counts.get("nonuap.nonuap_audit.trials", 0)
    density_positions = counts.get("vocab_pe.density_audit.positions", 0)
    out.update({
        "construction.n": n,
        "construction.tokens": tokens,
        "construction.hit_ratio": rate(tokens, scan_positions),
        "construction.scan_positions_per_s": rate(n, total["construction.construct"]),
        "vocab_pe.pe_block_calls": calls.get("vocab_pe.pe_block", 0),
        "vocab_pe.positions": counts.get("vocab_pe.pe_block.positions", 0),
        "vocab_pe.density_positions_per_s":
            rate(density_positions, total["vocab_pe.density_audit"]),
        "fnn.fit_calls": calls.get("fnn.fit_fnn", 0),
        "kronecker.calls": kron_calls,
        "kronecker.q_total": counts.get("kronecker.kronecker_search.q", 0),
        "kronecker.witnesses_per_s":
            rate(kron_calls, total["kronecker.kronecker_search"]),
        "nonuap.trials": trials,
        "nonuap.trials_per_s": rate(trials, total["nonuap.nonuap_audit"]),
        "embedding.queries": counts.get("embedding.readout_batch.queries", 0),
    })
    return out


def _inside(span: dict, name: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[span["op"], parent]["name"] == name:
            return True
        parent = by_id[span["op"], parent]["parent"]
    return False
