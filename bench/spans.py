"""Spans and counters recorded around calls into vcslab's modules.

The tracer replaces a function at the name its caller looks up (for
example `moments.log_moment_piece`, which `moments._integrate` calls)
and puts the original back afterwards; the program itself is unchanged.
A span is (id, name, start, end, parent id, op id, thread id).  Parents
are tracked per thread, because `vcslab report` runs classes on a thread
pool; spans of one operation share the op id of its outermost span.
Spans stay in memory until the pass ends.

Everything shared between threads is appended to lists, whose append is
atomic, so the counts repeat exactly under the thread pool.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict

from vcslab import cli, convergence, moments, norms, quadrature, special, structure, taxonomy

# (module, attribute the caller looks up, span name)
SPANS = [
    (cli, "run_verification", "cli.run_verification"),
    (cli, "run_class_checks", "cli.run_class_checks"),
    (cli, "norm_series", "norms.norm_series"),
    (cli, "norm_closed_form", "norms.norm_closed_form"),
    (cli, "verify_moments", "moments.verify_moments"),
    (moments, "verify_moments", "moments.verify_moments"),
    (moments, "moment_integral", "moments.moment_integral"),
    (moments, "log_moment_piece", "quadrature.log_moment_piece"),
    (moments, "combine_routes", "quadrature.combine_routes"),
    (quadrature, "log_moment_gauss", "quadrature.log_moment_gauss"),
    (quadrature, "log_moment_adaptive", "quadrature.log_moment_adaptive"),
    (cli, "resolution_residual", "resolution.resolution_residual"),
    (cli, "dumps_deterministic", "report.dumps_deterministic"),
    (cli, "class_verdict", "convergence.class_verdict"),
    (taxonomy, "class_verdict", "convergence.class_verdict"),
    (convergence, "class_verdict", "convergence.class_verdict"),
    (cli, "deformation_graph", "taxonomy.deformation_graph"),
    (cli, "verify_edge_continuity", "taxonomy.verify_edge_continuity"),
    (cli, "verify_factor", "taxonomy.verify_factor"),
]

# Called too often for a span each: counted only.
COUNTERS = [
    (structure.LinForm, "value", "structure.LinForm.value"),
    (special, "log_gamma", "special.log_gamma"),
    (convergence, "log_gamma", "special.log_gamma"),
    (moments, "log_gamma", "special.log_gamma"),
    (norms, "log_gamma", "special.log_gamma"),
    (structure, "log_gamma", "special.log_gamma"),
]

# Outermost span of an operation, per workload.
OP_SPANS = {
    "report-default": {"cli.run_class_checks"},
    "verdict-sweep": {"cli.run_verification", "convergence.class_verdict"},
    "moments-fresh": {"moments.verify_moments"},
}


def _note_piece(args, kwargs, result):
    return args[0]


def _note_route_rel(args, kwargs, result):
    return result[1]


def _note_gram_dim(args, kwargs, result):
    return dict(result.metadata)["gram_dim"]


def _note_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _note_terms(args, kwargs, result):
    # terms in the final certified window: n for a 1d sum, (n1+1)(n2+1) for 2d
    t = result.truncation
    return t[0] if len(t) == 1 else math.prod(v + 1 for v in t)


def _note_args(args, kwargs, result):
    return tuple(args) + tuple(sorted(kwargs.items()))


NOTES = {
    "quadrature.log_moment_piece": _note_piece,
    "quadrature.combine_routes": _note_route_rel,
    "resolution.resolution_residual": _note_gram_dim,
    "report.dumps_deterministic": _note_bytes,
    "norms.norm_series": _note_terms,
    "taxonomy.deformation_graph": _note_args,
}


class Tracer:
    """Patches the functions above for the life of a `with` block."""

    def __init__(self, op_spans=frozenset()):
        self.op_spans = op_spans
        self.spans: list[tuple] = []
        self.notes: dict[str, list] = {name: [] for name in NOTES}
        self.errors: list[tuple[str, str]] = []
        self.calls: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        note = NOTES.get(name)
        is_op = name in self.op_spans

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent, op_id = stack[-1] if stack else (None, None)
            sid = next(self._ids)
            if op_id is None and is_op:
                op_id = sid
            stack.append((sid, op_id))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors.append((name, type(exc).__name__))
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, op_id, threading.get_ident()))
            if note is not None:
                self.notes[name].append(note(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls[name]

        def wrapper(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._counter(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def write(self, path: str):
        """Spans as JSON lines, one per span, in the order they ended."""
        keys = ("id", "name", "start", "end", "parent", "op", "thread")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass, as {name: (value, unit)}."""
        count: Counter = Counter()
        busy: Counter = Counter()
        child: Counter = Counter()
        threads = defaultdict(set)
        for sid, name, t0, t1, parent, op, thread in self.spans:
            count[name] += 1
            busy[name] += t1 - t0
            threads[name].add(thread)
            if parent is not None:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        for sid, name, t0, t1, parent, op, thread in self.spans:
            self_s[name] += (t1 - t0) - child[sid]

        def calls(name):
            return (count[name], "count")

        def seconds(value):
            return (float(value), "s")

        pieces = self.notes["quadrature.log_moment_piece"]
        distinct = len(set(pieces))
        rels = self.notes["quadrature.combine_routes"]
        graph_inputs = self.notes["taxonomy.deformation_graph"]
        disagreements = sum(
            1 for n, e in self.errors
            if n == "quadrature.combine_routes" and e == "QuadratureDisagreement"
        )
        return {
            "quadrature.log_moment_piece.calls": calls("quadrature.log_moment_piece"),
            "quadrature.log_moment_piece.busy_s": seconds(busy["quadrature.log_moment_piece"]),
            "quadrature.distinct_exponents": (distinct, "count"),
            "quadrature.distinct_exponents_1e-12": (len({round(q, 12) for q in pieces}), "count"),
            "quadrature.distinct_ratio": (distinct / len(pieces) if pieces else 0.0, "ratio"),
            "quadrature.max_exponent": (max(pieces, default=0.0), "exponent"),
            "quadrature.log_moment_gauss.busy_s": seconds(busy["quadrature.log_moment_gauss"]),
            "quadrature.log_moment_adaptive.busy_s": seconds(busy["quadrature.log_moment_adaptive"]),
            "quadrature.max_route_rel": (max(rels, default=0.0), "ratio"),
            "quadrature.disagreements": (disagreements, "count"),
            "moments.verify_moments.calls": calls("moments.verify_moments"),
            "moments.verify_moments.busy_s": seconds(busy["moments.verify_moments"]),
            "moments.moment_integral.calls": calls("moments.moment_integral"),
            "moments.moment_integral.self_s": seconds(self_s["moments.moment_integral"]),
            "resolution.resolution_residual.busy_s": seconds(busy["resolution.resolution_residual"]),
            "resolution.resolution_residual.self_s": seconds(self_s["resolution.resolution_residual"]),
            "resolution.gram_dim_sum": (sum(self.notes["resolution.resolution_residual"]), "count"),
            "cli.run_class_checks.calls": calls("cli.run_class_checks"),
            "cli.run_class_checks.busy_s": seconds(busy["cli.run_class_checks"]),
            "cli.threads": (len(threads["cli.run_class_checks"]), "count"),
            "cli.overlap": (busy["cli.run_class_checks"] / wall_s, "ratio"),
            "report.dumps_deterministic.busy_s": seconds(busy["report.dumps_deterministic"]),
            "report.bytes": (sum(self.notes["report.dumps_deterministic"]), "bytes"),
            "convergence.class_verdict.calls": calls("convergence.class_verdict"),
            "convergence.class_verdict.busy_s": seconds(busy["convergence.class_verdict"]),
            "norms.norm_series.calls": calls("norms.norm_series"),
            "norms.norm_series.busy_s": seconds(busy["norms.norm_series"]),
            "norms.norm_closed_form.busy_s": seconds(busy["norms.norm_closed_form"]),
            "norms.terms_summed": (sum(self.notes["norms.norm_series"]), "count"),
            "taxonomy.deformation_graph.calls": calls("taxonomy.deformation_graph"),
            "taxonomy.deformation_graph.busy_s": seconds(busy["taxonomy.deformation_graph"]),
            "taxonomy.deformation_graph.distinct_inputs": (len(set(graph_inputs)), "count"),
            "taxonomy.verify_edge_continuity.busy_s": seconds(busy["taxonomy.verify_edge_continuity"]),
            "taxonomy.verify_factor.busy_s": seconds(busy["taxonomy.verify_factor"]),
            "structure.LinForm.value.calls": (len(self.calls["structure.LinForm.value"]), "count"),
            "special.log_gamma.calls": (len(self.calls["special.log_gamma"]), "count"),
            "trace.spans": (len(self.spans), "count"),
            "trace.covered_s": seconds(_union_length([(s[2], s[3]) for s in self.spans])),
        }


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total
