"""Spans around capfed's layers, recorded from outside the package.

`Tracer.install` rebinds each traced function at every name its callers look
up: the attribute of its own module (``clustering.run_clustering``, reached
from federation and cli as ``clustering.run_clustering``), every
``from .geometry import normalize_rows`` copy in another capfed module, and
methods on their class (``dp.PrivacyLedger.compose``). Nothing under `src/`
changes. Spans (name, start, end, parent) stay in memory until `dump`.

`layer_metrics` turns one dumped trace into per-layer numbers. A span's self
time is its duration minus the durations of its direct child spans, so the
self times of all spans add up to the root span (`cli.main`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_grad(counters, args, kwargs, result):
    # Matrix products in losses._core: three of 2*b*d*n against the class
    # centers and two of 2*b*d*K against the foreign clusters.
    b, d = _arg(args, kwargs, 0, "embeddings").shape
    n = _arg(args, kwargs, 2, "centers").shape[0]
    k = _arg(args, kwargs, 3, "context").centers.shape[0]
    counters["losses.grad.flop"] += 6 * b * d * n + 4 * b * d * k


def _count_densest(counters, args, kwargs, result):
    # Each query copies theta[np.ix_(active, active)]: |active|^2 float64.
    active = _arg(args, kwargs, 1, "active")
    counters["clustering.pending_block_bytes"] += 8 * len(active) ** 2


def _count_clustering(counters, args, kwargs, result):
    n = _arg(args, kwargs, 0, "centers").shape[0]
    params = _arg(args, kwargs, 1, "params")
    dense = 8 * n * n + counters.pop("clustering.pending_block_bytes", 0)
    counters["clustering.dense_bytes"] = max(counters["clustering.dense_bytes"], dense)
    counters["clustering.queries_used"] += result.queries_used
    counters["clustering.queries_allowed"] += params.max_queries


def _count_ledger(counters, args, kwargs, result):
    counters["dp.ledger.entries"] = max(counters["dp.ledger.entries"], len(result.entries))


# (module, attribute, span name, counter). Functions not listed run inside the
# span of their nearest traced caller.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "read_embeddings", "cli.read_embeddings", None),
    ("federation", "run_federation", "federation.orchestration", None),
    ("federation", "initialize_clients", "federation.init", None),
    ("federation", "client_local_round", "federation.local_round", None),
    ("federation", "aggregate_fedavg", "federation.aggregate", None),
    ("losses", "loss_gradients", "losses.grad", _count_grad),
    ("clustering", "run_clustering", "clustering.run", _count_clustering),
    ("clustering", "pairwise_angles", "clustering.pairwise", None),
    ("clustering", "densest_cap", "clustering.densest", _count_densest),
    ("dp", "sigma_tight", "dp.noise", None),
    ("dp", "gaussian_perturb", "dp.noise", None),
    ("dp", "PrivacyLedger.compose", "dp.ledger", _count_ledger),
    ("dp", "PrivacyLedger.totals", "dp.ledger", None),
    ("dp", "PrivacyLedger.total_for", "dp.ledger", None),
    ("synth", "generate_federation", "synth.generate", None),
    ("synth", "make_verification_pairs", "synth.pairs", None),
    ("synth", "verification_eval", "synth.eval", None),
    ("synth", "cross_client_margin", "synth.margin", None),
    ("geometry", "normalize_rows", "geometry.normalize_rows", None),
)
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in TRACED))


class Tracer:
    """Records one span per call of each traced function, in memory."""

    def __init__(self) -> None:
        # (index, name, start, end, parent index or -1, raised), in order of return.
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_index = itertools.count()

    def wrap(self, name: str, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock, next_index = time.perf_counter, self._next_index

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = next(next_index)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans.append((index, name, start, end, parent, raised))
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever capfed code looks it up."""
        wrapped_by_id = {}
        for module_name, attr, span_name, count in TRACED:
            module = importlib.import_module(f"capfed.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = None if holder is None else vars(holder).get(leaf)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(span_name, original, count)
            setattr(holder, leaf, traced)
            wrapped_by_id[id(original)] = (original, traced)
        for module_name, module in list(sys.modules.items()):
            if module_name != "capfed" and not module_name.startswith("capfed."):
                continue
            for key, value in list(vars(module).items()):
                hit = wrapped_by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def dump(self, path) -> None:
        spans = [span[1:] for span in sorted(self.spans)]
        payload = {"spans": spans, "counters": dict(self.counters), "missing": self.missing}
        Path(path).write_text(json.dumps(payload))


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer numbers from one dumped trace.

    For each span name: `calls`, `errors` (calls that raised), `self_s`, and
    `s`, the time inside the outermost span of that name (a ledger `totals`
    that calls `total_for` counts once).
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: defaultdict(float) for name in SPAN_NAMES}
    for i, (name, start, end, parent, raised) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["errors"] += bool(raised)
        entry["self_s"] += end - start - child_time[i]
        outer = True
        while parent >= 0:
            if spans[parent][0] == name:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            entry["s"] += end - start
    out = {}
    for name, entry in stats.items():
        for key in ("calls", "errors", "self_s", "s"):
            out[f"{name}.{key}"] = float(entry[key])
    out["trace.self_s"] = sum(entry["self_s"] for entry in stats.values())
    out["trace.spans"] = float(len(spans))
    counters = trace["counters"]
    for key in ("losses.grad.flop", "clustering.dense_bytes", "dp.ledger.entries",
                "clustering.queries_used", "clustering.queries_allowed"):
        out[key] = float(counters.get(key, 0.0))
    return out
