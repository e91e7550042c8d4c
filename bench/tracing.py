"""Spans around the calls into plrank's modules, for the traced run only.

``install`` replaces each traced public function on every plrank module that
holds it, so a call is caught where the caller looks the name up (the
existence check inside ``fit``, the Hessian builds inside
``graph_diagnostics``). Untraced runs never import this module, so every
name stays unwrapped there.

Spans are kept in memory as (id, name, start, end, parent, attrs) and
written out when the run ends. A span's self time is its duration minus the
time its direct children cover; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import statistics
import time

import plrank
from plrank import cli, estimators, graphs, harness, inference, likelihood, model
from workloads import KINDS

MODULES = (plrank, model, likelihood, estimators, inference, graphs, harness, cli)
# span count attribute -> per-layer metric; {span} is the span's name and
# {kind} its last component (the estimator of a fit or SE span)
COUNT_METRICS = {
    "edges": "graphs.edges",
    "rows": "model.broken_pairs.rows",
    "sweeps": "{span}.sweeps",
    "nonconverged": "estimators.fit.nonconverged",
    "theta_cost": "inference.theta_cost.{kind}",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, attrs]
        self.stack = []

    def span(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span; ``attrs(result)`` adds counts."""
        record = [len(self.spans), name, time.perf_counter(), None, self.stack[-1] if self.stack else None, {}]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()
        if attrs is not None:
            record[5] = attrs(result)
        return result

    def wrap(self, fn, name, attrs=None):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return self.span(label, fn, *args, attrs=attrs, **kwargs)

        return traced

    def hook(self, home, attr, name, attrs=None):
        original = getattr(home, attr)
        wrapper = self.wrap(original, name, attrs)
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)

    def install(self, workload):
        h = self.hook
        h(graphs, "sample_uniform_edges", "graphs.sample_edges", lambda r: {"edges": len(r)})
        h(graphs, "sample_distinct_edges", "graphs.sample_edges", lambda r: {"edges": len(r)})
        h(graphs, "graph_diagnostics", "graphs.graph_diagnostics")
        h(graphs, "spectral_diagnostics", "graphs.spectral_diagnostics")
        h(model, "sample_rankings", "model.sample_rankings")
        h(model, "broken_pairs", "model.broken_pairs", lambda r: {"rows": len(r)})
        h(model, "load_dataset", "model.load_dataset")
        h(model, "save_dataset", "model.save_dataset")
        h(likelihood, "expected_marginal_hessian", "likelihood.expected_marginal_hessian")
        h(likelihood, "quasi_hessian", "likelihood.quasi_hessian")
        h(estimators, "existence_check", "estimators.existence_check")
        h(estimators, "fit", lambda a, k: f"estimators.fit.{a[1] if len(a) > 1 else k['estimator']}",
          lambda r: {"sweeps": r.iterations, "nonconverged": int(not r.converged)})
        h(inference, "standard_errors", lambda a, k: f"inference.standard_errors.{a[0].estimator}",
          lambda r: {"theta_cost": r.theta_cost})
        h(harness, "run_experiment", "harness.run_experiment")
        h(harness, "ingest_races", "harness.ingest_races")
        model.Dataset.with_cutoff = self.wrap(model.Dataset.with_cutoff, "model.with_cutoff")
        if hasattr(workload, "run_in_process"):
            workload.in_process = True
            workload.run_in_process = self.wrap(workload.run_in_process, lambda a, k: f"cli.{a[0]}")

    def per_op(self) -> list[dict]:
        """Per-layer figures of each operation, from its span subtree."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append(s)
        ops = []
        for root in (s for s in self.spans if s[1] == "op"):
            acc = {"trace.op_s": root[3] - root[2]}
            todo = list(children.get(root[0], []))
            while todo:
                s = todo.pop()
                kids = children.get(s[0], [])
                todo.extend(kids)
                self_s = (s[3] - s[2]) - sum(k[3] - k[2] for k in kids)
                add(acc, f"{s[1]}.s", self_s)
                add(acc, f"{s[1]}.calls", 1)
                for key, value in s[5].items():
                    add(acc, COUNT_METRICS[key].format(span=s[1], kind=s[1].rsplit(".", 1)[1]), value)
            for kind in KINDS:
                sweeps = acc.get(f"estimators.fit.{kind}.sweeps", 0)
                acc[f"estimators.fit.{kind}.s_per_sweep"] = acc.get(f"estimators.fit.{kind}.s", 0.0) / sweeps if sweeps else 0.0
            ops.append(acc)
        return ops


def add(acc, key, value):
    acc[key] = acc.get(key, 0) + value


def per_layer_metrics(ops: list[dict], names: list[str]) -> dict:
    """Median over operations of each named figure; a layer an operation
    never entered counts 0 for it."""
    return {name: statistics.median(op.get(name, 0) for op in ops) for name in names}
