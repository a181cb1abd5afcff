"""Spans and counters recorded around the public functions of each layer.

The program carries no instrumentation of its own: `instrument` swaps
wrappers into the sparsemp modules for the duration of one traced op and
puts the originals back afterwards. Spans are kept in memory, each with
its parent, and summarised per op into busy time, self time and counts.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import time
import types
from dataclasses import dataclass

import numpy as np

# Counters whose per-run value is the largest seen rather than the mean.
MAX_COUNTERS = {
    "elastic_net.solve.max_kkt",
    "elastic_net.solve.design_mb",
    "feature_opt.theta_dim_max",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span


class Tracer:
    """Spans and counters of one op; `reset` starts the next op."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), math.nan, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def summary(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.busy_s`, `<span>.self_s` plus the counters."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            duration = span.end - span.start
            for suffix, value in (("calls", 1.0), ("busy_s", duration),
                                  ("self_s", duration - child_time)):
                key = f"{span.name}.{suffix}"
                out[key] = out.get(key, 0.0) + value
        solves = [s for s in self.spans if s.name == "elastic_net.solve"]
        if solves:
            out["elastic_net.solve.first_s"] = solves[0].end - solves[0].start
        out.update(self.counters)
        return out


def aggregate(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Mean per op over the traced ops; the largest value for MAX_COUNTERS."""
    keys = set().union(*summaries)
    out = {}
    for key in keys:
        values = [s.get(key, 0.0) for s in summaries]
        out[key] = max(values) if key in MAX_COUNTERS else float(np.mean(values))
    return out


def classify_solve(en, prob, lambda1: float, tol: float, W) -> tuple[str, float]:
    """Which exit of `elastic_net.solve` the returned W satisfies, and its KKT.

    `en` supplies the public `kkt_violation`, `objective` and `dual_gap`.
    The rules are those `solve` documents: a KKT residual within 10 tol,
    else a duality gap within tol * (1 + |F|), else only the loose exit.
    """
    kkt = en.kkt_violation(prob, lambda1, W)
    if kkt <= 10.0 * tol:
        return "kkt", kkt
    primal = en.objective(prob, lambda1, W)
    if en.dual_gap(prob, lambda1, W) <= tol * (1.0 + abs(primal)):
        return "gap", kkt
    return "loose", kkt


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """`fn` inside a span; `after(args, kwargs, result)` runs outside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            with tracer.span("bench.hook"):
                after(args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, sparsemp):
    """Install span wrappers on the layer functions while the block runs."""
    en = sparsemp.elastic_net
    fo = sparsemp.feature_opt
    # Classification calls the unwrapped functions, so it adds no spans.
    originals = types.SimpleNamespace(
        kkt_violation=en.kkt_violation, objective=en.objective, dual_gap=en.dual_gap,
    )
    solve_sig = inspect.signature(en.solve)

    def after_solve(args, kwargs, W):
        bound = solve_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        prob, lam, tol = bound.arguments["prob"], bound.arguments["lambda1"], bound.arguments["tol"]
        kind, kkt = classify_solve(originals, prob, lam, tol, W)
        tracer.add(f"elastic_net.solve.cert_{kind}")
        tracer.maximum("elastic_net.solve.max_kkt", kkt)
        tracer.maximum("elastic_net.solve.design_mb",
                       (prob.phi_a.nbytes + prob.y_a.nbytes) / 1e6)
        tracer.counters.setdefault("first_solve_features", float(prob.n_features))

    def after_prune(args, kwargs, result):
        tracer.add("elastic_net.prune.dropped", args[0].shape[0] - result[0].shape[0])

    def after_bfgs(args, kwargs, result):
        tracer.add("feature_opt.bfgs.iters", result.n_iters)
        tracer.add("feature_opt.bfgs.converged", float(result.converged))
        tracer.add("feature_opt.bfgs.ls_failed", float(result.line_search_failed))
        tracer.maximum("feature_opt.theta_dim_max", result.theta.size)

    def after_fit(args, kwargs, prim):
        tracer.add("trainers.outer_iters", prim.metadata["n_outer_iters"])
        tracer.add("trainers.features_initial", tracer.counters.get("first_solve_features", 0.0))
        tracer.add("trainers.features_final", prim.W.shape[0])

    def after_path(args, kwargs, path):
        tracer.add("reg_path.grid_points", path.lambdas.size)

    def after_save(args, kwargs, result):
        tracer.add("policy.bytes", os.path.getsize(args[0]))

    patches = [
        (en, "solve", "elastic_net.solve", after_solve),
        (en, "to_lasso", "elastic_net.to_lasso", None),
        (en, "objective", "elastic_net.objective", None),
        (en, "prune", "elastic_net.prune", after_prune),
        (fo, "bfgs_minimize", "feature_opt.bfgs", after_bfgs),
        (fo.FeatureObjective, "cost_grad", "feature_opt.cost_grad", None),
        (sparsemp.rbf, "build_basis", "rbf.build_basis", None),
        (sparsemp.rbf, "eval_basis", "rbf.eval_basis", None),
        (sparsemp.reg_path, "compute_path", "reg_path.compute_path", after_path),
        (sparsemp.reg_path, "rank_features", "reg_path.rank_features", None),
        (sparsemp.trainers, "train_lsdp", "trainers.fit", after_fit),
        (sparsemp.trainers, "train_clsdp", "trainers.fit", after_fit),
        (sparsemp.trainers, "evaluate", "trainers.evaluate", None),
        (sparsemp.policy, "save_policy", "policy.save", after_save),
        (sparsemp.policy, "load_policy", "policy.load", None),
        (sparsemp.trajectory, "synth_demoset", "trajectory.synth", None),
        (sparsemp.trajectory, "stack_demoset", "trajectory.stack_center", None),
        (sparsemp.trajectory, "center_stacked", "trajectory.stack_center", None),
        (sparsemp.trajectory, "center", "trajectory.stack_center", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, after in patches:
            setattr(owner, attr, _wrap(tracer, name, owner.__dict__[attr], after))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
