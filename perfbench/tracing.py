"""Span tracing for the traced benchmark run.

Spans are recorded from outside the package: the public functions that
each roilqr module calls into are replaced, for the duration of one
traced solve, by wrappers that record a span (name, start, end, parent)
and a few counts.  ``roilqr.solver`` and ``roilqr.harness`` bind their
callees at import time (``from .sysid import fit_ltv``), so the names
are wrapped where they are looked up, not where they are defined.

A span's self time is its duration minus the time covered by its
children, so the self times of all spans of one solve add up to its wall
time.  The self time of the root span (the benchmark's glue around the
harness call) and of ``solver.solve`` (the iteration loop's own code
between its phases) belongs to no layer: it is reported as
``trace.unattributed_s``, so a phase of the loop that no trace point
covers shows there.
"""

import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def has_ancestor(self, names):
        node = self.parent
        while node is not None:
            if node.name in names:
                return node
            node = node.parent
        return None


class Tracer:
    """Keeps the spans of one traced call in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if hook is not None:
                span.info = hook(args, result)
            return result
        return traced

    def call(self, fn, *args):
        """Run ``fn`` as the root span of one solve."""
        return self.wrap(ROOT, fn)(*args)


ROOT = "bench.call"

# Span name -> layer.  The root span and the solve loop belong to no layer:
# their self time is the solve time that no wrapped phase accounts for.
LAYERS = {
    ROOT: None,
    "solver.solve": None,
    "harness.build": "harness",
    "harness.persist": "harness",
    "solver.line_search": "solver",
    "solver.forward": "solver",
    "pod.basis": "pod",
    "pod.residual": "pod",
    "sysid.simulate": "sysid",
    "sysid.lstsq": "sysid",
    "lqr.cost": "lqr",
    "lqr.backward": "lqr",
    "pde.rollout": "pde",
    "pde.step": "pde",
    "kernels": "kernels",
}


def _step_info(args, result):
    model, states = args[0], args[1]
    rows = states.shape[0] if getattr(states, "ndim", 1) == 2 else 1
    return {"rows": rows,
            "cells": rows * model.n_x * model.params.substeps}


def _points(roilqr):
    """(owner, attribute, span name, hook) for every wrapped callee."""
    harness, solver = roilqr.harness, roilqr.solver
    pde, lqr, kernels = roilqr.pde, roilqr.lqr, roilqr._kernels
    return [
        (harness, "gaussian_guess", "harness.build", None),
        (harness, "build_problem", "harness.build", None),
        (harness, "write_solve_artifacts", "harness.persist", None),
        (harness, "_dump_json", "harness.persist", None),
        (harness, "solve", "solver.solve", None),
        (solver, "rollout", "pde.rollout", None),
        (solver, "method_of_snapshots", "pod.basis",
         lambda args, basis: {"modes": basis.n_modes}),
        (solver, "projection_residual", "pod.residual", None),
        (solver, "generate_rollout_data", "sysid.simulate",
         lambda args, data: {"samples": data.n_samples}),
        (solver, "fit_ltv", "sysid.lstsq", None),
        (solver, "reduce_cost", "lqr.cost", None),
        (solver, "backward_pass", "lqr.backward", None),
        (solver, "line_search", "solver.line_search",
         lambda args, ls: {"accepted": ls.accepted}),
        (solver, "forward_pass", "solver.forward", None),
        (lqr.CostModel, "trajectory_cost", "lqr.cost", None),
        (pde.BurgersModel, "step_batch", "pde.step", _step_info),
        (pde.AllenCahnModel, "step_batch", "pde.step", _step_info),
        (pde.CahnHilliardModel, "step_batch", "pde.step", _step_info),
        (kernels, "burgers_batch", "kernels", None),
        (kernels, "allen_cahn_batch", "kernels", None),
        (kernels, "cahn_hilliard_batch", "kernels", None),
    ]


@contextmanager
def installed(tracer, roilqr):
    """Wrap every trace point for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, hook in _points(roilqr):
            saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)   # was inherited from a base class
            else:
                setattr(owner, attr, original)


def layer_self_times(spans):
    """Self time per layer (``None`` for unattributed); sums to the wall."""
    out = {}
    for s in spans:
        layer = LAYERS[s.name]
        out[layer] = out.get(layer, 0.0) + s.self_s
    return out


def _outermost(spans, names):
    return [s for s in spans if s.name in names and not s.has_ancestor(names)]


def _total(spans, *names):
    return sum(s.duration for s in _outermost(spans, set(names)))


def _sum(spans, key):
    # a span whose call raised carries no info
    return sum(s.info[key] for s in spans if s.info)


def solve_metrics(spans):
    """Per-layer numbers of one traced solve (its spans, root first)."""
    root = spans[0]
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    steps = by_name.get("pde.step", [])
    cells = _sum(steps, "cells")
    kernels_s = _total(spans, "kernels")
    bases = [s for s in by_name.get("pod.basis", []) if s.info]
    searches = by_name.get("solver.line_search", [])
    trials = by_name.get("solver.forward", [])
    terminal = [s for s in searches if not (s.info and s.info["accepted"])]
    terminal_ids = {id(s) for s in terminal}
    terminal_trials = [
        s for s in trials
        if id(s.has_ancestor({"solver.line_search"})) in terminal_ids]
    simulate = by_name.get("sysid.simulate", [])
    return {
        "pde.calls": len(steps),
        "pde.rows": _sum(steps, "rows"),
        "pde.rows.sysid": _sum(
            [s for s in steps if s.has_ancestor({"sysid.simulate"})], "rows"),
        "pde.rows.line_search": _sum(
            [s for s in steps if s.has_ancestor({"solver.line_search"})],
            "rows"),
        "pde.cell_updates": cells,
        "pde.step.self_s": sum(s.self_s for s in steps),
        "kernels.s": kernels_s,
        "kernels.ns_per_cell_update": 1e9 * kernels_s / cells if cells else 0.0,
        "pod.s": _total(spans, "pod.basis", "pod.residual"),
        "pod.modes_mean": statistics.fmean(s.info["modes"] for s in bases)
        if bases else 0.0,
        "sysid.samples": _sum(simulate, "samples"),
        "sysid.simulate.s": _total(spans, "sysid.simulate"),
        "sysid.simulate.self_s": sum(s.self_s for s in simulate),
        "sysid.lstsq.s": _total(spans, "sysid.lstsq"),
        "lqr.cost.s": _total(spans, "lqr.cost"),
        "lqr.backward.s": _total(spans, "lqr.backward"),
        "solver.iterations": len(simulate),
        "solver.line_search.s": _total(spans, "solver.line_search"),
        "solver.line_search.trials": len(trials),
        "solver.line_search.accept_ratio":
            (len(searches) - len(terminal)) / len(trials) if trials else 0.0,
        "solver.terminal_sweep.s": sum(s.duration for s in terminal),
        "solver.terminal_sweep.trials": len(terminal_trials),
        "harness.build.s": _total(spans, "harness.build"),
        "harness.persist.s": _total(spans, "harness.persist"),
        "trace.solve_s": root.duration,
        "trace.unattributed_s": layer_self_times(spans).get(None, 0.0),
    }


def unit(metric):
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("ns_per_cell_update"):
        return "ns"
    if metric.endswith("accept_ratio"):
        return "ratio"
    if metric.endswith("modes_mean"):
        return "modes"
    return "count"
