#!/usr/bin/env python3
"""Seeded solve sweeps, what changed between two of them, and the step
kernels timed at the calls the solver issues.

    python3 benchmarks/bench.py sweep [--seeds A:B] --out F
    python3 benchmarks/bench.py compare OLD NEW
    python3 benchmarks/bench.py kernels [--repeat N]

``sweep`` solves the reduced presets ``burgers``, ``allen_cahn``,
``allen_cahn_small`` and ``cahn_hilliard`` at seeds A, ..., B-1 (default
0:20) and full-order ``allen_cahn_small`` at the first six of them, each
from the preset's Gaussian guess at its seed, and writes one JSON line
per solve to F: preset, mode, seed, status, iteration count, the final
cost's ``repr``, the largest mode count of any iteration and
``terminal_search`` (``report.json``'s record of a no-descent solve's
last line search).  Every field is deterministic for a fixed kernel path
and BLAS thread count; no timing is recorded.  roilqr is imported from
the path, so one script sweeps any checkout:
``PYTHONPATH=src python3 benchmarks/bench.py sweep --out new.jsonl``.

``compare`` lists every solve whose status, iteration count, final cost
or largest mode count differs between two sweeps, or that only one of
them holds, and exits 1 if there is any; a solve that differs only in
``terminal_search`` is listed and does not count as a change.  The
default sweep of 86 solves takes about 6 s (C kernels, one BLAS thread,
2-core x86-64).

``kernels`` records the kernel calls of seed-0 solves of the four
presets, then times them.  Each preset is solved reduced to the end,
and at full order until the smallest positive time budget stops its
first line search, after the first identification ran whole; the
model's ``step_batch`` and ``central`` are recorded on the instance.
For each call shape, a batch's rows or a unit's timesteps k, samples m
and control samples, the first call's arguments are copied (the solver
reuses its buffers) and the calls counted (the "calls" column).  So
every case timed is one the solver issues.

The first table times each batch as ``<pde>_batch(rows, controls,
*model._params)``, the call ``step_batch`` makes, on the active path and
on ``<pde>_batch_numpy``: microseconds per row and nanoseconds per
cell-substep (per row, divided by n_x * substeps), so that kernels of
different sizes compare.  The second times each identification unit as
``<pde>_central`` on the active path, as ``model.step_batch`` on the
unit's 2 k m rows alone, as that batch call with the numpy passes around
it that build the rows and take the differences
(:func:`roilqr._kernels.central_numpy` over the active batch kernel; "gain"
is its time over the first) and as ``<pde>_central_numpy``; its batch
column shows the kernels' throughput on large batches.  The C Allen-Cahn
kernel steps a full-order unit of one timestep whose samples all move
one state point only inside their light cones, and any other unit, such
as each timestep's last, which holds the control samples, as whole rows;
so "samples" splits a unit's m into state and control (u) samples.  A
unit's time is the mean of a burst of UNIT_BURST consecutive calls, as
identification makes its units one after another: a single call between
other cases finds its megabyte-sized workspace out of cache, which no
unit of a solve but the first does.

Each case is warmed up once on each path; then the cases are timed round
by round, one call of each case on each path per round, for ``--repeat``
rounds (default 5), so that a slow spell of a shared machine falls on
every case alike.  The tables give the median of the rounds and, for the
active path's time per row, their min-max.  The first line names the
active path: the C kernels where they build, else numpy
(``ROILQR_PURE_NUMPY=1`` forces numpy), and on the C path the kernel
clone the loader picked for this CPU (``_kernels.KERNEL_ISA``), since
the C times depend on its vector width.
"""

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

REDUCED_PRESETS = ("burgers", "allen_cahn", "allen_cahn_small",
                   "cahn_hilliard")
FULL_PRESET = "allen_cahn_small"
FULL_SEEDS = 6   # a full-order solve takes about 20 reduced ones' time
CHECKED = ("status", "iterations", "final_cost", "max_modes")
UNIT_BURST = 4


def _seed_range(text):
    try:
        first, stop = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not A:B")
    if not 0 <= first < stop:
        raise argparse.ArgumentTypeError(f"{text!r}: need 0 <= A < B")
    return range(first, stop)


def runs(seeds):
    """(preset, mode, seed) of every solve of a sweep, in sweep order."""
    return [(name, "reduced", seed) for name in REDUCED_PRESETS
            for seed in seeds] + \
        [(FULL_PRESET, "full", seed) for seed in seeds[:FULL_SEEDS]]


def solve_line(name, mode, seed):
    from roilqr import harness   # only a sweep needs roilqr

    cfg = harness.preset(name)
    cfg = replace(cfg, solver=replace(cfg.solver, mode=mode, seed=seed))
    [report] = harness.run_solve(cfg)
    return {
        "preset": name, "mode": mode, "seed": seed,
        "status": report.status,
        "iterations": len(report.iterations),
        "final_cost": repr(report.final_cost),
        "max_modes": max((it.n_modes for it in report.iterations),
                         default=None),
        # a tree from before the field existed records none
        "terminal_search": getattr(report, "terminal_search", None),
    }


def sweep(seeds, out):
    with open(out, "w") as fh:
        for run in runs(seeds):
            fh.write(json.dumps(solve_line(*run)) + "\n")
            fh.flush()


def _load(path):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return {(r["preset"], r["mode"], r["seed"]): r for r in lines}


def compare(old_path, new_path):
    """Print the solves that changed between two sweeps; 1 if any did."""
    old, new = _load(old_path), _load(new_path)
    changed = 0
    for key in sorted(old.keys() | new.keys()):
        name = "{}:{} seed {}".format(*key)
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            changed += 1
            print(f"{name}: only in {old_path if b is None else new_path}")
            continue
        diffs = [f"{f} {a[f]} -> {b[f]}" for f in CHECKED if a[f] != b[f]]
        if diffs:
            changed += 1
            print(f"{name}: " + "; ".join(diffs))
        elif a["terminal_search"] != b["terminal_search"]:
            print(f"{name}: terminal_search {a['terminal_search']} -> "
                  f"{b['terminal_search']} (not a change)")
    print(f"{changed} of {len(old.keys() | new.keys())} solves changed "
          f"status, iterations, final cost or modes")
    return 1 if changed else 0


def record(cfg):
    """Solve ``cfg`` from its seeded guess, as ``harness._solve_once``
    does, with the model's kernel calls recorded.  Returns (model,
    report, batches, units): ``batches`` maps a ``step_batch`` call's
    rows, ``units`` a ``central`` call's (k, m, control samples), to
    the first such call's arguments, copied, and the number of calls."""
    from roilqr import harness, solver

    problem = harness.build_problem(cfg, u_init=harness.gaussian_guess(
        cfg, cfg.solver.seed, cfg.run.guess_std))
    model = problem.model
    batches, units = {}, {}

    def keep(calls, key, args):
        if key not in calls:
            calls[key] = [[np.array(a) for a in args], 0]
        calls[key][1] += 1

    def step_batch(states, controls):
        keep(batches, len(states), (states, controls))
        return type(model).step_batch(model, states, controls)

    def central(states, controls, design_x, design_u, out):
        key = (len(states), len(design_u),
               int(np.count_nonzero(design_u.any(axis=1))))
        keep(units, key, (states, controls, design_x, design_u))
        return type(model).central(model, states, controls, design_x,
                                   design_u, out)

    model.step_batch, model.central = step_batch, central
    report = solver.solve(problem, cfg.solver)
    del model.step_batch, model.central
    return model, report, batches, units


def _time_once(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _burst(fn, args):
    for _ in range(UNIT_BURST):
        fn(*args)


def kernels(repeat):
    from roilqr import _kernels, harness

    batch_cases, unit_cases = [], []
    for name in REDUCED_PRESETS:
        cfg = harness.preset(name)
        pde = cfg.problem.name
        batch, batch_numpy, central, central_numpy = (
            getattr(_kernels, f"{pde}_{kind}") for kind in
            ("batch", "batch_numpy", "central", "central_numpy"))
        issued = {}   # the batches of both modes
        for mode in ("reduced", "full"):
            # the budget, first read in iteration 1's line search, ends a
            # full-order solve after its first identification
            model, _, batches, units = record(replace(cfg, solver=replace(
                cfg.solver, mode=mode, seed=0,
                time_budget_s=math.ulp(0.0) if mode == "full" else None)))
            for rows, (args, calls) in batches.items():
                issued.setdefault(rows, [args, 0])[1] += calls
            for (k, m, u_samples), (args, calls) in sorted(units.items()):
                unit = (*args, np.empty((k, model.n_x, m)))
                rows = [np.repeat(a, 2 * m, axis=0) for a in args[:2]]
                timed = [(central, (*unit, *model._params)),
                         (model.step_batch, rows),
                         (_kernels.central_numpy,
                          (batch, *unit, *model._params)),
                         (central_numpy, (*unit, *model._params))]
                unit_cases.append(
                    (name, mode, model, k, m, u_samples, calls,
                     [(_burst, call) for call in timed],
                     tuple([] for _ in timed)))
        for rows, (args, calls) in sorted(issued.items()):
            timed = [(kernel, (*args, *model._params))
                     for kernel in (batch, batch_numpy)]
            batch_cases.append((name, model, rows, calls, timed, ([], [])))

    # warm each call up once, then time one call of each per round
    cases = batch_cases + unit_cases
    for *_, timed, _ in cases:
        for call in timed:
            _time_once(*call)
    for _ in range(repeat):
        for *_, timed, times in cases:
            for call, path_times in zip(timed, times):
                path_times.append(_time_once(*call))

    active = _kernels.KERNEL_PATH
    isa = f" ({_kernels.KERNEL_ISA})" if _kernels.KERNEL_ISA else ""
    print(f"active path: {active}{isa}; "
          f"median of {repeat} interleaved rounds")
    print(f"{'preset':18s} {'n_x':>5s} {'substeps':>8s} {'rows':>5s} "
          f"{active + ' per row':>14s} {'min-max':>19s} "
          f"{'per cell-substep':>16s} {'numpy per row':>14s} "
          f"{'per cell-substep':>16s} {'numpy/' + active:>12s} "
          f"{'calls':>7s}")
    for name, model, rows, calls, _, (times, numpy_times) in batch_cases:
        t, t_np = statistics.median(times), statistics.median(numpy_times)
        lo, hi = min(times) / rows * 1e6, max(times) / rows * 1e6
        cells = rows * model.n_x * model.params.substeps
        print(f"{name:18s} {model.n_x:5d} {model.params.substeps:8d} "
              f"{rows:5d} {t / rows * 1e6:12.1f}µs {lo:9.1f}-{hi:<9.1f} "
              f"{t / cells * 1e9:14.2f}ns {t_np / rows * 1e6:12.1f}µs "
              f"{t_np / cells * 1e9:14.2f}ns {t_np / t:11.2f}x {calls:7d}")

    print()
    print(f"identification units: {active} per unit, mean of "
          f"{UNIT_BURST} consecutive calls, median of {repeat} "
          f"interleaved rounds")
    print(f"{'preset':18s} {'order':>7s} {'k':>3s} {'samples':>9s} "
          f"{'rows':>5s} {'central':>10s} {'batch':>10s} "
          f"{'batch+numpy':>12s} {'gain':>6s} {'numpy central':>14s} "
          f"{'calls':>7s}")
    for name, mode, _, k, m, u_samples, calls, _, times in unit_cases:
        t_central, t_batch, composed, numpy_central = (
            statistics.median(t) / UNIT_BURST * 1e6 for t in times)
        samples = f"{m - u_samples}+{u_samples}u"
        print(f"{name:18s} {mode:>7s} {k:3d} {samples:>9s} "
              f"{2 * k * m:5d} {t_central:8.1f}µs {t_batch:8.1f}µs "
              f"{composed:10.1f}µs {composed / t_central:5.2f}x "
              f"{numpy_central:12.1f}µs {calls:7d}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("sweep", help="solve the seeded sweep")
    run.add_argument("--seeds", type=_seed_range, default=range(0, 20),
                     help="seed range A:B, A included, B not (default 0:20)")
    run.add_argument("--out", required=True, help="JSON-lines output file")
    diff = commands.add_parser("compare", help="changes between two sweeps")
    diff.add_argument("old")
    diff.add_argument("new")
    timing = commands.add_parser(
        "kernels", help="time the kernel calls of seed-0 solves")
    timing.add_argument("--repeat", type=int, default=5,
                        help="interleaved timing rounds (default 5)")
    args = parser.parse_args(argv)
    if args.command == "sweep":
        sweep(args.seeds, args.out)
        return 0
    if args.command == "kernels":
        if args.repeat < 1:
            parser.error("--repeat must be >= 1")
        kernels(args.repeat)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
