#!/usr/bin/env python3
"""Step-kernel throughput at the batch sizes the solver issues, on the
active kernel path and on the numpy path.

Times each preset's batch kernel called as ``step_batch`` calls it, one
call ``<pde>_batch(rows, controls, *model._params)`` per batch (control
routing included), and reports microseconds per row and nanoseconds per
cell-substep (per row, divided by n_x * substeps), so that kernels of
different sizes compare.  The row counts
are those of seed-0 solves; the identification ones are the rows of its
units, which identification steps through ``<pde>_central`` (second
table) and which show the batch kernels' throughput on large batches:

* Burgers (100 points, 250 substeps): 1 row (rollouts and line search),
  176 and 264 rows (reduced identification: 11 samples of 2 rows per
  timestep, stepped as runs of 8 and 12 whole timesteps, each a multiple
  of 8 rows) and 204 rows (full-order identification: one timestep's
  2(100 + 2) rows per call);
* Allen-Cahn 50x50 (10 substeps): 1 row, 2, 4, 8 and 12 rows (the
  doubling batches of the 27-step line-search ladder, 1 + 2 + 4 + 8 + 12
  rows; seed 0's no-descent search settles after its 4-row batch) and 16
  and 18 rows (reduced identification: one whole timestep of 2(l + 4)
  rows per call, for l = 4 and 5 modes);
* Allen-Cahn 20x20: 1 row, 72 and 80 rows (reduced identification, runs
  of whole timesteps) and 96 and 40 rows (full-order identification: a
  timestep's 2(400 + 4) rows are stepped as eight units of 96 rows and
  one of 40);
* Cahn-Hilliard 20x20 (40 substeps): 1 row, 56 and 80 rows (reduced
  identification) and 96 and 40 rows (full order, as for Allen-Cahn).

A second table times identification units at the sizes those solves
issue: the k timesteps and m samples of one ``<pde>_central`` call, which
builds the 2 k m rows, steps them and writes the halved differences:

* Burgers: reduced units of 12 and 8 timesteps of 11 samples (264 and
  176 rows) and the full-order unit of one timestep's 102 samples;
* Allen-Cahn 50x50: reduced units of one timestep of 8 and 9 samples (16
  and 18 rows), and full-order units of 8 samples (16 rows): samples
  0-7, which move one state point each, and the timestep's last unit,
  samples 2496-2503, four state points and the four controls, stepped
  as whole rows;
* Allen-Cahn and Cahn-Hilliard 20x20: full-order units of 48 and 20
  samples (96 and 40 rows): samples 0-47, all state points, and the
  last unit, samples 384-403, 16 state points and the four controls,
  stepped as whole rows.

A full-order Allen-Cahn unit of one timestep, whose nominal holds no
-0.0 and whose samples all move one state point, is stepped only inside
their light cones (see ``_kernels.c``); any other unit, such as each
timestep's last unit, which holds the control samples, is stepped as
whole rows.  So its time depends on what its samples move; the "samples"
column names them.

Each unit is timed as ``<pde>_central`` on the active path, as its
``<pde>_batch`` call alone on the same rows, and as that batch call with
the numpy passes around it that build the rows and take the differences
(:func:`roilqr._kernels.central_numpy` over the active batch kernel and
the model's parameters, the way identification ran a unit before the
central kernels); "gain" is the
last over the first.  ``<pde>_central_numpy`` gives the numpy path.  A
unit's time is the mean of a burst of UNIT_BURST consecutive calls, as
identification makes its units one after another: a single call between
other cases finds its megabyte-sized workspace out of cache, which no
unit of a solve but the first does.

    python3 benchmarks/kernel_bench.py [--repeat N]

Each case is warmed up once on each path; then the cases are timed round
by round, one call of each case on each path per round, for ``--repeat``
rounds, so that a slow spell of a shared machine falls on every case
alike.  The table gives the median of the rounds and, for the active
path's time per row, their min-max; the last column is the numpy time
over the active path's.

The active path is printed in the first line: the C kernels where they
build, else numpy (``ROILQR_PURE_NUMPY=1`` forces numpy).  On the C path
the line also names the kernel clone the loader picked for this CPU
(``_kernels.KERNEL_ISA``: ``avx512f``, ``avx2`` or ``baseline``), since
the C times depend on its vector width.
"""

import argparse
import statistics
import time

import numpy as np

from roilqr import _kernels
from roilqr.harness import build_problem, preset

CASES = [
    ("burgers", (1, 176, 264, 204)),
    ("allen_cahn", (1, 2, 4, 8, 12, 16, 18)),
    ("allen_cahn_small", (1, 72, 80, 96, 40)),
    ("cahn_hilliard", (1, 56, 80, 96, 40)),
]

# (preset, full order, (timesteps, first sample, samples) of each unit)
UNIT_BURST = 4
UNITS = [
    ("burgers", False, ((12, 0, 11), (8, 0, 11))),
    ("burgers", True, ((1, 0, 102),)),
    ("allen_cahn", False, ((1, 0, 8), (1, 0, 9))),
    ("allen_cahn", True, ((1, 0, 8), (1, 2496, 8))),
    ("allen_cahn_small", True, ((1, 0, 48), (1, 384, 20))),
    ("cahn_hilliard", True, ((1, 0, 48), (1, 384, 20))),
]


def _time_once(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _unit_args(rng, problem, k, a, m, full):
    """The arguments of one unit of k timesteps and m samples about
    perturbed initial states: at full order samples a..a+m-1 of a
    timestep (state coordinates, then the controls), else m - n_u modes
    and the controls, each moved by 1e-2."""
    model = problem.model
    n_x, n_u = model.n_x, model.n_u
    states = problem.x0 + 1e-2 * rng.standard_normal((k, n_x))
    controls = 0.3 * rng.standard_normal((k, n_u))
    if full:
        moves = np.zeros((n_x + n_u, m))
        moves[a + np.arange(m), np.arange(m)] = 1e-2
        design_x, design_u = moves[:n_x], moves[n_x:].T.copy()
    else:
        modes = np.linalg.qr(rng.standard_normal((n_x, m - n_u)))[0]
        design_x = np.zeros((n_x, m))
        design_x[:, :m - n_u] = 1e-2 * modes
        design_u = np.zeros((m, n_u))
        design_u[m - n_u + np.arange(n_u), np.arange(n_u)] = 1e-2
    return states, controls, design_x, design_u, np.empty((k, n_x, m))


def _round_robin(cases, repeat):
    # warm each call up once, then time one call of each per round
    for *_, calls, _ in cases:
        for call in calls:
            _time_once(*call)
    for _ in range(repeat):
        for *_, calls, times in cases:
            for call, path_times in zip(calls, times):
                path_times.append(_time_once(*call))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    rng = np.random.default_rng(0)
    cases = []
    units = []
    for name, batches in CASES:
        cfg = preset(name)
        problem = build_problem(cfg)
        model = problem.model
        kernels = [getattr(_kernels, f"{cfg.problem.name}_batch{suffix}")
                   for suffix in ("", "_numpy")]
        for rows in batches:
            states = problem.x0 + 1e-2 * rng.standard_normal((rows, model.n_x))
            controls = 0.3 * rng.standard_normal((rows, model.n_u))
            call_args = (states, controls, *model._params)
            calls = [(kernel, call_args) for kernel in kernels]
            cases.append((name, model, rows, calls, ([], [])))
    for name, full, sizes in UNITS:
        problem = build_problem(preset(name))
        model = problem.model
        pde = preset(name).problem.name
        params = model._params
        batch = getattr(_kernels, f"{pde}_batch")
        for k, a, m in sizes:
            unit = _unit_args(rng, problem, k, a, m, full)
            x = np.repeat(unit[0], 2 * m, axis=0)
            u = np.repeat(unit[1], 2 * m, axis=0)
            calls = [
                (getattr(_kernels, f"{pde}_central"), (*unit, *params)),
                (model.step_batch, (x, u)),
                (_kernels.central_numpy, (batch, *unit, *params)),
                (getattr(_kernels, f"{pde}_central_numpy"),
                 (*unit, *params)),
            ]
            calls = [(_burst, call) for call in calls]
            units.append((name, full, model, k, a, m, calls,
                          tuple([] for _ in calls)))
    _round_robin(cases + units, args.repeat)

    active = _kernels.KERNEL_PATH
    isa = f" ({_kernels.KERNEL_ISA})" if _kernels.KERNEL_ISA else ""
    print(f"active path: {active}{isa}; "
          f"median of {args.repeat} interleaved rounds")
    print(f"{'preset':18s} {'n_x':>5s} {'substeps':>8s} {'rows':>5s} "
          f"{active + ' per row':>14s} {'min-max':>19s} {'per cell-substep':>16s} "
          f"{'numpy per row':>14s} {'per cell-substep':>16s} {'numpy/' + active:>12s}")
    for name, model, rows, _, (times, numpy_times) in cases:
        t, t_np = statistics.median(times), statistics.median(numpy_times)
        lo, hi = min(times) / rows * 1e6, max(times) / rows * 1e6
        cells = rows * model.n_x * model.params.substeps
        print(f"{name:18s} {model.n_x:5d} {model.params.substeps:8d} "
              f"{rows:5d} {t / rows * 1e6:12.1f}µs {lo:9.1f}-{hi:<9.1f} "
              f"{t / cells * 1e9:14.2f}ns {t_np / rows * 1e6:12.1f}µs "
              f"{t_np / cells * 1e9:14.2f}ns {t_np / t:11.2f}x")

    print()
    print(f"identification units: {active} per unit, mean of "
          f"{UNIT_BURST} consecutive calls, median of {args.repeat} "
          f"interleaved rounds")
    print(f"{'preset':18s} {'order':>7s} {'k':>3s} {'samples':>9s} "
          f"{'rows':>5s} {'central':>10s} {'batch':>10s} {'batch+numpy':>12s} "
          f"{'gain':>6s} {'numpy central':>14s}")
    for name, full, model, k, a, m, _, times in units:
        central, batch, composed, numpy_central = (
            statistics.median(t) / UNIT_BURST * 1e6 for t in times)
        samples = f"{a}-{a + m - 1}"
        print(f"{name:18s} {'full' if full else 'reduced':>7s} {k:3d} "
              f"{samples:>9s} "
              f"{2 * k * m:5d} {central:8.1f}µs {batch:8.1f}µs "
              f"{composed:10.1f}µs {composed / central:5.2f}x "
              f"{numpy_central:12.1f}µs")


def _burst(fn, args):
    for _ in range(UNIT_BURST):
        fn(*args)


if __name__ == "__main__":
    main()
