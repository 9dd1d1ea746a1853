#!/usr/bin/env python3
"""Step-kernel throughput at the batch sizes the solver issues.

Times ``step_batch`` of each preset's model (control routing included),
one kernel call per batch, and reports microseconds per row, and
nanoseconds per cell-substep (per row, divided by n_x * substeps) so
that kernels of different sizes compare:

* Burgers (100 points, 250 substeps): 1 row (initial rollout and line
  search; the line search accepts its first step size), 204 rows
  (full-order identification: the +/- samples of one timestep, 2(100 + 2)
  rows, per call) and 220 rows (reduced identification: a group of 10
  timesteps of 22 rows each per call);
* Allen-Cahn 50x50: 1 row (initial rollout, first line-search trial), 2,
  4, 8 and 12 rows (the doubling line-search batches that follow it; a
  27-step no-descent sweep is 1 + 2 + 4 + 8 + 12 rows, at most 16 per
  batch) and 16 rows (reduced identification, 2(l + 4) rows for l
  modes, one timestep per call; a timestep of more rows is stepped as
  units of 16 rows and the rest, 4 rows for l = 6);
* Allen-Cahn 20x20: 1 row, 80 and 90 rows (reduced identification,
  groups of 5 timesteps) and 96 and 40 rows (full-order identification:
  a timestep's 2(400 + 4) rows do not fit in one call, so they are
  stepped as eight units of 48 samples, 96 rows, and one of 20, 40 rows);
* Cahn-Hilliard 20x20: 1 row, 100 rows (reduced identification: runs
  of up to 5 whole timesteps, equal runs and a shorter last one, of
  26-100 rows; e.g. 84, 84, 84 and 28 rows at 14 samples) and 96 and
  40 rows (full order, as for Allen-Cahn).

    python3 benchmarks/kernel_bench.py [--repeat N]

Each case is warmed up once; then the cases are timed round by round,
one call of each per round, for ``--repeat`` rounds, so that a slow
spell of a shared machine falls on every case alike.  The table gives
the median of the rounds and, for the time per row, their min-max.

The kernels are the active path printed in the first line; set
``ROILQR_PURE_NUMPY=1`` to time the numpy kernels where numba is installed.
"""

import argparse
import statistics
import time

import numpy as np

from roilqr import _kernels
from roilqr.harness import build_problem, preset

CASES = [
    ("burgers", (1, 204, 220)),
    ("allen_cahn", (1, 2, 4, 8, 12, 16)),
    ("allen_cahn_small", (1, 80, 90, 96, 40)),
    ("cahn_hilliard", (1, 100, 96, 40)),
]


def _time_once(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    rng = np.random.default_rng(0)
    cases = []
    for name, batches in CASES:
        problem = build_problem(preset(name))
        model = problem.model
        for rows in batches:
            states = problem.x0 + 1e-2 * rng.standard_normal((rows, model.n_x))
            controls = 0.3 * rng.standard_normal((rows, model.n_u))
            call = (model.step_batch, (states, controls))
            _time_once(*call)  # warm-up (JIT compile on the numba path)
            cases.append((name, model, rows, call, []))
    for _ in range(args.repeat):
        for *_, call, times in cases:
            times.append(_time_once(*call))

    print(f"active path: {_kernels.KERNEL_PATH} "
          f"(numba available: {_kernels.HAVE_NUMBA}); "
          f"median of {args.repeat} interleaved rounds")
    print(f"{'preset':18s} {'n_x':>5s} {'substeps':>8s} {'rows':>5s} "
          f"{'call':>10s} {'per row':>10s} {'per row min-max':>19s} "
          f"{'per cell-substep':>16s}")
    for name, model, rows, _, times in cases:
        t = statistics.median(times)
        lo, hi = min(times) / rows * 1e6, max(times) / rows * 1e6
        substeps = model.params.substeps
        cell_ns = t / (rows * model.n_x * substeps) * 1e9
        print(f"{name:18s} {model.n_x:5d} {substeps:8d} "
              f"{rows:5d} {t * 1e3:8.2f}ms {t / rows * 1e6:8.1f}µs "
              f"{lo:9.1f}-{hi:<9.1f} {cell_ns:14.2f}ns")


if __name__ == "__main__":
    main()
