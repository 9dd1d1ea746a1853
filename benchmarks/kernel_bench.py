#!/usr/bin/env python3
"""Step-kernel throughput at the batch sizes the solver issues, on the
active kernel path and on the numpy path.

Times each preset's kernel called as ``step_batch`` calls it (one call
per batch, control routing included), and reports microseconds per row
and nanoseconds per cell-substep (per row, divided by n_x * substeps),
so that kernels of different sizes compare.  The row counts are those of
seed-0 solves:

* Burgers (100 points, 250 substeps): 1 row (rollouts and line search),
  176 and 264 rows (reduced identification: 11 samples of 2 rows per
  timestep, stepped as runs of 8 and 12 whole timesteps, each a multiple
  of 8 rows) and 204 rows (full-order identification: one timestep's
  2(100 + 2) rows per call);
* Allen-Cahn 50x50 (10 substeps): 1 row, 2, 4, 8 and 12 rows (the
  doubling batches of a 27-step no-descent line-search sweep, 1 + 2 + 4 +
  8 + 12 rows) and 16 and 18 rows (reduced identification: one whole
  timestep of 2(l + 4) rows per call, for l = 4 and 5 modes);
* Allen-Cahn 20x20: 1 row, 72 and 80 rows (reduced identification, runs
  of whole timesteps) and 96 and 40 rows (full-order identification: a
  timestep's 2(400 + 4) rows are stepped as eight units of 96 rows and
  one of 40);
* Cahn-Hilliard 20x20 (40 substeps): 1 row, 56 and 80 rows (reduced
  identification) and 96 and 40 rows (full order, as for Allen-Cahn).

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
        cfg = preset(name)
        problem = build_problem(cfg)
        model = problem.model
        kernels = [getattr(_kernels, f"{cfg.problem.name}_batch{suffix}")
                   for suffix in ("", "_numpy")]
        for rows in batches:
            states = problem.x0 + 1e-2 * rng.standard_normal((rows, model.n_x))
            controls = 0.3 * rng.standard_normal((rows, model.n_u))
            call_args = (states, *model._kernel_args(controls))
            calls = [(kernel, call_args) for kernel in kernels]
            for call in calls:
                _time_once(*call)  # warm-up
            cases.append((name, model, rows, calls, ([], [])))
    for _ in range(args.repeat):
        for *_, calls, times in cases:
            for call, path_times in zip(calls, times):
                path_times.append(_time_once(*call))

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


if __name__ == "__main__":
    main()
