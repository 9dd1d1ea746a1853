#!/usr/bin/env python3
"""Step-kernel throughput at the batch sizes the solver issues.

Times ``step_batch`` of each preset's model (control routing and row
chunking included) and reports microseconds per row, and nanoseconds per
cell-substep (per row, divided by n_x * substeps) so that kernels of
different sizes compare:

* Burgers (100 points, 250 substeps): 1 row (initial rollout, first
  line-search trial),
  220 rows (reduced identification: the +/- samples of a group of 10
  timesteps, 22 rows each, stepped in one call) and 408 rows
  (full-order identification, one timestep per call, stepped as two
  chunks of 204);
* Allen-Cahn 50x50: 1 row (first line-search trial), 2, 4, 8 and 12
  rows (the doubling line-search batches that follow it; a 27-step
  no-descent sweep is 1 + 2 + 4 + 8 + 12 rows, at most 16 per batch) and
  16 rows (reduced identification, one timestep per call);
* Allen-Cahn and Cahn-Hilliard 20x20: 1 row, 90 and 100 rows (reduced
  identification, groups of 2-3 timesteps) and 808 rows (full-order
  identification, one timestep per call).

    python3 benchmarks/kernel_bench.py [--repeat N]

The kernels are the active path printed in the first line; set
``ROILQR_PURE_NUMPY=1`` to time the numpy kernels where numba is installed.
"""

import argparse
import time

import numpy as np

from roilqr import _kernels
from roilqr.harness import build_problem, preset

CASES = [
    ("burgers", (1, 220, 408)),
    ("allen_cahn", (1, 2, 4, 8, 12, 16)),
    ("allen_cahn_small", (1, 90, 808)),
    ("cahn_hilliard", (1, 100, 808)),
]


def _time(fn, args, repeat):
    fn(*args)  # warm-up (JIT compile on the numba path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"active path: {_kernels.KERNEL_PATH} "
          f"(numba available: {_kernels.HAVE_NUMBA})")
    print(f"{'preset':18s} {'n_x':>5s} {'substeps':>8s} {'rows':>5s} "
          f"{'call':>10s} {'per row':>10s} {'per cell-substep':>16s}")
    for name, batches in CASES:
        problem = build_problem(preset(name))
        model = problem.model
        for rows in batches:
            states = problem.x0 + 1e-2 * rng.standard_normal((rows, model.n_x))
            controls = 0.3 * rng.standard_normal((rows, model.n_u))
            t = _time(model.step_batch, (states, controls), args.repeat)
            substeps = model.params.substeps
            cell_ns = t / (rows * model.n_x * substeps) * 1e9
            print(f"{name:18s} {model.n_x:5d} {substeps:8d} "
                  f"{rows:5d} {t * 1e3:8.2f}ms {t / rows * 1e6:8.1f}µs "
                  f"{cell_ns:14.2f}ns")


if __name__ == "__main__":
    main()
