#!/usr/bin/env python3
"""roilqr benchmark: closed-loop seeded solves through the public harness.

One client, closed loop: each workload runs one seeded solve after
another through ``harness.run_solve`` (reduced workloads) or
``harness.run_benchmark`` (the paired workload: reduced, then full order
from the identical guess), with artifacts written to a temporary
directory inside the checkout.  Run from the root of a checkout:

    python3 perfbench/run.py --workload allen_cahn-reduced --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
seed untraced and then traced and prints the per-layer metrics.  The
last line of stdout is the JSON result.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: the full-order solve is faster with one than with two,
# and the last digit of its final cost depends on the thread count
# (timings in perfbench/README.md).
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5           # fresh processes per run; setup_s is their median
OK_STATUSES = ("converged", "no_descent", "max_iterations")
COST_RTOL = 1e-9           # recomputed vs reported final cost
MAX_COST_GAP = 0.14        # acceptance tolerances of the paired solve
MAX_MODES = 10
UNATTRIBUTED_SHARE = 0.02  # traced run: largest share of a solve's wall
                           # time that may fall outside every layer


@dataclass(frozen=True)
class Workload:
    preset: str
    paired: bool
    call_s: float   # nominal seconds per harness call (2-core x86, numpy
                    # kernels); sets how many calls fit in --seconds


def call_count(seconds, call_s):
    """Calls per run: as many as a loop that starts calls until --seconds
    have passed would make at the nominal call time.  Fixing the count
    (instead of watching the clock) makes a seed fix the work."""
    return max(1, math.ceil(seconds / call_s))


WORKLOADS = {
    # what each workload exercises, with measured shares: perfbench/README.md
    "burgers-reduced": Workload("burgers", False, 5.0),
    "allen_cahn-reduced": Workload("allen_cahn", False, 1.0),
    "allen_cahn_small-paired": Workload("allen_cahn_small", True, 20.0),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def solve_seeds(seed, count):
    """Solver seeds of one run; each one fixes a Gaussian initial guess
    and the identification samples of its solve."""
    return [seed * 1000 + i for i in range(count)]


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def prepare_environment():
    """Fix the BLAS thread count (before numpy loads) and put ``src`` on
    the path, for this process and the set-up probes it starts."""
    threads = str(BLAS_THREADS)
    for var in _THREAD_VARS:
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))


def _blas_threads_in_use():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.rsplit("/", 1)[-1]}
    out = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment():
    import platform

    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    from roilqr import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads_in_use = _blas_threads_in_use()
    except OSError:
        threads_in_use = {}
    return {
        "use_numba": _kernels.USE_NUMBA,
        "have_numba": _kernels.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ[_THREAD_VARS[0]]),
        "blas_threads_in_use": threads_in_use,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def probe_setup(preset, seed):
    """Median fresh-process set-up time over SETUP_PROBES processes; one
    more process runs first so bytecode caches exist."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), preset, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times[1:]), times[1:]


# ---------------------------------------------------------------------------
# One solve and its checks.
# ---------------------------------------------------------------------------


def _config(harness, workload, seed):
    cfg = harness.preset(workload.preset)
    return replace(cfg, solver=replace(cfg.solver, seed=seed))


def run_call(harness, workload, seed, out_dir):
    """One harness call; returns {mode: report} (and the paired record)."""
    cfg = _config(harness, workload, seed)
    if workload.paired:
        record = harness.run_benchmark(cfg, out_dir=out_dir)
        return {"reduced": record.reduced_report, "full": record.full_report,
                "record": record}
    [report] = harness.run_solve(cfg, out_dir=out_dir)
    return {"reduced": report}


def _check_report(harness, cfg, report, out_dir):
    from roilqr.pde import rollout

    if report.status not in OK_STATUSES:
        return [f"status {report.status} ({report.error})"]
    errors = []
    costs = report.costs
    if not all(math.isfinite(c) for c in costs):
        errors.append("non-finite cost")
    elif any(b > a for a, b in zip(costs, costs[1:])):
        errors.append(f"cost increased: {costs}")
    # the reported final cost, recomputed from the final controls alone
    problem = harness.build_problem(cfg)
    final = problem.cost.trajectory_cost(
        rollout(problem.model, problem.x0, report.controls))
    if not math.isclose(final, report.final_cost, rel_tol=COST_RTOL):
        errors.append(f"final cost {report.final_cost!r} but its controls "
                      f"cost {final!r}")
    with open(os.path.join(out_dir, "report.json")) as fh:
        saved = json.load(fh)
    if saved["status"] != report.status or not math.isclose(
            saved["final_cost"], report.final_cost, rel_tol=COST_RTOL):
        errors.append("report.json disagrees with the returned report")
    return errors


def check_call(harness, workload, seed, result, out_dir):
    """Correctness failures of one call (empty when it passed)."""
    cfg = _config(harness, workload, seed)
    if not workload.paired:
        return _check_report(harness, cfg, result["reduced"], out_dir)
    errors = []
    for mode in ("reduced", "full"):
        errors += [f"{mode}: {e}" for e in _check_report(
            harness, cfg, result[mode], os.path.join(out_dir, mode))]
    gap = result["record"].cost_gap
    if gap is None or abs(gap) > MAX_COST_GAP:
        errors.append(f"cost gap {gap} outside +-{MAX_COST_GAP}")
    modes = max((it.n_modes for it in result["reduced"].iterations),
                default=0)
    if modes > MAX_MODES:
        errors.append(f"{modes} retained modes > {MAX_MODES}")
    return errors


def _timed_call(harness, workload, seed, out_dir, call=None):
    """Run, time and check one call; returns (wall_s, result, errors)."""
    call = call or run_call
    start = time.perf_counter()
    try:
        result = call(harness, workload, seed, out_dir)
    except Exception:  # a crash counts as a failed solve; keep measuring
        traceback.print_exc()
        return time.perf_counter() - start, None, ["raised"]
    wall = time.perf_counter() - start
    return wall, result, check_call(harness, workload, seed, result, out_dir)


def _solve_line(i, seed, wall, result, errors):
    if result is None:
        return f"solve {i} seed={seed} wall={wall:.3f}s FAILED: raised"
    parts = [f"solve {i} seed={seed} wall={wall:.3f}s"]
    for mode in ("reduced", "full"):
        rep = result.get(mode)
        if rep is not None:
            parts.append(f"{mode}: status={rep.status} "
                         f"iterations={len(rep.iterations)} "
                         f"final_cost={rep.final_cost!r} "
                         f"solver_wall={rep.wall_time_s:.3f}s")
    if errors:
        parts.append("FAILED: " + "; ".join(errors))
    return "  ".join(parts)


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workload, harness, tmp):
    setup_s, setup_all = probe_setup(workload.preset, args.seed)
    print(f"setup probes (s): {', '.join(f'{t:.4f}' for t in setup_all)}")
    seeds = solve_seeds(args.seed, call_count(args.seconds, workload.call_s))
    walls, results, failed = [], [], 0
    for i, seed in enumerate(seeds):
        wall, result, errors = _timed_call(
            harness, workload, seed, os.path.join(tmp, f"solve_{i}"))
        print(_solve_line(i, seed, wall, result, errors), flush=True)
        failed += bool(errors)
        if result is not None:
            walls.append(wall)
            results.append(result)
    if not results:
        raise SystemExit("every solve raised; no metrics")
    mode = "full" if workload.paired else "reduced"
    n = len(seeds)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "solve_s": _metric(statistics.median(walls), "s"),
        "final_cost": _metric(
            statistics.median(r[mode].final_cost for r in results), "cost"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"fail_frac = {failed / n!r} ratio ({failed} of {n} solves failed "
          f"a status or correctness check)")
    print(f"solve_s and final_cost are medians over {n} solves "
          f"(final_cost of the {mode} solve); setup_s is the median of "
          f"{SETUP_PROBES} fresh processes")
    if workload.paired:
        for m in ("reduced", "full"):
            print(f"{m}.solver_wall_s = "
                  f"{statistics.median(r[m].wall_time_s for r in results)!r} "
                  f"s; {m}.final_cost = "
                  f"{statistics.median(r[m].final_cost for r in results)!r}")
        gaps = [r["record"].cost_gap for r in results]
        speedups = [r["record"].speedup for r in results]
        if None not in gaps + speedups:
            print(f"cost_gap = {statistics.median(gaps):+.3%}, speedup = "
                  f"{statistics.median(speedups):.2f}x (not gated: each is "
                  f"a ratio of the two modes)")
    print(f"no tail percentile is reported: {n} solves are far fewer than "
          f"the ~100 a percentile with >= 10 solves beyond it needs")
    return n, failed, True, metrics


def measure_traced(args, workload, harness, tmp):
    import roilqr

    from tracing import (Tracer, installed, layer_self_times, solve_metrics,
                         unit)

    count = call_count(args.seconds, 2 * workload.call_s)
    plain, per_solve, failed, accounted = [], [], 0, True
    for i, seed in enumerate(solve_seeds(args.seed, count)):
        tracer = Tracer()

        def traced_call(*call_args):
            with installed(tracer, roilqr):
                return tracer.call(run_call, *call_args)

        # alternate which of the pair runs first, so neither gets the
        # warmer caches every time
        for traced in (i % 2 == 1, i % 2 == 0):
            wall, result, errors = _timed_call(
                harness, workload, seed,
                os.path.join(tmp, f"{'traced' if traced else 'plain'}_{i}"),
                call=traced_call if traced else None)
            print(("traced " if traced else "") +
                  _solve_line(i, seed, wall, result, errors), flush=True)
            failed += bool(errors)
            if not traced:
                plain.append(wall)

        per_solve.append(solve_metrics(tracer.spans))
        layers = layer_self_times(tracer.spans)
        wall = tracer.spans[0].duration
        share = layers.get(None, 0.0) / wall
        print("  self time by layer (s): " + ", ".join(
            f"{k or 'unattributed'}={v:.4f}" for k, v in sorted(
                layers.items(), key=lambda kv: -kv[1])) +
            f"; sum={sum(layers.values()):.4f} of wall={wall:.4f}; "
            f"unattributed share {share:.3%}")
        if share > UNATTRIBUTED_SHARE:
            print(f"  TRACE CHECK FAILED: unattributed share {share:.3%} > "
                  f"{UNATTRIBUTED_SHARE:.0%}")
            accounted = False
    metrics = {name: statistics.median(m[name] for m in per_solve)
               for name in per_solve[0]}
    metrics["trace.overhead_s"] = (metrics["trace.solve_s"]
                                   - statistics.median(plain))
    out = {}
    for name, value in metrics.items():
        out[name] = _metric(value, unit(name))
        print(f"{name} = {value!r} {unit(name)}")
    print(f"per-layer values are medians over {count} traced solves")
    return 2 * count, failed, accounted, out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "roilqr" / "__init__.py").is_file():
        print(f"error: roilqr sources not found under {SRC}; run from the "
              f"root of a roilqr checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    prepare_environment()

    from roilqr import harness

    print("environment: " + json.dumps(environment()))
    print(f"workload {args.workload}: preset {workload.preset}, "
          f"{'paired run_benchmark' if workload.paired else 'reduced run_solve'}"
          f" calls, closed loop with one client, seed {args.seed}")
    run = measure_traced if args.trace else measure
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        attempted, failed, accounted, metrics = run(
            args, workload, harness, tmp)
    print(json.dumps({"correct": failed == 0 and accounted,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
