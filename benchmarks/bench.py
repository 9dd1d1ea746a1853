#!/usr/bin/env python3
"""Seeded solve sweeps, and what changed between two of them.

    python3 benchmarks/bench.py sweep [--seeds A:B] --out F
    python3 benchmarks/bench.py compare OLD NEW

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
"""

import argparse
import json
import sys
from dataclasses import replace

REDUCED_PRESETS = ("burgers", "allen_cahn", "allen_cahn_small",
                   "cahn_hilliard")
FULL_PRESET = "allen_cahn_small"
FULL_SEEDS = 6   # a full-order solve takes about 20 reduced ones' time
CHECKED = ("status", "iterations", "final_cost", "max_modes")


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
    args = parser.parse_args(argv)
    if args.command == "sweep":
        sweep(args.seeds, args.out)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
