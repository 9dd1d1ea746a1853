"""Command-line entry point.

Subcommands: solve, benchmark, verify-bounds, repeat.  Experiments are
described by a preset name and/or a YAML config file; --seed / --mode /
--out / --repeats override the corresponding config fields.  Each layer
overlays the previous one (preset < config file < flags) and is
validated the same way.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 no-descent termination; a ``solve --repeats`` sweep exits with its
most severe status.
"""

import argparse
import math
import sys

import yaml

from .harness import (ConfigError, NumericalFailure, config_from_dict,
                      preset, run_benchmark, run_repeatability, run_solve,
                      run_verify_bounds)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_DESCENT = 4
_SEVERITY = (EXIT_OK, EXIT_NO_DESCENT, EXIT_NUMERICAL)   # least first

# flag -> (config section, field)
_FLAG_FIELDS = {"seed": ("solver", "seed"), "mode": ("solver", "mode"),
                "out": ("run", "out_dir"), "repeats": ("run", "repeats")}


def _add_common(sub):
    sub.add_argument("--preset", help="named preset configuration")
    sub.add_argument("--config", help="YAML config file (overlays preset)")
    sub.add_argument("--seed", type=int, help="override solver seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--mode", choices=("reduced", "full"),
                     help="override solver mode")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="roilqr",
        description="Reduced-order iterative LQR for discretized PDEs.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "run one optimization and persist its report"),
        ("benchmark", "run reduced and full modes and compare"),
        ("verify-bounds", "measure and check the suboptimality bounds"),
        ("repeat", "seeded initial-guess repeatability sweep"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        if name in ("solve", "repeat"):
            sub.add_argument("--repeats", type=int,
                             help="override run.repeats")
    return parser


def load_config(args):
    if not args.preset and not args.config:
        raise ConfigError("need --preset and/or --config")
    cfg = preset(args.preset) if args.preset else None
    if args.config:
        try:
            with open(args.config) as fh:
                raw = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error: {exc}")
        cfg = config_from_dict(raw, base=cfg)
    overlay = {}
    for flag, (section, name) in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)   # --repeats: solve/repeat only
        if value is not None:
            overlay.setdefault(section, {})[name] = value
    return config_from_dict(overlay, base=cfg)


def _status_exit(status):
    if status == "no_descent":
        return EXIT_NO_DESCENT
    if status in ("numerical_failure", "timeout"):
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_solve(cfg):
    reports = run_solve(cfg)
    worst = EXIT_OK
    for rep in reports:
        print(f"[solve] seed={rep.seed} status={rep.status} "
              f"iterations={len(rep.iterations)} "
              f"final_cost={rep.final_cost:.6g}")
        worst = max(worst, _status_exit(rep.status), key=_SEVERITY.index)
    return worst


def _cmd_benchmark(cfg):
    record = run_benchmark(cfg)
    gap = "n/a" if record.cost_gap is None else f"{record.cost_gap:+.2%}"
    speedup = "n/a" if record.speedup is None else f"{record.speedup:.2f}x"
    for name, rec in (("reduced", record.reduced), ("full", record.full)):
        print(f"[benchmark] {name + ':':8s} cost={rec['final_cost']:.6g} "
              f"({rec['iterations']} iters, {rec['wall_time_s']:.2f}s, "
              f"status={rec['status']})")
    print(f"[benchmark] cost gap={gap} speedup={speedup}")
    # a full-order run may time out under run.full_time_budget_s: the
    # reduced result still stands on its own
    if _status_exit(record.reduced["status"]) == EXIT_NUMERICAL \
            or record.full["status"] == "numerical_failure":
        return EXIT_NUMERICAL
    return EXIT_OK


def _verdict(ok, bound):
    if ok:
        return "ok"
    return "VIOLATED" if math.isfinite(bound) else "bound not finite"


def _cmd_verify_bounds(cfg):
    try:
        rep, _ = run_verify_bounds(cfg)
    except NumericalFailure as exc:
        print(f"[bounds] status=numerical_failure: {exc}")
        return EXIT_NUMERICAL
    ok = rep.objective_gap_ok and rep.minima_gap_ok and rep.distance_ok
    print(f"[bounds] objective gap {rep.max_objective_gap:.3g} "
          f"(bound {rep.gap_bound:.3g}) "
          f"-> {_verdict(rep.objective_gap_ok, rep.gap_bound)}")
    print(f"[bounds] minima gap {rep.minima_gap:.3g} "
          f"(bound {rep.minima_gap_bound:.3g}) "
          f"-> {_verdict(rep.minima_gap_ok, rep.minima_gap_bound)}")
    print(f"[bounds] minimizer distance {rep.minimizer_distance:.3g} "
          f"(delta {rep.delta:.3g}, sigma_min {rep.sigma_min:.3g}) "
          f"-> {_verdict(rep.distance_ok, rep.delta)}")
    members = sum(1 for e in rep.limit_set_trace if e["member"])
    print(f"[bounds] limit-set members {members}/"
          f"{len(rep.limit_set_trace)} iterates "
          f"(consistent={rep.limit_set_consistent})")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_repeat(cfg):
    aggregate, _ = run_repeatability(cfg)
    print(f"[repeat] {aggregate['completed']}/{aggregate['runs']} runs, "
          f"final cost mean={aggregate['final_cost_mean']:.6g} "
          f"cv={aggregate['final_cost_cv']:.3g} "
          f"spread={aggregate['final_cost_rel_spread']:.3g}")
    print(f"[repeat] repeatable={aggregate['repeatable']}")
    return EXIT_OK if aggregate["repeatable"] else EXIT_NUMERICAL


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        handler = {
            "solve": _cmd_solve,
            "benchmark": _cmd_benchmark,
            "verify-bounds": _cmd_verify_bounds,
            "repeat": _cmd_repeat,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
