"""Experiment orchestration: config ingestion, presets, the four run
modes (solve / benchmark / verify-bounds / repeat), and persistence.

Every run directory gets deterministic artifacts (report.json,
iterations.csv, snapshots.csv) that are byte-for-byte reproducible for a
fixed (config, seed); wall-clock data and timestamps live in separate
metadata/timing files so they never break reproducibility.
"""

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .bounds import build_lqr_pair, trace_limit_set, verify_bounds
from .lqr import CostModel
from .pde import (AllenCahnModel, BurgersModel, CahnHilliardModel, Grid,
                  PdeParams, StabilityError, mask_from_goal)
from .pod import method_of_snapshots
from .solver import ControlProblem, SolverConfig, solve
from .sysid import PerturbationConfig

SCHEMA_ITERATIONS = "iterations-v1"
SCHEMA_SNAPSHOTS = "snapshots-v1"


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


_MODELS = {"burgers": BurgersModel, "allen_cahn": AllenCahnModel,
           "cahn_hilliard": CahnHilliardModel}


@dataclass(frozen=True)
class ProblemSpec:
    """PDE task definition: grid, horizon, physics, cost weights, shapes."""

    name: str
    points: int
    horizon: int
    dt: float
    substeps: int = 10
    nu: float = 0.01
    mobility: float = 1.0
    gamma: float | None = None
    q_weight: float = 0.0
    r_weight: float = 1.0
    qt_weight: float = 1.0
    goal_shape: str = "constant"   # constant | split | disk
    goal_value: float = -0.5
    init_shape: str = "sine"       # sine | cosine | zero
    init_amplitude: float = 1.0


@dataclass(frozen=True)
class RunSpec:
    """Run-level knobs that are not part of the mathematical problem."""

    out_dir: str | None = None
    repeats: int = 1
    guess_std: float = 0.0
    seed_stride: int = 1
    cv_threshold: float = 0.05
    full_time_budget_s: float | None = None
    bounds_samples: int = 200


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    solver: SolverConfig = field(default_factory=SolverConfig)
    perturb: PerturbationConfig = field(default_factory=PerturbationConfig)
    run: RunSpec = field(default_factory=RunSpec)

    def to_dict(self):
        return {
            "problem": asdict(self.problem),
            "solver": asdict(self.solver),
            "perturb": asdict(self.perturb),
            "run": asdict(self.run),
        }


_SECTION_TYPES = {
    "problem": ProblemSpec,
    "solver": SolverConfig,
    "perturb": PerturbationConfig,
    "run": RunSpec,
}

_REQUIRED_PROBLEM_FIELDS = ("name", "points", "horizon", "dt")


def config_from_dict(raw, base=None):
    """Build a validated config from nested dicts, optionally overlaying
    a preset.  Error messages carry the offending key path."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        current = getattr(base, name) if base is not None else None
        overlay = raw.get(name, {})
        if not isinstance(overlay, dict):
            raise ConfigError(f"{name}: must be a mapping")
        valid = {f for f in cls.__dataclass_fields__}
        bad = set(overlay) - valid
        if bad:
            raise ConfigError(
                f"{name}.{sorted(bad)[0]}: unknown field")
        if current is not None:
            try:
                sections[name] = replace(current, **overlay)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}")
        else:
            if name == "problem":
                missing = [f for f in _REQUIRED_PROBLEM_FIELDS
                           if f not in overlay]
                if missing:
                    raise ConfigError(
                        f"problem.{missing[0]}: required field missing")
            try:
                sections[name] = cls(**overlay)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}")
    cfg = ExperimentConfig(**sections)
    _validate(cfg)
    return cfg


def _validate(cfg):
    p = cfg.problem
    if p.name not in _MODELS:
        raise ConfigError(f"problem.name: unknown problem '{p.name}'")
    if p.points < 2:
        raise ConfigError("problem.points: must be >= 2")
    if p.horizon < 1:
        raise ConfigError("problem.horizon: must be >= 1")
    n_x = p.points if p.name == "burgers" else p.points**2
    if p.horizon + 1 > n_x:
        raise ConfigError(
            "problem.horizon: snapshot count horizon+1 must not exceed "
            f"the state dimension {n_x}")
    if p.dt <= 0:
        raise ConfigError("problem.dt: must be positive")
    if p.goal_shape not in ("constant", "split", "disk"):
        raise ConfigError(f"problem.goal_shape: unknown '{p.goal_shape}'")
    if p.init_shape not in ("sine", "cosine", "zero"):
        raise ConfigError(f"problem.init_shape: unknown '{p.init_shape}'")
    if cfg.run.repeats < 1:
        raise ConfigError("run.repeats: must be >= 1")
    if cfg.run.seed_stride < 0:
        raise ConfigError("run.seed_stride: must be >= 0")


# ---------------------------------------------------------------------------
# Presets: the canonical experiment sizes.
# ---------------------------------------------------------------------------


# A seeded Gaussian initial guess ships with every preset: snapshots of a
# zero-control nominal can span a subspace nearly orthogonal to the
# control-reachable directions (the opening basis then hides the descent
# direction from the reduced solver), while any mildly excited nominal
# exposes them.

def _preset_burgers():
    return ExperimentConfig(
        problem=ProblemSpec(
            name="burgers", points=100, horizon=20,
            dt=1e-3, substeps=250, nu=0.08,
            q_weight=0.02, r_weight=0.05, qt_weight=2.0,
            goal_shape="constant", goal_value=-0.5,
            init_shape="sine", init_amplitude=1.0,
        ),
        run=RunSpec(guess_std=0.3),
    )


def _preset_burgers_small():
    # desk-scale variant for the bound-verification instances
    return ExperimentConfig(
        problem=ProblemSpec(
            name="burgers", points=32, horizon=10,
            dt=5e-3, substeps=50, nu=0.08,
            q_weight=0.02, r_weight=0.05, qt_weight=2.0,
            goal_shape="constant", goal_value=-0.5,
            init_shape="sine", init_amplitude=1.0,
        ),
        run=RunSpec(guess_std=0.3),
    )


def _preset_allen_cahn():
    return ExperimentConfig(
        problem=ProblemSpec(
            name="allen_cahn", points=50, horizon=10,
            dt=0.01, substeps=10,
            q_weight=0.05, r_weight=0.02, qt_weight=2.0,
            goal_shape="disk", goal_value=1.0,
            init_shape="cosine", init_amplitude=0.1,
        ),
        run=RunSpec(guess_std=0.3),
    )


def _preset_allen_cahn_small():
    return ExperimentConfig(
        problem=ProblemSpec(
            name="allen_cahn", points=20, horizon=10,
            dt=0.01, substeps=10,
            q_weight=0.05, r_weight=0.02, qt_weight=2.0,
            goal_shape="disk", goal_value=1.0,
            init_shape="cosine", init_amplitude=0.1,
        ),
        run=RunSpec(guess_std=0.3),
    )


def _preset_cahn_hilliard():
    return ExperimentConfig(
        problem=ProblemSpec(
            name="cahn_hilliard", points=20, horizon=10,
            dt=5e-5, substeps=40,
            q_weight=0.05, r_weight=0.3, qt_weight=1.0,
            goal_shape="split", goal_value=0.5,
            init_shape="cosine", init_amplitude=0.1,
        ),
        run=RunSpec(guess_std=0.3),
    )


PRESETS = {
    "burgers": _preset_burgers,
    "burgers_small": _preset_burgers_small,
    "allen_cahn": _preset_allen_cahn,
    "allen_cahn_small": _preset_allen_cahn_small,
    "cahn_hilliard": _preset_cahn_hilliard,
}


def preset(name):
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset '{name}' (have: {', '.join(sorted(PRESETS))})")
    return factory()


# ---------------------------------------------------------------------------
# Problem construction.
# ---------------------------------------------------------------------------


def _goal_field(spec, grid):
    if spec.name == "burgers":
        return np.full(grid.n_x, spec.goal_value)
    p = grid.points
    amp = abs(spec.goal_value) if spec.goal_shape != "constant" else 1.0
    ii, jj = np.meshgrid(np.arange(p), np.arange(p), indexing="xy")
    if spec.goal_shape == "split":
        goal = np.where(ii < p // 2, amp, -amp)
    elif spec.goal_shape == "disk":
        cx = cy = (p - 1) / 2.0
        r = np.hypot(ii - cx, jj - cy)
        goal = np.where(r <= 0.30 * p, amp, -amp)
    else:
        goal = np.full((p, p), spec.goal_value)
    return goal.ravel()


def _initial_state(spec, grid):
    if spec.init_shape == "zero":
        return np.zeros(grid.n_x)
    if spec.name == "burgers":
        x = np.linspace(-1.0, 1.0, grid.points)
        return spec.init_amplitude * np.sin(np.pi * x)
    p = grid.points
    k = 2.0 * np.pi / p
    ii, jj = np.meshgrid(np.arange(p), np.arange(p), indexing="xy")
    return (spec.init_amplitude * np.cos(k * ii) * np.cos(k * jj)).ravel()


def build_problem(cfg, u_init=None):
    """Instantiate the model, cost and problem container from a config."""
    spec = cfg.problem
    try:
        params = PdeParams(dt=spec.dt, substeps=spec.substeps, nu=spec.nu,
                           mobility=spec.mobility, gamma=spec.gamma)
        if spec.name == "burgers":
            grid = Grid(ndim=1, points=spec.points,
                        dx=2.0 / (spec.points - 1))
            goal = _goal_field(spec, grid)
            model = BurgersModel(grid, params)
        else:
            grid = Grid(ndim=2, points=spec.points, dx=1.0 / spec.points)
            goal = _goal_field(spec, grid)
            model = _MODELS[spec.name](grid, params, mask_from_goal(goal))
    except (StabilityError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}")

    cost = CostModel(
        q=spec.q_weight,
        r=spec.r_weight * np.eye(model.n_u),
        q_terminal=spec.qt_weight,
        goal=goal,
    )
    x0 = _initial_state(spec, grid)
    return ControlProblem(model=model, cost=cost, x0=x0,
                          horizon=spec.horizon, u_init=u_init)


def gaussian_guess(cfg, seed, std):
    rng = np.random.default_rng(seed)
    n_u = _MODELS[cfg.problem.name].n_u
    return std * rng.standard_normal((cfg.problem.horizon, n_u))


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def _fmt(x):
    return repr(float(x))


def _write_iterations_csv(path, report):
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_ITERATIONS}\n")
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost", "modes", "eps", "alpha",
                         "trials", "sysid_samples"])
        writer.writerow([0, _fmt(report.initial_cost), "", "", "", "", ""])
        for it in report.iterations:
            writer.writerow([
                it.iteration, _fmt(it.cost), it.n_modes,
                _fmt(it.projection_eps), _fmt(it.alpha), it.trials,
                it.sysid_samples,
            ])


def _write_snapshots_csv(path, trajectory):
    horizon = trajectory.horizon
    times = sorted({0, round(horizon / 3), round(2 * horizon / 3), horizon})
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_SNAPSHOTS}\n")
        writer = csv.writer(fh)
        writer.writerow([f"t{t}" for t in times])
        for row in trajectory.states[times, :].T:
            writer.writerow([_fmt(v) for v in row])


def _report_dict(cfg, report):
    return {
        "config": cfg.to_dict(),
        "mode": report.mode,
        "seed": report.seed,
        "status": report.status,
        "converged": report.converged,
        "error": report.error,
        "initial_cost": report.initial_cost,
        "final_cost": report.final_cost,
        "costs": report.costs,
        "modes": [it.n_modes for it in report.iterations],
        "eps": [it.projection_eps for it in report.iterations],
        "alphas": [it.alpha for it in report.iterations],
        "trials": [it.trials for it in report.iterations],
        "sysid_samples": [it.sysid_samples for it in report.iterations],
        "total_sysid_samples": report.total_sysid_samples(),
        "final_controls": None if report.controls is None
        else report.controls.tolist(),
        "final_state": None if report.trajectory is None
        else report.trajectory.states[-1].tolist(),
    }


def _metadata_dict(report):
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": report.wall_time_s,
        "phase_times": report.phase_times(),
        "per_iteration_elapsed": [it.elapsed for it in report.iterations],
    }


def _dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_solve_artifacts(out_dir, cfg, report):
    os.makedirs(out_dir, exist_ok=True)
    _dump_json(os.path.join(out_dir, "report.json"), _report_dict(cfg, report))
    _write_iterations_csv(os.path.join(out_dir, "iterations.csv"), report)
    if report.trajectory is not None:
        _write_snapshots_csv(os.path.join(out_dir, "snapshots.csv"),
                             report.trajectory)
    _dump_json(os.path.join(out_dir, "metadata.json"), _metadata_dict(report))


# ---------------------------------------------------------------------------
# Run modes.
# ---------------------------------------------------------------------------


def _solve_once(cfg, seed, out_dir=None, mode=None, u_init=None,
                time_budget=None):
    solver_cfg = replace(cfg.solver, seed=seed,
                         **({"mode": mode} if mode else {}),
                         **({"time_budget_s": time_budget}
                            if time_budget is not None else {}))
    if u_init is None and cfg.run.guess_std > 0:
        u_init = gaussian_guess(cfg, seed, cfg.run.guess_std)
    problem = build_problem(cfg, u_init=u_init)
    report = solve(problem, solver_cfg, cfg.perturb)
    if out_dir is not None:
        write_solve_artifacts(out_dir, cfg, report)
    return report


def run_solve(cfg, out_dir=None):
    """Run one solve (or ``run.repeats`` seeded solves in subdirectories).

    Returns the list of reports.
    """
    out_dir = out_dir or cfg.run.out_dir
    reports = []
    if cfg.run.repeats == 1:
        reports.append(_solve_once(cfg, cfg.solver.seed, out_dir=out_dir))
    else:
        for i in range(cfg.run.repeats):
            seed = cfg.solver.seed + i * cfg.run.seed_stride
            sub = os.path.join(out_dir, f"seed_{seed:04d}") if out_dir else None
            reports.append(_solve_once(cfg, seed, out_dir=sub))
    return reports


@dataclass
class BenchmarkRecord:
    """Both modes on the identical problem, guess and seed."""

    full: dict
    reduced: dict
    cost_gap: float | None
    speedup: float | None
    full_report: object = field(default=None, repr=False)
    reduced_report: object = field(default=None, repr=False)


def _mode_summary(report):
    phases = report.phase_times()
    return {
        "status": report.status,
        "converged": report.converged,
        "iterations": len(report.iterations),
        "final_cost": report.final_cost,
        "costs": report.costs,
        "total_sysid_samples": report.total_sysid_samples(),
        "wall_time_s": report.wall_time_s,
        "sysid_time_s": phases["t_sysid"],
        "backward_time_s": phases["t_backward"],
    }


def run_benchmark(cfg, out_dir=None):
    """Run reduced and full modes from the identical initial guess/seed
    and record the cost gap and wall-clock speedup."""
    out_dir = out_dir or cfg.run.out_dir
    seed = cfg.solver.seed
    u_init = gaussian_guess(cfg, seed, cfg.run.guess_std) \
        if cfg.run.guess_std > 0 else None

    red_dir = os.path.join(out_dir, "reduced") if out_dir else None
    full_dir = os.path.join(out_dir, "full") if out_dir else None
    red = _solve_once(cfg, seed, out_dir=red_dir, mode="reduced",
                      u_init=u_init)
    full = _solve_once(cfg, seed, out_dir=full_dir, mode="full",
                       u_init=u_init, time_budget=cfg.run.full_time_budget_s)

    full_ok = full.status in ("converged", "no_descent", "max_iterations")
    cost_gap = (red.final_cost / full.final_cost - 1.0) \
        if full_ok and full.final_cost > 0 else None
    speedup = (full.wall_time_s / red.wall_time_s) \
        if full_ok and red.wall_time_s > 0 else None
    record = BenchmarkRecord(full=_mode_summary(full),
                             reduced=_mode_summary(red),
                             cost_gap=cost_gap, speedup=speedup,
                             full_report=full, reduced_report=red)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        deterministic = {
            "config": cfg.to_dict(),
            "cost_gap": cost_gap,
            "full": {k: v for k, v in record.full.items()
                     if not k.endswith("_s")},
            "reduced": {k: v for k, v in record.reduced.items()
                        if not k.endswith("_s")},
        }
        timing = {
            "speedup": speedup,
            "full": {k: v for k, v in record.full.items()
                     if k.endswith("_s")},
            "reduced": {k: v for k, v in record.reduced.items()
                        if k.endswith("_s")},
        }
        _dump_json(os.path.join(out_dir, "benchmark.json"), deterministic)
        _dump_json(os.path.join(out_dir, "benchmark_timing.json"), timing)
    return record


def run_verify_bounds(cfg, out_dir=None):
    """Solve (reduced), then verify every bound inequality around the
    converged nominal and trace limit-set membership per iterate."""
    out_dir = out_dir or cfg.run.out_dir
    n_u = _MODELS[cfg.problem.name].n_u
    if cfg.problem.horizon * n_u > 200:
        raise ConfigError(
            "run: bound verification needs a desk-scale instance "
            f"(horizon*n_u <= 200, got {cfg.problem.horizon * n_u})")

    problem = build_problem(
        cfg, u_init=gaussian_guess(cfg, cfg.solver.seed, cfg.run.guess_std)
        if cfg.run.guess_std > 0 else None)
    solver_cfg = replace(cfg.solver, mode="reduced")
    report = solve(problem, solver_cfg, cfg.perturb)
    if report.trajectory is None:
        raise RuntimeError(f"bounds run failed to produce a nominal: "
                           f"{report.status}")

    nominal = report.trajectory
    basis = method_of_snapshots(nominal.states.T,
                                energy_cutoff=cfg.solver.energy_cutoff)
    pair = build_lqr_pair(problem.model, problem.cost, nominal, basis,
                          replace(cfg.perturb, seed=cfg.solver.seed))
    bounds_report = verify_bounds(pair, samples=cfg.run.bounds_samples,
                                  seed=cfg.solver.seed)
    trace, consistent = trace_limit_set(
        problem, report, energy_cutoff=cfg.solver.energy_cutoff,
        perturb=replace(cfg.perturb, seed=cfg.solver.seed + 1),
        samples=max(20, cfg.run.bounds_samples // 10),
        seed=cfg.solver.seed + 2)
    bounds_report.limit_set_trace = trace
    bounds_report.limit_set_consistent = consistent

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        payload = {"config": cfg.to_dict(), "solve_status": report.status,
                   **bounds_report.to_dict()}
        _dump_json(os.path.join(out_dir, "bounds.json"), payload)
        write_solve_artifacts(os.path.join(out_dir, "solve"), cfg, report)
    return bounds_report, report


def run_repeatability(cfg, out_dir=None):
    """Seeded initial-guess sweep with per-iteration cost statistics."""
    out_dir = out_dir or cfg.run.out_dir
    if cfg.run.repeats < 2:
        raise ConfigError("run.repeats: repeatability needs >= 2 runs")
    guess_std = cfg.run.guess_std if cfg.run.guess_std > 0 else 0.1
    reports = run_solve(replace(cfg, run=replace(cfg.run, guess_std=guess_std)),
                        out_dir=out_dir)

    ok = [r for r in reports
          if r.status in ("converged", "no_descent", "max_iterations")]
    partial = len(ok) < len(reports)
    finals = np.array([r.final_cost for r in ok]) if ok else np.array([])

    longest = max((len(r.costs) for r in ok), default=0)
    padded = np.array([
        r.costs + [r.final_cost] * (longest - len(r.costs)) for r in ok
    ]) if ok else np.zeros((0, 0))
    mean_curve = padded.mean(axis=0).tolist() if ok else []
    std_curve = padded.std(axis=0).tolist() if ok else []

    mean_final = float(finals.mean()) if finals.size else float("nan")
    cv = float(finals.std() / mean_final) if finals.size and mean_final > 0 \
        else float("nan")
    spread = float((finals.max() - finals.min()) / mean_final) \
        if finals.size and mean_final > 0 else float("nan")
    aggregate = {
        "runs": len(reports),
        "completed": len(ok),
        "partial": partial,
        "final_costs": finals.tolist(),
        "final_cost_mean": mean_final,
        "final_cost_std": float(finals.std()) if finals.size else float("nan"),
        "final_cost_cv": cv,
        "final_cost_rel_spread": spread,
        "cv_threshold": cfg.run.cv_threshold,
        "repeatable": bool(not partial and cv <= cfg.run.cv_threshold),
        "cost_mean_curve": mean_curve,
        "cost_std_curve": std_curve,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _dump_json(os.path.join(out_dir, "aggregate.json"),
                   {"config": cfg.to_dict(), **aggregate})
    return aggregate, reports
