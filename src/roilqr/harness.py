"""Experiment orchestration: config ingestion, presets, the four run
modes (solve / benchmark / verify-bounds / repeat), and persistence.

Every run directory gets deterministic artifacts (report.json,
iterations.csv, snapshots.csv) that are byte-for-byte reproducible for a
fixed (config, seed); wall-clock data and timestamps live in separate
metadata/timing files so they never break reproducibility.
"""

import functools
import json
import math
import numbers
import os
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import _kernels
from .bounds import verify_iterates
from .lqr import DENSE_ORACLE_LIMIT, CostModel
from .pde import (AllenCahnModel, BurgersModel, CahnHilliardModel,
                  DivergenceError, Grid, PdeParams, StabilityError,
                  mask_from_goal)
from .pod import DegenerateSnapshotsError
from .solver import ControlProblem, SolverConfig, solve

SCHEMA_ITERATIONS = "iterations-v1"
SCHEMA_SNAPSHOTS = "snapshots-v1"

# A repeatability sweep is repeatable when the coefficient of variation
# of its final costs is at most this.
CV_THRESHOLD = 0.05


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


class NumericalFailure(RuntimeError):
    """A run mode could not produce its result for numerical reasons
    (divergence, degenerate snapshots, a failed solve)."""


_MODELS = {"burgers": BurgersModel, "allen_cahn": AllenCahnModel,
           "cahn_hilliard": CahnHilliardModel}

# the (goal, initial) shapes _goal_field and _initial_state build
_PHASE_FIELD_SHAPES = (("constant", "split", "disk"), ("cosine", "zero"))
_SHAPES = {"burgers": (("constant",), ("sine", "zero")),
           "allen_cahn": _PHASE_FIELD_SHAPES,
           "cahn_hilliard": _PHASE_FIELD_SHAPES}


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
    goal_shape: str = "constant"   # constant | split | disk (see _SHAPES)
    goal_value: float = -0.5
    init_shape: str = "sine"       # sine | cosine | zero (see _SHAPES)
    init_amplitude: float = 1.0


@dataclass(frozen=True)
class RunSpec:
    """Run-level knobs that are not part of the mathematical problem."""

    out_dir: str | None = None
    repeats: int = 1
    guess_std: float = 0.0
    full_time_budget_s: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    solver: SolverConfig = field(default_factory=SolverConfig)
    run: RunSpec = field(default_factory=RunSpec)

    def to_dict(self):
        return {
            "problem": asdict(self.problem),
            "solver": asdict(self.solver),
            "run": asdict(self.run),
        }


_SECTION_TYPES = {
    "problem": ProblemSpec,
    "solver": SolverConfig,
    "run": RunSpec,
}

_REQUIRED_PROBLEM_FIELDS = [
    f.name for f in fields(ProblemSpec)
    if f.default is MISSING and f.default_factory is MISSING]


def config_from_dict(raw, base=None):
    """Build a validated config from nested dicts, optionally overlaid on
    ``base`` (a preset, a config file, CLI flags: each layer comes through
    here).  Error messages carry the offending key path."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        overlay = raw.get(name, {})
        if not isinstance(overlay, dict):
            raise ConfigError(f"{name}: must be a mapping")
        bad = set(overlay) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"{name}.{sorted(bad)[0]}: unknown field")
        for key, value in overlay.items():
            _check_type(f"{name}.{key}", value,
                        cls.__dataclass_fields__[key].type)
        if base is None and name == "problem":
            missing = [f for f in _REQUIRED_PROBLEM_FIELDS
                       if f not in overlay]
            if missing:
                raise ConfigError(
                    f"problem.{missing[0]}: required field missing")
        try:
            sections[name] = cls(**overlay) if base is None \
                else replace(getattr(base, name), **overlay)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}")
    cfg = ExperimentConfig(**sections)
    _validate(cfg)
    return cfg


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               type(None): "null"}


def _fits(value, kind):
    if kind is type(None):
        return value is None
    if kind in (int, float):
        # bool is an int subclass; YAML's yes/no must not pass as 1/0
        return not isinstance(value, bool) and isinstance(
            value, numbers.Integral if kind is int else numbers.Real)
    return isinstance(value, kind)


def _check_type(path, value, annotation):
    """Reject a value of the wrong type for its field (ints for int
    fields, any real number for float fields, None only where the field
    is optional) before any comparison sees it, and a NaN or infinite
    number: no field means anything by one, and NaN passes no range
    check (``nan > 0`` and ``nan < 0`` are both false)."""
    kinds = typing.get_args(annotation) or (annotation,)
    if not any(_fits(value, kind) for kind in kinds):
        expected = " or ".join(_TYPE_NAMES[kind] for kind in kinds)
        raise ConfigError(f"{path}: must be {expected}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")


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
    for name, shapes in zip(("goal_shape", "init_shape"), _SHAPES[p.name]):
        if getattr(p, name) not in shapes:
            raise ConfigError(
                f"problem.{name}: {p.name} takes one of {list(shapes)}, "
                f"got '{getattr(p, name)}'")
    for name in ("q_weight", "qt_weight"):
        if getattr(p, name) < 0:
            raise ConfigError(f"problem.{name}: must be >= 0")
    if p.r_weight <= 0:
        raise ConfigError("problem.r_weight: must be > 0")
    if cfg.run.repeats < 1:
        raise ConfigError("run.repeats: must be >= 1")
    if cfg.run.guess_std < 0:   # 0 means "no initial guess"
        raise ConfigError("run.guess_std: must be >= 0")
    if cfg.run.full_time_budget_s is not None \
            and not cfg.run.full_time_budget_s > 0:
        raise ConfigError("run.full_time_budget_s: must be positive")


# ---------------------------------------------------------------------------
# Presets: the canonical experiment sizes.
# ---------------------------------------------------------------------------


_BURGERS = {"name": "burgers", "nu": 0.08,
            "q_weight": 0.02, "r_weight": 0.05, "qt_weight": 2.0,
            "goal_shape": "constant", "goal_value": -0.5,
            "init_shape": "sine", "init_amplitude": 1.0}

_ALLEN_CAHN = {"name": "allen_cahn", "horizon": 10, "dt": 0.01,
               "substeps": 10,
               "q_weight": 0.05, "r_weight": 0.02, "qt_weight": 2.0,
               "goal_shape": "disk", "goal_value": 1.0,
               "init_shape": "cosine", "init_amplitude": 0.1}

PRESETS = {
    "burgers": {**_BURGERS, "points": 100, "horizon": 20,
                "dt": 1e-3, "substeps": 250},
    # desk-scale variant for the bound-verification instances
    "burgers_small": {**_BURGERS, "points": 32, "horizon": 10,
                      "dt": 5e-3, "substeps": 50},
    "allen_cahn": {**_ALLEN_CAHN, "points": 50},
    "allen_cahn_small": {**_ALLEN_CAHN, "points": 20},
    "cahn_hilliard": {"name": "cahn_hilliard", "points": 20, "horizon": 10,
                      "dt": 5e-5, "substeps": 40,
                      "q_weight": 0.05, "r_weight": 0.3, "qt_weight": 1.0,
                      "goal_shape": "split", "goal_value": 0.5,
                      "init_shape": "cosine", "init_amplitude": 0.1},
}


@functools.cache   # a frozen config: built and validated once per name
def preset(name):
    try:
        problem = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset '{name}' (have: {', '.join(sorted(PRESETS))})")
    # A seeded Gaussian initial guess ships with every preset: snapshots
    # of a zero-control nominal can span a subspace nearly orthogonal to
    # the control-reachable directions (the opening basis then hides the
    # descent direction from the reduced solver), while any mildly
    # excited nominal exposes them.
    return config_from_dict({"problem": problem, "run": {"guess_std": 0.3}})


# ---------------------------------------------------------------------------
# Problem construction.
# ---------------------------------------------------------------------------


def _goal_field(spec, grid):
    if spec.goal_shape == "constant":
        return np.full(grid.n_x, spec.goal_value)
    p = grid.points
    amp = abs(spec.goal_value)
    ii, jj = np.meshgrid(np.arange(p), np.arange(p), indexing="xy")
    if spec.goal_shape == "split":
        goal = np.where(ii < p // 2, amp, -amp)
    else:   # disk
        cx = cy = (p - 1) / 2.0
        r = np.hypot(ii - cx, jj - cy)
        goal = np.where(r <= 0.30 * p, amp, -amp)
    return goal.ravel()


def _initial_state(spec, grid):
    if spec.init_shape == "zero":
        return np.zeros(grid.n_x)
    if spec.init_shape == "sine":   # burgers
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
        cost = CostModel(q=spec.q_weight, r=spec.r_weight * np.eye(model.n_u),
                         q_terminal=spec.qt_weight, goal=goal)
    except (StabilityError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}")
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


# Both CSV files hold the bytes csv.writer makes of repr(float) and int
# strings (no field needs quoting), written directly.


def _write_iterations_csv(path, report):
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_ITERATIONS}\n")
        fh.write("iteration,cost,modes,eps,alpha,trials,sysid_samples\r\n")
        fh.write(f"0,{float(report.initial_cost)!r},,,,,\r\n")
        fh.writelines(
            f"{it.iteration},{float(it.cost)!r},{it.n_modes},"
            f"{float(it.projection_eps)!r},{float(it.alpha)!r},{it.trials},"
            f"{it.sysid_samples}\r\n" for it in report.iterations)


def _write_snapshots_csv(path, trajectory):
    # one row per grid point
    horizon = trajectory.horizon
    times = sorted({0, round(horizon / 3), round(2 * horizon / 3), horizon})
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_SNAPSHOTS}\n")
        fh.write(",".join(f"t{t}" for t in times) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in trajectory.states[times].T.tolist())


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
        "terminal_search": report.terminal_search,
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
        "kernel_path": _kernels.KERNEL_PATH,
        "kernel_isa": _kernels.KERNEL_ISA,
        "numpy_version": np.__version__,
    }


def _dump_json(path, obj):
    """Write ``obj`` to ``path`` as strict JSON: a float that is not
    finite is written as null.  The encoder already tests every float,
    so a finite ``obj`` is encoded once."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:   # a float that is not finite
        text = json.dumps(_nulled(obj), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _nulled(obj):
    # ``obj`` with every float that is not finite replaced by None
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _nulled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(value) for value in obj]
    return obj


def _check_out_dir(out_dir):
    """Raise a config error unless ``out_dir`` can be made a directory:
    the nearest path of it and its ancestors that exists must be a
    directory this process may write into.  Nothing is made."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"run.out_dir: {path} is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"run.out_dir: {path} is not writable")


def write_solve_artifacts(out_dir, cfg, report):
    """Persist ``report`` into the directory ``out_dir``, made (with its
    parents) if missing."""
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


def _with_solver(cfg, **changes):
    return replace(cfg, solver=replace(cfg.solver, **changes))


def _solve_once(cfg, out_dir=None):
    """Draw the seeded guess, build the problem and solve it exactly as
    ``cfg`` says; with ``out_dir``, persist the report with that config.
    A directory that cannot be made is a config error, raised before the
    solve; it is made when the report is persisted.  Returns (problem,
    report)."""
    u_init = gaussian_guess(cfg, cfg.solver.seed, cfg.run.guess_std) \
        if cfg.run.guess_std > 0 else None
    problem = build_problem(cfg, u_init=u_init)
    if out_dir is not None:
        _check_out_dir(out_dir)
    report = solve(problem, cfg.solver)
    if out_dir is not None:
        write_solve_artifacts(out_dir, cfg, report)
    return problem, report


def run_solve(cfg, out_dir=None):
    """Run one solve (or ``run.repeats`` solves in subdirectories, at
    seeds ``solver.seed``, ``solver.seed + 1``, ...).

    Returns the list of reports.
    """
    out_dir = out_dir or cfg.run.out_dir
    if cfg.run.repeats == 1:
        return [_solve_once(cfg, out_dir)[1]]
    reports = []
    for i in range(cfg.run.repeats):
        seed = cfg.solver.seed + i
        sub = os.path.join(out_dir, f"seed_{seed:04d}") if out_dir else None
        reports.append(_solve_once(_with_solver(cfg, seed=seed), sub)[1])
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
    red_dir = os.path.join(out_dir, "reduced") if out_dir else None
    full_dir = os.path.join(out_dir, "full") if out_dir else None
    budget = cfg.run.full_time_budget_s
    _, red = _solve_once(_with_solver(cfg, mode="reduced"), red_dir)
    _, full = _solve_once(_with_solver(
        cfg, mode="full",
        time_budget_s=cfg.solver.time_budget_s if budget is None else budget),
        full_dir)

    both_ok = red.completed and full.completed
    cost_gap = (red.final_cost / full.final_cost - 1.0) \
        if both_ok and full.final_cost > 0 else None
    speedup = (full.wall_time_s / red.wall_time_s) \
        if both_ok and red.wall_time_s > 0 else None
    record = BenchmarkRecord(full=_mode_summary(full),
                             reduced=_mode_summary(red),
                             cost_gap=cost_gap, speedup=speedup,
                             full_report=full, reduced_report=red)

    if out_dir is not None:   # made with its reduced/ subdirectory
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
    """Solve (reduced), then verify the solve with
    :func:`roilqr.bounds.verify_iterates`: the limit-set trace over its
    accepted iterates and every bound inequality around the last one.

    Raises :class:`NumericalFailure` when the solve ends in a numerical
    failure (there is no solved nominal to verify around) or when
    identifying the models around a nominal fails; the solve's own
    artifacts are written either way.
    """
    out_dir = out_dir or cfg.run.out_dir
    n_u = _MODELS[cfg.problem.name].n_u
    if cfg.problem.horizon * n_u > DENSE_ORACLE_LIMIT:
        raise ConfigError(
            "run: bound verification needs a desk-scale instance "
            f"(horizon*n_u <= {DENSE_ORACLE_LIMIT}, "
            f"got {cfg.problem.horizon * n_u})")

    cfg = _with_solver(cfg, mode="reduced")
    problem, report = _solve_once(
        cfg, os.path.join(out_dir, "solve") if out_dir else None)
    if report.status == "numerical_failure":
        raise NumericalFailure(f"solve failed, no nominal to verify "
                               f"around: {report.error}")

    try:
        bounds_report = verify_iterates(
            problem, report, energy_cutoff=cfg.solver.energy_cutoff,
            seed=cfg.solver.seed)
    except (DivergenceError, DegenerateSnapshotsError) as exc:
        raise NumericalFailure(f"bound verification: {exc}") from exc

    if out_dir is not None:   # made with its solve/ subdirectory
        payload = {"config": cfg.to_dict(), "solve_status": report.status,
                   **bounds_report.to_dict()}
        _dump_json(os.path.join(out_dir, "bounds.json"), payload)
    return bounds_report, report


def run_repeatability(cfg, out_dir=None):
    """Seeded initial-guess sweep with per-iteration cost statistics;
    ``run.guess_std`` 0 runs (and is recorded) as 0.1."""
    out_dir = out_dir or cfg.run.out_dir
    if cfg.run.repeats < 2:
        raise ConfigError("run.repeats: repeatability needs >= 2 runs")
    if cfg.run.guess_std == 0:
        cfg = replace(cfg, run=replace(cfg.run, guess_std=0.1))
    reports = run_solve(cfg, out_dir=out_dir)

    ok = [r for r in reports if r.completed]
    partial = len(ok) < len(reports)
    finals = np.array([r.final_cost for r in ok]) if ok else np.array([])

    longest = max((len(r.costs) for r in ok), default=0)
    padded = np.array([
        r.costs + [r.final_cost] * (longest - len(r.costs)) for r in ok
    ]) if ok else np.zeros((0, 0))
    mean_curve = padded.mean(axis=0).tolist() if ok else []
    # dispersion is taken of the deviations from the first run, so equal
    # costs give exactly 0 (their mean may round away from them)
    std_curve = (padded - padded[:1]).std(axis=0).tolist() if ok else []

    mean_final = float(finals.mean()) if finals.size else float("nan")
    dev = finals - finals[:1]
    std_final = float(dev.std()) if finals.size else float("nan")
    cv = std_final / mean_final if finals.size and mean_final > 0 \
        else float("nan")
    spread = float((dev.max() - dev.min()) / mean_final) \
        if finals.size and mean_final > 0 else float("nan")
    aggregate = {
        "runs": len(reports),
        "completed": len(ok),
        "partial": partial,
        "final_costs": finals.tolist(),
        "final_cost_mean": mean_final,
        "final_cost_std": std_final,
        "final_cost_cv": cv,
        "final_cost_rel_spread": spread,
        "cv_threshold": CV_THRESHOLD,
        "repeatable": bool(not partial and cv <= CV_THRESHOLD),
        "cost_mean_curve": mean_curve,
        "cost_std_curve": std_curve,
    }
    if out_dir is not None:   # made with its seed_* subdirectories
        _dump_json(os.path.join(out_dir, "aggregate.json"),
                   {"config": cfg.to_dict(), **aggregate})
    return aggregate, reports
