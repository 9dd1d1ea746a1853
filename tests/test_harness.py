"""Config validation, artifact persistence, reproducibility, run modes."""

import csv
import json
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from roilqr.harness import (PRESETS, ConfigError, ExperimentConfig,
                            ProblemSpec, RunSpec, build_problem,
                            config_from_dict, gaussian_guess, preset,
                            run_benchmark, run_repeatability, run_solve,
                            run_verify_bounds)


def _tiny_burgers(**overrides):
    base = dict(name="burgers", points=24, horizon=6, dt=5e-3, substeps=30,
                nu=0.08, q_weight=0.02, r_weight=0.05, qt_weight=2.0,
                goal_shape="constant", goal_value=-0.5, init_shape="sine")
    base.update(overrides)
    return ExperimentConfig(problem=ProblemSpec(**base),
                            run=RunSpec(guess_std=0.3))


def test_presets_build():
    for name in ("burgers", "burgers_small", "allen_cahn",
                 "allen_cahn_small", "cahn_hilliard"):
        cfg = preset(name)
        problem = build_problem(cfg)
        assert problem.x0.shape == (problem.model.n_x,)
    with pytest.raises(ConfigError):
        preset("heat")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_round_trips_through_its_dict(name):
    assert config_from_dict(preset(name).to_dict()) == preset(name)


def test_config_from_dict_requires_problem_fields():
    with pytest.raises(ConfigError, match="problem.name"):
        config_from_dict({"problem": {"points": 10}})
    # exactly the fields without a default are required
    spec = preset("burgers_small").problem
    given = {key: getattr(spec, key)
             for key in ("name", "points", "horizon", "dt")}
    config_from_dict({"problem": given})
    for key in given:
        partial = {k: v for k, v in given.items() if k != key}
        with pytest.raises(ConfigError) as err:
            config_from_dict({"problem": partial})
        assert str(err.value) == f"problem.{key}: required field missing"


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"problem": {"name": "burgers", "points": 10,
                                      "horizon": 2, "dt": 1e-3,
                                      "viscosity": 1.0}})
    with pytest.raises(ConfigError, match="section"):
        config_from_dict({"problems": {}})


def test_config_from_dict_validates_values():
    good = {"problem": {"name": "burgers", "points": 24, "horizon": 4,
                        "dt": 1e-3}}
    cfg = config_from_dict(good)
    assert cfg.problem.points == 24
    with pytest.raises(ConfigError, match="problem.name"):
        config_from_dict({"problem": {"name": "wave", "points": 24,
                                      "horizon": 4, "dt": 1e-3}})
    with pytest.raises(ConfigError, match="solver"):
        config_from_dict({**good, "solver": {"gamma": 2.0}})


def test_config_overlay_on_preset():
    cfg = config_from_dict({"problem": {"points": 40},
                            "solver": {"seed": 9}},
                           base=preset("burgers_small"))
    assert cfg.problem.points == 40
    assert cfg.solver.seed == 9
    assert cfg.problem.nu == preset("burgers_small").problem.nu


def test_stability_violation_is_config_error():
    with pytest.raises(ConfigError, match="problem"):
        build_problem(_tiny_burgers(dt=0.5))


def test_run_solve_artifacts(tmp_path):
    cfg = _tiny_burgers()
    out = tmp_path / "run"
    reports = run_solve(cfg, out_dir=str(out))
    assert len(reports) == 1
    for name in ("report.json", "iterations.csv", "snapshots.csv",
                 "metadata.json"):
        assert (out / name).exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["problem"]["points"] == 24
    costs = payload["costs"]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert "timestamp" in json.loads((out / "metadata.json").read_text())
    header = (out / "iterations.csv").read_text().splitlines()
    assert header[0].startswith("# schema:")
    assert header[1].split(",")[0] == "iteration"


def test_snapshot_csv_shape(tmp_path):
    cfg = _tiny_burgers()
    run_solve(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "snapshots.csv").read_text().splitlines()
    # header comment + column row + one row per grid point
    assert len(lines) == 2 + 24
    times = lines[1].split(",")
    assert times[0] == "t0" and times[-1] == "t6"


def _snapshots_csv_reference(path, trajectory):
    # csv.writer over one repr(float) string per value
    horizon = trajectory.horizon
    times = sorted({0, round(horizon / 3), round(2 * horizon / 3), horizon})
    with open(path, "w", newline="") as fh:
        fh.write("# schema: snapshots-v1\n")
        writer = csv.writer(fh)
        writer.writerow([f"t{t}" for t in times])
        for row in trajectory.states[times, :].T:
            writer.writerow([repr(float(v)) for v in row])


@pytest.mark.parametrize("horizon", [1, 2, 7, 20])
def test_snapshot_csv_matches_csv_writer(tmp_path, horizon):
    from roilqr.harness import _write_snapshots_csv
    from roilqr.pde import Trajectory

    rng = np.random.default_rng(horizon)
    states = rng.standard_normal((horizon + 1, 30)) \
        * 10.0 ** rng.integers(-300, 300, (horizon + 1, 30))
    states[0, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    traj = Trajectory(states=states, controls=np.zeros((horizon, 2)))
    _write_snapshots_csv(tmp_path / "fast.csv", traj)
    _snapshots_csv_reference(tmp_path / "ref.csv", traj)
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def _iterations_csv_reference(path, report):
    # csv.writer over repr(float) strings, ints and the blank cells of row 0
    with open(path, "w", newline="") as fh:
        fh.write("# schema: iterations-v1\n")
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost", "modes", "eps", "alpha",
                         "trials", "sysid_samples"])
        writer.writerow([0, repr(float(report.initial_cost)),
                         "", "", "", "", ""])
        for it in report.iterations:
            writer.writerow([
                it.iteration, repr(float(it.cost)), it.n_modes,
                repr(float(it.projection_eps)), repr(float(it.alpha)),
                it.trials, it.sysid_samples,
            ])


def test_iterations_csv_matches_csv_writer(tmp_path):
    from roilqr.harness import _write_iterations_csv
    from roilqr.solver import IterationRecord

    report, = run_solve(_tiny_burgers())
    assert report.iterations
    extremes = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.5e300,
                np.float64(1 / 3)]
    for i, value in enumerate(extremes):
        report.iterations.append(IterationRecord(
            iteration=np.int64(100 + i), cost=value, n_modes=np.int64(i),
            projection_eps=value, alpha=np.float32(0.5) ** i, trials=i,
            sysid_samples=10 ** i))
    for initial in (report.initial_cost, np.nan, -0.0):
        report.initial_cost = initial
        _write_iterations_csv(tmp_path / "fast.csv", report)
        _iterations_csv_reference(tmp_path / "ref.csv", report)
        assert (tmp_path / "fast.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


def test_artifacts_reproducible_byte_for_byte(tmp_path):
    cfg = _tiny_burgers()
    run_solve(cfg, out_dir=str(tmp_path / "a"))
    run_solve(cfg, out_dir=str(tmp_path / "b"))
    for name in ("report.json", "iterations.csv", "snapshots.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_run_directory_is_made_when_the_report_is_persisted(tmp_path,
                                                            monkeypatch):
    from roilqr import harness

    out = tmp_path / "a" / "run"
    solve = harness.solve

    def solve_before_the_directory(*args):
        assert not (tmp_path / "a").exists()
        return solve(*args)

    monkeypatch.setattr(harness, "solve", solve_before_the_directory)
    run_solve(_tiny_burgers(), out_dir=str(out))
    assert (out / "report.json").exists()


def test_metadata_records_kernel_path(tmp_path):
    from roilqr import _kernels

    run_solve(_tiny_burgers(), out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["kernel_path"] == _kernels.KERNEL_PATH
    assert meta["kernel_path"] in ("c", "numpy")
    assert meta["kernel_isa"] == _kernels.KERNEL_ISA
    assert meta["numpy_version"] == np.__version__


def test_phase_times_include_the_terminal_iteration(tmp_path):
    # this solve ends in a no-descent line-search sweep, a large share of
    # its wall time that no accepted iteration records
    cfg = config_from_dict({"solver": {"seed": 5}}, base=preset("allen_cahn"))
    report, = run_solve(cfg, out_dir=str(tmp_path))
    assert report.status == "no_descent"
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert sum(meta["phase_times"].values()) >= 0.9 * meta["wall_time_s"]


def test_run_solve_repeats_subdirectories(tmp_path):
    cfg = replace(_tiny_burgers(), run=RunSpec(guess_std=0.3, repeats=3))
    reports = run_solve(cfg, out_dir=str(tmp_path))
    assert len(reports) == 3
    subdirs = sorted(p for p in os.listdir(tmp_path) if p.startswith("seed_"))
    assert len(subdirs) == 3


def test_benchmark_full_timeout_still_emits_reduced(tmp_path):
    cfg = replace(_tiny_burgers(),
                  run=RunSpec(guess_std=0.3, full_time_budget_s=1e-9))
    record = run_benchmark(cfg, out_dir=str(tmp_path))
    assert record.full["status"] == "timeout"
    assert record.cost_gap is None and record.speedup is None
    assert record.reduced["final_cost"] > 0
    assert (tmp_path / "reduced" / "report.json").exists()


def test_benchmark_reduced_timeout_reports_no_gap(tmp_path):
    # a reduced run stopped by its budget has no final cost to compare
    cfg = _tiny_burgers()
    cfg = replace(cfg, solver=replace(cfg.solver, time_budget_s=1e-9),
                  run=replace(cfg.run, full_time_budget_s=1000.0))
    record = run_benchmark(cfg, out_dir=str(tmp_path))
    assert record.reduced["status"] == "timeout"
    assert record.full_report.completed
    assert record.cost_gap is None and record.speedup is None
    assert json.loads((tmp_path / "benchmark.json").read_text())[
        "cost_gap"] is None
    assert json.loads((tmp_path / "benchmark_timing.json").read_text())[
        "speedup"] is None


def test_report_config_reproduces_its_run(tmp_path):
    cfg = _tiny_burgers()
    run_benchmark(cfg, out_dir=str(tmp_path / "bench"))
    run_solve(replace(cfg, run=replace(cfg.run, repeats=2)),
              out_dir=str(tmp_path / "repeats"))
    paths = [tmp_path / "bench" / "full" / "report.json",
             *sorted((tmp_path / "repeats").glob("seed_*/report.json"))]
    assert len(paths) == 3
    for path in paths:
        saved = json.loads(path.read_text())
        rerun = run_solve(config_from_dict(saved["config"]))[0]
        assert (rerun.mode, rerun.seed, rerun.final_cost) == \
            (saved["mode"], saved["seed"], saved["final_cost"]), path


def test_run_benchmark_record(tmp_path):
    cfg = _tiny_burgers()
    record = run_benchmark(cfg, out_dir=str(tmp_path))
    assert record.cost_gap is not None
    assert record.reduced["final_cost"] > 0
    assert (tmp_path / "benchmark.json").exists()
    assert (tmp_path / "benchmark_timing.json").exists()
    det = json.loads((tmp_path / "benchmark.json").read_text())
    assert "wall_time_s" not in det["full"]
    timing = json.loads((tmp_path / "benchmark_timing.json").read_text())
    assert "wall_time_s" in timing["full"]


def test_benchmark_modes_agree_with_complete_basis():
    # snapshot count equals the state dimension: the basis spans the full
    # space and the reduced solve tracks the full one down to the level
    # where the rank guard sheds sub-1e-12-energy directions
    cfg = ExperimentConfig(
        problem=ProblemSpec(name="burgers", points=8, horizon=7, dt=5e-3,
                            substeps=20, nu=0.08, q_weight=0.02,
                            r_weight=0.05, qt_weight=2.0,
                            goal_shape="constant", goal_value=-0.5,
                            init_shape="sine"),
        run=RunSpec(guess_std=1.0),
    )
    cfg = replace(cfg,
                  solver=replace(cfg.solver, energy_cutoff=1.0, seed=3,
                                 gamma=1e-8, max_iterations=100))
    record = run_benchmark(cfg)
    assert abs(record.cost_gap) <= 1e-5


def test_run_repeatability(tmp_path):
    cfg = replace(preset("burgers_small"),
                  run=RunSpec(guess_std=0.3, repeats=4))
    aggregate, reports = run_repeatability(cfg, out_dir=str(tmp_path))
    assert aggregate["runs"] == 4 and not aggregate["partial"]
    assert aggregate["final_cost_rel_spread"] < 0.05
    assert aggregate["repeatable"]
    assert len(aggregate["cost_mean_curve"]) == max(
        len(r.costs) for r in reports)
    assert (tmp_path / "aggregate.json").exists()
    assert (tmp_path / "seed_0000" / "report.json").exists()


def test_repeat_records_the_guess_it_ran(tmp_path):
    # guess_std 0 runs with the sweep's default guess of 0.1
    cfg = replace(_tiny_burgers(), run=RunSpec(guess_std=0.0, repeats=2))
    run_repeatability(cfg, out_dir=str(tmp_path))
    aggregate = json.loads((tmp_path / "aggregate.json").read_text())
    assert aggregate["config"]["run"]["guess_std"] == 0.1
    runs = sorted(tmp_path.glob("seed_*/report.json"))
    assert len(runs) == 2
    for path in runs:
        saved = json.loads(path.read_text())
        assert saved["config"]["run"] == aggregate["config"]["run"]


def test_repeatability_requires_two_runs():
    with pytest.raises(ConfigError, match="repeats"):
        run_repeatability(_tiny_burgers())


def test_repeatability_identical_seeds_zero_variance(monkeypatch):
    # three runs of one seed: equal final costs have exactly zero spread,
    # whether or not their mean rounds away from them
    from roilqr import harness

    [report] = run_solve(_tiny_burgers())
    monkeypatch.setattr(harness, "run_solve",
                        lambda cfg, out_dir=None: [report] * 3)
    cfg = replace(_tiny_burgers(), run=RunSpec(guess_std=0.3, repeats=3))
    aggregate, _ = run_repeatability(cfg)
    assert aggregate["final_cost_std"] == 0.0


def test_run_verify_bounds(tmp_path):
    cfg = preset("burgers_small")
    bounds_report, solve_report = run_verify_bounds(cfg, out_dir=str(tmp_path))
    assert bounds_report.objective_gap_ok
    assert bounds_report.distance_ok
    assert (tmp_path / "bounds.json").exists()
    payload = json.loads((tmp_path / "bounds.json").read_text())
    assert payload["cbar1"] == pytest.approx(
        7 * (cfg.problem.horizon + 1) * payload["cbar"])
    assert "limit_set_trace" in payload and payload["objective_gap_looseness"] >= 1.0


def test_verify_bounds_holds_one_full_order_model_at_a_time(monkeypatch):
    # one walk: each accepted iterate's pair is identified once, the last
    # one's included, and each full-order model is gone before the next
    # full-order identification starts
    from roilqr import bounds

    identify = bounds.generate_rollout_data
    full_order, alive, calls = [], [], []

    def watching(model, nominal, basis=None, **kwargs):
        if basis is None:
            alive.append(sum(ref() is not None for ref in full_order))
        data = identify(model, nominal, basis, **kwargs)
        calls.append(basis)
        if basis is None:
            full_order.append(weakref.ref(data.outputs))
        return data

    monkeypatch.setattr(bounds, "generate_rollout_data", watching)
    _, report = run_verify_bounds(preset("burgers_small"))
    iterates = len(report.iterate_controls)
    assert len(calls) == 2 * iterates
    assert alive == [0] * iterates


def test_verify_bounds_records_the_reduced_config_it_ran(tmp_path):
    # the bounds are verified around a reduced solve whatever the mode
    cfg = preset("burgers_small")
    cfg = replace(cfg, solver=replace(cfg.solver, mode="full"))
    run_verify_bounds(cfg, out_dir=str(tmp_path))
    saved = json.loads((tmp_path / "solve" / "report.json").read_text())
    bounds = json.loads((tmp_path / "bounds.json").read_text())
    assert saved["mode"] == saved["config"]["solver"]["mode"] == "reduced"
    assert bounds["config"] == saved["config"]
    rerun = run_solve(config_from_dict(saved["config"]))[0]
    assert (rerun.mode, rerun.final_cost) == ("reduced", saved["final_cost"])


def test_verify_bounds_scale_precondition():
    cfg = preset("burgers")
    cfg = replace(cfg, problem=replace(cfg.problem, horizon=150))
    with pytest.raises(ConfigError, match="desk-scale"):
        run_verify_bounds(cfg)


def test_gaussian_guess_deterministic():
    cfg = _tiny_burgers()
    a = gaussian_guess(cfg, 7, 0.3)
    b = gaussian_guess(cfg, 7, 0.3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 2)
