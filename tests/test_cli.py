"""CLI exit codes and artifact emission."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from roilqr import cli, harness
from roilqr.cli import build_parser, load_config, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_solve_preset(tmp_path, capsys):
    code = main(["solve", "--preset", "burgers_small",
                 "--out", str(tmp_path), "--seed", "1"])
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert "status=converged" in capsys.readouterr().out


def test_config_file_overlay(tmp_path):
    config = {"problem": {"points": 24, "horizon": 5},
              "solver": {"seed": 4}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    code = main(["solve", "--preset", "burgers_small",
                 "--config", str(path), "--out", str(tmp_path / "out")])
    # small overlaid problem may end inside the limit set (no-descent)
    assert code in (0, 4)
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["config"]["problem"]["points"] == 24
    assert payload["seed"] == 4


def test_missing_config_is_exit_2(capsys, tmp_path):
    assert main(["solve"]) == 2
    assert "config error" in capsys.readouterr().err
    # invalid field in a config file: no partial output files
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"problem": {"name": "maxwell"}}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("solver", [{"sigma1": 1.5}, {"gamma": 0.0},
                                    {"max_iterations": 0},
                                    {"time_budget_s": -1.0}])
def test_out_of_range_solver_setting_is_exit_2(tmp_path, capsys, solver):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"solver": solver}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solver:")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--repeats", "0"]])
def test_out_of_range_flag_is_exit_2(tmp_path, capsys, flags):
    # flags are validated like the config file they override
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--out", str(out),
                 *flags]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_repeats_flag_only_on_solve_and_repeat(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--preset", "burgers_small", "--repeats", "3"])
    assert exc.value.code == 2
    assert "--repeats" in capsys.readouterr().err


def test_sample_count_is_not_a_setting(tmp_path, capsys):
    # every timestep uses d + n_u samples, at scales that follow from the
    # nominal; a config naming the removed section is rejected before
    # anything runs
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"perturb": {"n_rollouts": 3}}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: unknown config section(s): ['perturb']\n"
    assert not out.exists()


def test_perturbation_seed_is_not_a_setting(tmp_path, capsys):
    # identification draws nothing; a config naming the removed section
    # is rejected before anything runs
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"perturb": {"seed": 7}}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: unknown config section(s): ['perturb']\n"
    assert not out.exists()


@pytest.mark.parametrize("command,field,value", [
    ("repeat", "seed_stride", 0),          # a sweep steps the seed by 1
    ("verify-bounds", "bounds_samples", 50),   # verify_iterates' 200
])
def test_derived_run_setting_is_not_a_setting(tmp_path, capsys, command,
                                              field, value):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"run": {field: value}}))
    out = tmp_path / "out"
    assert main([command, "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: run.{field}: unknown field\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "benchmark"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_that_cannot_be_a_directory_is_exit_2(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  under):
    # rejected before the solve runs, the file left as it was
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(harness, "solve", no_solve)
    blocker = tmp_path / "f"
    blocker.write_text("kept\n")
    out = blocker / "run" if under else blocker
    assert main([command, "--preset", "burgers_small", "--out",
                 str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: run.out_dir:")
    assert blocker.read_text() == "kept\n"


def test_example_overlay_restates_the_burgers_preset():
    # the README's example: every field it names must still exist
    args = build_parser().parse_args(
        ["solve", "--preset", "burgers",
         "--config", str(CONFIGS / "burgers_overlay.yaml")])
    assert load_config(args) == harness.preset("burgers")


@pytest.mark.parametrize("section,field,value,expected", [
    ("problem", "dt", "abc", "a number"),
    ("problem", "points", "many", "an integer"),
    ("problem", "points", 20.5, "an integer"),
    ("problem", "horizon", None, "an integer"),
    ("problem", "gamma", "abc", "a number or null"),
    ("problem", "q_weight", "abc", "a number"),
    ("problem", "r_weight", [1.0], "a number"),
    ("problem", "qt_weight", "1e-3", "a number"),
    ("run", "repeats", "two", "an integer"),
    ("run", "guess_std", "abc", "a number"),
    ("run", "full_time_budget_s", "abc", "a number or null"),
])
def test_wrongly_typed_value_is_exit_2(tmp_path, capsys, section, field,
                                       value, expected):
    # "1e-3" is also what YAML 1.1 makes of an unquoted 1e-3 (its floats
    # need a dot: 1.0e-3)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({section: {field: value}}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {section}.{field}: must be {expected}, " \
        f"got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("section,field,value", [
    ("problem", "goal_value", float("nan")),
    ("problem", "init_amplitude", float("inf")),
    ("run", "guess_std", float("nan")),
])
def test_non_finite_value_is_exit_2(tmp_path, capsys, section, field, value):
    # past the type check each would run: a NaN goal or an infinite
    # amplitude ends in a numerical failure (exit 3), and
    # a NaN guess std runs without a guess (nan > 0 is false)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({section: {field: value}}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {section}.{field}: must be finite, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("run", [{"repeats": 0},
                                 {"full_time_budget_s": 0.0},
                                 {"guess_std": -0.3}])
def test_out_of_range_run_setting_is_exit_2(tmp_path, capsys, run):
    # a negative guess std would run unguessed but be reported as given
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"run": run}))
    out = tmp_path / "out"
    assert main(["verify-bounds", "--preset", "burgers_small", "--config",
                 str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: run.{next(iter(run))}:")
    assert not out.exists()


@pytest.mark.parametrize("problem", [
    {"r_weight": 0.0}, {"r_weight": -1.0}, {"r_weight": float("inf")},
    {"q_weight": -1.0}, {"q_weight": float("nan")},
    {"qt_weight": -0.5}, {"qt_weight": float("inf")},
])
def test_out_of_range_cost_weight_is_exit_2(tmp_path, capsys, problem):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"problem": problem}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: problem.{next(iter(problem))}:")
    assert not out.exists()


@pytest.mark.parametrize("name,problem", [
    ("burgers_small", {"goal_shape": "disk", "init_shape": "cosine"}),
    ("burgers_small", {"goal_shape": "split"}),
    ("burgers_small", {"init_shape": "cosine"}),
    ("allen_cahn_small", {"init_shape": "sine"}),
    ("cahn_hilliard", {"init_shape": "sine"}),
])
def test_shape_the_problem_does_not_build_is_exit_2(tmp_path, capsys, name,
                                                    problem):
    # Burgers builds only a constant goal and a sine start, the phase
    # fields only a cosine start: any other shape would run as one of
    # those and be recorded as asked
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"problem": problem}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", name, "--config", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: problem.{next(iter(problem))}:")
    assert not out.exists()


def test_unknown_preset_is_exit_2():
    assert main(["solve", "--preset", "does_not_exist"]) == 2


def test_mode_override(tmp_path):
    code = main(["solve", "--preset", "burgers_small", "--mode", "full",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["mode"] == "full"


def test_infinite_initial_cost_is_exit_3(tmp_path, capsys):
    # a goal of 1e300 overflows the initial cost: a numerical failure
    # before any iteration, not a no-descent end on a usable trajectory,
    # and no overflow warning escapes (tier-1 makes one an error)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"problem": {"goal_value": 1e300}}))
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    assert "status=numerical_failure" in capsys.readouterr().out
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["status"] == "numerical_failure"
    assert payload["error"] == "initial cost inf is not finite"
    assert payload["costs"] == [float("inf")]
    assert payload["terminal_search"] is None


def test_benchmark_command(tmp_path, capsys):
    code = main(["benchmark", "--preset", "burgers_small",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "cost gap" in capsys.readouterr().out
    assert (tmp_path / "benchmark.json").exists()


@pytest.mark.parametrize("config,code", [
    # the reduced run stops on its budget: there is no result to compare
    ({"solver": {"time_budget_s": 1e-9}, "run": {"full_time_budget_s": 1e3}},
     3),
    # the full baseline may time out on its own budget
    ({"run": {"full_time_budget_s": 1e-9}}, 0),
], ids=["reduced_timeout", "full_timeout"])
def test_benchmark_timeout_exit_codes(tmp_path, capsys, config, code):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["benchmark", "--preset", "burgers_small", "--config",
                 str(path), "--out", str(tmp_path / "out")]) == code
    out = capsys.readouterr().out
    assert "status=timeout" in out
    assert "cost gap=n/a speedup=n/a" in out


def test_repeat_command(tmp_path, capsys):
    code = main(["repeat", "--preset", "burgers_small", "--repeats", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "repeatable=True" in capsys.readouterr().out


def test_repeat_single_run_is_config_error():
    assert main(["repeat", "--preset", "burgers_small", "--repeats", "1"]) == 2


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf")])
def test_out_of_range_cv_threshold_is_exit_2(tmp_path, capsys, threshold):
    # the threshold is the constant harness.CV_THRESHOLD: a config naming
    # it, in range or not, is rejected before the sweep runs
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"run": {"cv_threshold": threshold}}))
    out = tmp_path / "out"
    assert main(["repeat", "--preset", "burgers_small", "--repeats", "2",
                 "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: run.cv_threshold: unknown field\n"
    assert not out.exists()


def test_status_exit_codes():
    from roilqr.cli import _status_exit

    assert _status_exit("converged") == 0
    assert _status_exit("max_iterations") == 0
    assert _status_exit("no_descent") == 4
    assert _status_exit("numerical_failure") == 3
    assert _status_exit("timeout") == 3


@pytest.mark.parametrize("statuses, code", [
    (["numerical_failure", "no_descent"], 3),
    (["no_descent", "numerical_failure"], 3),
    (["no_descent", "timeout", "converged"], 3),
    (["converged", "no_descent", "max_iterations"], 4),
    (["converged", "max_iterations"], 0),
])
def test_solve_sweep_exits_with_its_most_severe_status(monkeypatch, statuses,
                                                       code):
    reports = [SimpleNamespace(seed=seed, status=status, iterations=[],
                               final_cost=1.0)
               for seed, status in enumerate(statuses)]
    monkeypatch.setattr(cli, "run_solve", lambda cfg: reports)
    assert main(["solve", "--preset", "burgers_small",
                 "--repeats", str(len(statuses))]) == code


def test_verify_bounds_command(tmp_path, capsys):
    code = main(["verify-bounds", "--preset", "burgers_small",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "minimizer distance" in out and "VIOLATED" not in out


def test_verify_bounds_prints_the_bounds_it_checked(tmp_path, capsys):
    assert main(["verify-bounds", "--preset", "burgers_small", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    saved = json.loads((tmp_path / "bounds.json").read_text())
    assert (f"objective gap {saved['max_objective_gap']:.3g} "
            f"(bound {saved['gap_bound']:.3g}) -> ok") in out
    assert (f"minima gap {saved['minima_gap']:.3g} "
            f"(bound {saved['minima_gap_bound']:.3g}) -> ok") in out
    assert (f"minimizer distance {saved['minimizer_distance']:.3g} "
            f"(delta {saved['delta']:.3g}, "
            f"sigma_min {saved['sigma_min']:.3g}) -> ok") in out
    # delta is printed only beside the sigma_min it was computed with
    assert out.count("delta") == 1 and out.count("sigma_min") == 1
    assert saved["max_objective_gap"] <= saved["gap_bound"]
    assert saved["minima_gap"] <= saved["minima_gap_bound"]
    assert saved["minimizer_distance"] <= saved["delta"]


@pytest.mark.parametrize("problem", [
    {"q_weight": 1e300, "qt_weight": 1e300},
    {"q_weight": 1e200, "r_weight": 1e-200},
])
def test_verify_bounds_fails_an_infinite_bound(tmp_path, capsys, problem):
    # cost gradients whose norms pass the float range make cbar, and with
    # it every bound and delta, infinite: an infinite bound bounds nothing
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"problem": problem}))
    out = tmp_path / "out"
    assert main(["verify-bounds", "--preset", "burgers_small", "--config",
                 str(path), "--out", str(out)]) == 3
    printed = capsys.readouterr().out
    assert printed.count("-> bound not finite") == 3
    assert "VIOLATED" not in printed and "-> ok" not in printed
    saved = json.loads((out / "bounds.json").read_text())
    assert saved["gap_bound"] == saved["minima_gap_bound"] == float("inf")
    assert not (saved["objective_gap_ok"] or saved["minima_gap_ok"]
                or saved["distance_ok"])
    assert saved["limit_set_trace"]
    assert not any(e["member"] for e in saved["limit_set_trace"])


@pytest.mark.parametrize("config,solve_status,message", [
    # the initial guess diverges: no nominal at all
    ({"run": {"guess_std": 200.0}}, "numerical_failure", "diverged"),
], ids=["divergent_guess"])
def test_verify_bounds_failure_is_exit_3(tmp_path, capsys, config,
                                         solve_status, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert main(["verify-bounds", "--preset", "burgers_small", "--config",
                 str(path), "--out", str(out)]) == 3
    printed = capsys.readouterr().out
    assert printed.startswith("[bounds] status=numerical_failure:")
    assert message in printed and printed.count("\n") == 1
    payload = json.loads((out / "solve" / "report.json").read_text())
    assert payload["status"] == solve_status
    assert not (out / "bounds.json").exists()
