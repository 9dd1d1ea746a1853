"""CLI exit codes and artifact emission."""

import json

import pytest
import yaml

from roilqr.cli import main


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


@pytest.mark.parametrize("solver", [{"mu_init": 0.0}, {"alpha_min": 0.0}])
def test_out_of_range_solver_setting_is_exit_2(tmp_path, capsys, solver):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"solver": solver}))
    out = tmp_path / "out"
    assert main(["solve", "--preset", "burgers_small", "--config", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solver:")
    assert not out.exists()


def test_unknown_preset_is_exit_2():
    assert main(["solve", "--preset", "does_not_exist"]) == 2


def test_mode_override(tmp_path):
    code = main(["solve", "--preset", "burgers_small", "--mode", "full",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["mode"] == "full"


def test_benchmark_command(tmp_path, capsys):
    code = main(["benchmark", "--preset", "burgers_small",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "cost gap" in capsys.readouterr().out
    assert (tmp_path / "benchmark.json").exists()


def test_repeat_command(tmp_path, capsys):
    code = main(["repeat", "--preset", "burgers_small", "--repeats", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "repeatable=True" in capsys.readouterr().out


def test_repeat_single_run_is_config_error():
    assert main(["repeat", "--preset", "burgers_small", "--repeats", "1"]) == 2


def test_status_exit_codes():
    from roilqr.cli import _status_exit

    assert _status_exit("converged") == 0
    assert _status_exit("max_iterations") == 0
    assert _status_exit("no_descent") == 4
    assert _status_exit("numerical_failure") == 3
    assert _status_exit("timeout") == 3


def test_verify_bounds_command(tmp_path, capsys):
    code = main(["verify-bounds", "--preset", "burgers_small",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "minimizer distance" in out and "VIOLATED" not in out
