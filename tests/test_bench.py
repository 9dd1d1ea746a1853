"""``benchmarks/bench.py kernels`` times the kernel calls it records from
solves; the recording must see every identification call."""

import types
from dataclasses import replace
from pathlib import Path

import pytest

from roilqr import harness, sysid

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench.py"


def _load_bench():
    # executed from its source text, as test_trace_points loads tracing.py:
    # nothing is written next to it, and its main() runs only as a script
    module = types.ModuleType("_bench")
    exec(compile(BENCH.read_text(), str(BENCH), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_recording_sees_every_identification_call(mode):
    cfg = harness.preset("burgers_small")
    cfg = replace(cfg, solver=replace(cfg.solver, mode=mode, seed=0))
    model, report, batches, units = _load_bench().record(cfg)
    # ends after an accepted iteration: every identification is counted
    assert report.status == "converged" and report.iterations
    assert not report.terminal_phase_times
    # each sample of each timestep is one column of one recorded unit
    horizon = cfg.problem.horizon
    assert sum(k * m * calls for (k, m, _), (_, calls) in units.items()) \
        == horizon * report.total_sysid_samples()
    # each recorded (k, m, control samples) is a unit identification cuts
    shapes = {(hi - lo, b - a, max(0, b - max(a, it.n_modes)))
              for it in report.iterations
              for lo, hi, a, b in sysid._units(
                  horizon, it.n_modes + model.n_u, model.n_x,
                  cut=mode == "full")}
    assert set(units) <= shapes
    assert batches
    # the timed calls reach the model's own methods
    assert not {"step_batch", "central"} & set(vars(model))
