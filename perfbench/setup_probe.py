"""Time one fresh-process set-up and print it in seconds.

Measures, from the first line of this script: ``import roilqr``, the
preset, the Gaussian initial guess, ``build_problem`` and one model step
(which compiles the kernels when numba is active), i.e. everything a
``roilqr solve`` pays before its first iteration.

    python3 perfbench/setup_probe.py <preset> <seed>

``src`` must be on ``PYTHONPATH``; ``run.py`` starts this script.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main(preset_name, seed):
    import roilqr  # noqa: F401  (the whole package, as the CLI imports it)
    from roilqr import harness

    cfg = harness.preset(preset_name)
    guess = harness.gaussian_guess(cfg, seed, cfg.run.guess_std)
    problem = harness.build_problem(cfg, u_init=guess)
    problem.model.step_batch(problem.x0, problem.initial_controls()[0])
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
