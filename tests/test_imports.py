"""The package's import footprint: numpy and PyYAML, no scipy."""

import os
import subprocess
import sys

import roilqr

SRC = os.path.dirname(os.path.dirname(os.path.abspath(roilqr.__file__)))


def test_import_loads_no_scipy():
    # every CLI run and fresh process pays for what `import roilqr` loads
    code = ("import sys, roilqr, roilqr.harness; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"
