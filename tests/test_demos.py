"""Every script in demos/ runs to completion against the current API, under
tier-1's warning policy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# pyproject.toml's filterwarnings do not reach a subprocess, so the wrapper
# sets the same policy before it runs the demo: DeprecationWarning,
# FutureWarning, RuntimeWarning and UserWarning are errors, and
# AmbiguousFitWarning, whose emission depends on rounding, is shown.  The -W
# option cannot name a romres category before romres is imported.
RUN_UNDER_POLICY = """
import runpy, sys, warnings
for category in (DeprecationWarning, FutureWarning, RuntimeWarning, UserWarning):
    warnings.simplefilter("error", category)
from romres.errors import AmbiguousFitWarning
warnings.simplefilter("default", AmbiguousFitWarning)
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write their artifacts (demo 06: two PGMs) into the working
    # directory, so each runs in its own temporary one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", RUN_UNDER_POLICY, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_demos_found():
    # an empty glob would parametrize no test at all
    assert DEMOS


def test_demo_wrapper_raises_warnings(tmp_path):
    # a UserWarning in a demo fails its run, and AmbiguousFitWarning does not
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for category, code in (("UserWarning", 1), ("romres.errors.AmbiguousFitWarning", 0)):
        script = tmp_path / "warns.py"
        script.write_text(f"import warnings, romres.errors\nwarnings.warn('x', {category})\n"
                          "print('done')\n")
        proc = subprocess.run([sys.executable, "-c", RUN_UNDER_POLICY, str(script)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr[-2000:]
