"""The demo scripts run to completion.

``03_imbalanced_study.py`` is left out: it trains the imbalanced study for
about 22 s, and criterion 8 already runs that study.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mograd

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(mograd.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    ["01_direction_geometry.py", "02_quadratic_benchmark.py", "04_multitask_scaling.py"],
)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
