"""Each demo runs to completion and prints its verdict.

The demos call the package the way a reader would, so a changed signature
shows up here rather than in the reader's terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

VERDICTS = {
    "dimension_tables.py": "every row agrees with the monomial oracle and the genus formula",
    "obstructed_thickening.py": "  verdict: obstructed-exhibited",
    "gluing_calculus.py": "  conjugation preserves the representative verbatim: True",
}


@pytest.mark.parametrize("script", sorted(VERDICTS))
def test_demo_runs_and_prints_its_verdict(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert VERDICTS[script] in proc.stdout.splitlines()
