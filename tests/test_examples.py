"""Every example runs clean, as a user would run it.

Each script under ``examples/`` is executed in its own interpreter with
the source tree on the path; it must exit 0 without printing a
traceback.  The examples assert their own cross-checks (pipeline vs
brute-force baselines), so a wrong count fails here too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_clean(script):
    # The caller's path entries stay behind the source tree, so a shim
    # that hides an optional dependency keeps hiding it in the child.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 0, output
    assert "Traceback" not in output, output
