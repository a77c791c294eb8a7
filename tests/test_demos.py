"""The quick demos run to the end: they drive tensor, nn and optim directly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


# digit_conditioning.py trains for five epochs and is left out
@pytest.mark.parametrize("demo", ["train_by_hand.py", "identity_walkthrough.py",
                                  "mixture_conditioning.py"])
def test_demo_runs_to_the_end(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DEMOS / demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if demo == "train_by_hand.py":
        assert "predictions [0, 1, 1, 0]" in done.stdout
