"""Each demo prints the same bytes as the recorded run in tests/data/demos."""

import glob
import os
import subprocess
import sys

import pytest

import homres

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_output_is_byte_identical(demo):
    name = os.path.splitext(os.path.basename(demo))[0]
    with open(os.path.join(ROOT, "tests", "data", "demos", f"{name}.out"), "rb") as fh:
        want = fh.read()
    src = os.path.dirname(os.path.dirname(os.path.abspath(homres.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, demo], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    assert done.stdout == want


def test_every_demo_has_a_recording():
    recorded = sorted(glob.glob(os.path.join(ROOT, "tests", "data", "demos", "*.out")))
    assert [os.path.splitext(os.path.basename(p))[0] for p in recorded] == [
        os.path.splitext(os.path.basename(p))[0] for p in DEMOS]
