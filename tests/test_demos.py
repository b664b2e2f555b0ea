"""Every narrative demo runs to completion against the library in src/."""

import subprocess
import sys

import pytest

from child_env import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
