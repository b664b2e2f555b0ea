"""Every narrative demo, and the README's library tour, runs to completion
against the library in src/."""

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


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", tour], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr


def test_taxonomy_atlas_prints_the_class_counts():
    demo = ROOT / "demos" / "05_taxonomy_atlas.py"
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    counts = [line.rsplit(":", 1) for line in proc.stdout.splitlines()[1:5]]
    assert [(label.strip(), int(n)) for label, n in counts] == [
        ("3D two-variable, case (12)", 10),
        ("3D two-variable, case (13)", 12),
        ("3D two-variable total", 22),
        ("3D three-variable", 40),
    ]
