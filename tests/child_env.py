"""The environment for a child Python process that imports vcslab from src/."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict[str, str]:
    """os.environ with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env
