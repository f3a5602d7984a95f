"""The README's quick tour runs against the library as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
