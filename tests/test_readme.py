"""The README's quick tour and CLI example configs work against the
library as documented."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from brwlab import cli

ROOT = Path(__file__).resolve().parents[1]


def test_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_example_configs_pass_the_table():
    """Every config in the README's CLI block (its // lines dropped)
    passes the config table, which refuses unknown keys."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
    text = "\n".join(line for line in block.splitlines() if not line.startswith("//"))
    configs = [json.loads(chunk) for chunk in re.split(r"\n\s*\n", text) if chunk.strip()]
    assert {cfg["experiment"] for cfg in configs} == set(cli.EXPERIMENTS)
    for cfg in configs:
        cli.parse_config(cfg)
