"""Every demo script, and the README's command block, runs to completion
against the package sources."""

import contextlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dynachrome.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_command_block_runs_in_order(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line\n\n```bash\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("dynachrome ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for line in commands:
        words = shlex.split(line, comments=True)[1:]
        target = None
        if ">" in words:
            i = words.index(">")
            words, target = words[:i], words[i + 1]
        with open(target or os.devnull, "w") as out, contextlib.redirect_stdout(out):
            code = main(words)
        err = capsys.readouterr().err
        assert code == 0, (line, err)
