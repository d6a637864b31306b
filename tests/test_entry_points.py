"""The two ways to start the program: ``python -m bredon`` and the console script."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from bredon.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_python_m_bredon_matches_in_process(capsys):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    argv = ["catalog", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "bredon", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_closed_pipe_exits_141_quietly():
    """``bredon solve ... | head -n 1``: once the reader has gone, the program
    stops writing and exits 141, as a shell reports a SIGPIPE death, with
    nothing on stderr."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    constraints = ROOT / "benchmarks" / "data" / "k3_betti.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "bredon", "solve", "--constraints", str(constraints)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # 10,146 lines do not fit in the pipe: a later write fails
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b'{"free":[],"antipodal":[[0,2,1],[2,0,10],[2,2,1]]}\n'
    assert (code, err) == (141, b"")


def test_console_script_target():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    target = re.search(r'^bredon\s*=\s*"([\w.]+):(\w+)"\s*$', scripts.group(1), re.M)
    assert target.groups() == ("bredon.cli", "main")
    assert getattr(importlib.import_module(target.group(1)), target.group(2)) is main
