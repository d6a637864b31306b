"""Every demo prints the bytes recorded in ``tests/golden/demos/``.

Record again with ``PYTHONPATH=src python tests/test_demos.py``, and only at a
commit whose outputs are trusted.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def demo_stdout(demo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    assert demo_stdout(demo) == (GOLDEN / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.txt").write_text(demo_stdout(demo))
