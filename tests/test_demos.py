"""Each demo runs end to end and prints exactly its pinned stdout.

``demo_stdout/`` holds each demo's stdout, so a change to the library that
is meant to keep every printed number shows here if it does not.  A demo
prints no paths, so the pins do not depend on the cache directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py"))
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               HURWITZLAB_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    pinned = (PINS / demo).with_suffix(".txt").read_text(encoding="utf-8")
    assert proc.stdout == pinned
