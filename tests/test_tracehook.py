"""The benchmark's trace hooks wrap some library names directly; a refactor
that moves one of them out of its class body silently drops its span."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_names(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PERFBENCH_TRACE_OUT=str(spans))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracehook.py"), *argv,
         "--cache-dir", str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(spans.read_text())["names"])


def test_tracehook_records_the_hooked_spans(tmp_path):
    names = _traced_names(tmp_path, "hurwitz", "--genus", "1", "--partition",
                          "2,1", "--engine", "burnside")
    assert {"hurwitz.log", "hurwitz.mul"} <= names
    # the burnside engine reads character columns, not tables; the grading
    # checks of the burnside suite still read a CharacterTable
    names = _traced_names(tmp_path, "verify", "--suite", "burnside")
    assert "symgroup.chi" in names
