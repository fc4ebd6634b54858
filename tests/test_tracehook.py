"""The benchmark's trace hooks wrap some library names directly; a refactor
that moves one of them out of its class body silently drops its span."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trace(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PERFBENCH_TRACE_OUT=str(spans))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracehook.py"), *argv,
         "--cache-dir", str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def _traced_names(tmp_path, *argv):
    return set(_trace(tmp_path, *argv)["names"])


#: Installs the hooks in a child process, so the wrappers stay out of the test
#: process, and prints the span names that the series product and log record.
SERIES_SPANS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracehook
from hurwitzlab.hurwitz import HurwitzSeries
tracer = tracehook.Tracer()
tracehook.install(tracer)
s = HurwitzSeries.one(2, 1)
s.set_coefficient((1,), -1, 1)
(s * s).log()
print(json.dumps(sorted({name for name, *_ in tracer.spans})))
"""


def test_tracehook_records_the_hooked_spans(tmp_path):
    # no CLI command takes a series log any more, so the class-method hooks
    # are exercised directly
    proc = subprocess.run(
        [sys.executable, "-c", SERIES_SPANS, str(ROOT / "perfbench")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert {"hurwitz.log", "hurwitz.mul"} <= set(json.loads(proc.stdout))
    names = _traced_names(tmp_path, "hurwitz", "--genus", "1", "--partition",
                          "2,1", "--engine", "burnside")
    assert "hurwitz.connected_via_transform" in names
    # the burnside engine reads character columns, not tables; the grading
    # checks of the burnside suite still read a CharacterTable
    names = _traced_names(tmp_path, "verify", "--suite", "burnside")
    assert "symgroup.chi" in names


def test_tracehook_records_the_hodge_path(tmp_path):
    # the inversion engine is looked up when it runs, after the wrappers are
    # installed; one bound at import or at def time would run unwrapped
    names = _traced_names(tmp_path, "hodge", "--genus", "1", "--marks", "2")
    assert {"hurwitz.connected_via_transform", "hurwitz.connected_dp",
            "hodge.elsv_inversion"} <= names
    # verify inverts with elsv_inversion's default engine
    trace = _trace(tmp_path, "verify", "--suite", "elsv")
    names, spans = trace["names"], trace["spans"]
    callers = {names[spans[parent][0]] for code, _, _, parent in spans
               if names[code] == "hurwitz.connected_via_transform"
               and parent >= 0}
    assert "hodge.elsv_inversion" in callers
