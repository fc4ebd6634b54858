"""Every subcommand prints exactly its pinned stdout, in every format.

``cli_stdout.json`` maps each command line of ``MATRIX`` to its stdout, with
the bracket-table path written as TABLE.  The commands run in order, in one
process, on one table file, as ``verify_stdout.json`` and ``demo_stdout/``
pin the other outputs.  Regenerate the pins with

    PYTHONPATH=src python tests/test_cli_stdout.py
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout

from hurwitzlab.cli import FORMATS, main

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "cli_stdout.json")

MATRIX = [
    f"{command} --format {fmt}"
    for command in (
        "hurwitz --genus 1 --partition 3,1 --engine dfs",
        "hurwitz --genus 1 --partition 3,1 --engine dp",
        "hurwitz --genus 1 --partition 3,1 --engine burnside",
        "hurwitz --euler 0 --partition 2,2 --engine dp",
        "hodge --genus 1 --marks 2 --table-file TABLE",
        "elsv --genus 1 --partition 3,1 --table-file TABLE",
        "verify --suite grr",
        "chartable --d 4",
    )
    for fmt in FORMATS
] + [
    "export --what hodge --table-file TABLE",
    "export --what chartable --d 4",
]


def run_matrix(directory):
    """{command line: stdout} over MATRIX, with every table in ``directory``."""
    table = os.path.join(directory, "hodge-table.txt")
    cache = os.path.join(directory, "cache")
    out = {}
    for line in MATRIX:
        argv = [table if arg == "TABLE" else arg for arg in line.split()]
        with redirect_stdout(io.StringIO()) as stdout:
            code = main(argv + ["--cache-dir", cache])
        assert code == 0, line
        out[line] = stdout.getvalue().replace(table, "TABLE")
    return out


def test_every_subcommand_prints_its_pinned_stdout(tmp_path):
    with open(PINS, encoding="utf-8") as fh:
        assert run_matrix(str(tmp_path)) == json.load(fh)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        pins = run_matrix(directory)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2)
        fh.write("\n")
