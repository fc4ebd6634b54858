import csv
import io
import json
import os
import subprocess
import sys

import pytest

from hurwitzlab.cli import main
from hurwitzlab.hodge import HodgeBracket
from hurwitzlab.hurwitz import DP_MAX_D
from hurwitzlab.symgroup import CharacterTable, build_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache(tmp_path):
    return str(tmp_path / "cache")


def test_hurwitz_dfs_example(capsys, cache):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--genus", "0", "--partition", "3",
        "--engine", "dfs", "--cache-dir", cache,
    )
    assert code == 0
    assert out.splitlines()[0] == "H = 1"


def test_hurwitz_burnside_example(capsys, cache):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--genus", "1", "--partition", "2",
        "--engine", "burnside", "--cache-dir", cache,
    )
    assert code == 0
    assert out.splitlines()[0] == "H = 1/2"


def test_hurwitz_trivial_cover(capsys, cache):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--genus", "0", "--partition", "1",
        "--engine", "dfs", "--cache-dir", cache,
    )
    assert code == 0
    assert out.splitlines()[0] == "H = 1"


def test_partition_input_order_forgiven(capsys, cache):
    _, out1, _ = run_cli(
        capsys, "hurwitz", "--genus", "0", "--partition", "1,3",
        "--engine", "burnside", "--cache-dir", cache, "--format", "json",
    )
    _, out2, _ = run_cli(
        capsys, "hurwitz", "--genus", "0", "--partition", "3,1",
        "--engine", "burnside", "--cache-dir", cache, "--format", "json",
    )
    assert out1 == out2


def test_json_output_is_deterministic(capsys, cache):
    args = (
        "hurwitz", "--euler", "-2", "--partition", "3", "--engine", "dp",
        "--format", "json", "--cache-dir", cache,
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["result"] == "81"
    assert "elapsed_ms" not in record


def test_timing_flag_adds_elapsed(capsys, cache):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--genus", "1", "--partition", "2",
        "--engine", "dp", "--format", "json", "--timing", "--cache-dir", cache,
    )
    assert code == 0
    assert "elapsed_ms" in json.loads(out)


def test_cache_deletion_does_not_change_results(capsys, cache):
    args = (
        "hurwitz", "--genus", "1", "--partition", "2,1",
        "--engine", "burnside", "--format", "json", "--cache-dir", cache,
    )
    _, out1, _ = run_cli(capsys, *args)
    import shutil

    shutil.rmtree(cache, ignore_errors=True)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_invalid_query_exits_one(capsys, cache):
    code, _, err = run_cli(
        capsys, "hurwitz", "--genus", "0", "--partition", "",
        "--cache-dir", cache,
    )
    assert code == 1 and "partition" in err
    code, _, err = run_cli(
        capsys, "hurwitz", "--euler", "4", "--partition", "3",
        "--engine", "dfs", "--cache-dir", cache,
    )
    assert code == 1 and "connected" in err


def test_usage_error_exits_one_not_two(capsys, cache):
    code, _, err = run_cli(capsys, "hurwitz", "--cache-dir", cache)
    assert code == 1


@pytest.mark.parametrize("argv, text", [
    (("--partition", "3,1"), "provide exactly one of genus/euler"),
    (("--genus", "1"), "partition must be nonempty, e.g. --partition 3,1"),
    (("--euler", "0", "--partition", " "),
     "partition must be nonempty, e.g. --partition 3,1"),
])
def test_single_query_is_checked_as_a_batch_record(capsys, cache, argv, text):
    code, out, err = run_cli(capsys, "hurwitz", *argv, "--cache-dir", cache)
    assert (code, out, err) == (1, "", f"error: {text}\n")


def test_out_of_memory_exits_two_without_a_traceback(tmp_path):
    # the dp recursion keeps one layer per transposition: r = 6,000,004
    # layers do not fit in 400 MiB of address space
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(tests, "..", "src"),
               HURWITZLAB_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitzlab.cli", "hurwitz", "--genus",
         "3000000", "--partition", "3,1", "--engine", "dp"],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "resource limit: out of memory\n")


def test_resource_limit_exits_two(capsys, cache):
    code, _, err = run_cli(
        capsys, "hurwitz", "--euler", "0", "--partition", "8,8",
        "--engine", "dp", "--budget-dp-max-d", "7", "--cache-dir", cache,
    )
    assert code == 2 and "d <= 7" in err
    code, _, err = run_cli(
        capsys, "hurwitz", "--euler", "0", "--partition", str(DP_MAX_D + 1),
        "--engine", "dp", "--cache-dir", cache,
    )
    assert code == 2 and f"d <= {DP_MAX_D}" in err


def test_hodge_budgets_reach_their_engines(capsys, cache):
    # the (1, 5) grid runs from |mu| = 5 to 10: the character sums and the
    # grid-point check must each stop at their own budget
    for flag, budget in (("--budget-dp-max-d", "cycle-type recursion"),
                         ("--budget-burnside-max-d", "character-sum")):
        code, _, err = run_cli(capsys, "hodge", "--genus", "1", "--marks", "5",
                               flag, "4", "--cache-dir", cache)
        assert code == 2 and f"{budget} budget is d <= 4" in err


def _hodge_1_5_counts(capsys, cache, monkeypatch, *budget):
    """Run hodge at (1, 5) with ``budget``: the exit code, stderr, and every
    count the inversion sampled."""
    from hurwitzlab import hodge, hurwitz

    counted = []

    def counting(*args, **kwargs):
        counted.append(args)
        return hurwitz.connected_via_transform(*args, **kwargs)

    monkeypatch.setattr(hodge, "connected_via_transform", counting)
    code, _, err = run_cli(capsys, "hodge", "--genus", "1", "--marks", "5",
                           *budget, "--cache-dir", cache)
    return code, err, counted


def test_hodge_samples_every_grid_point_through_the_hodge_module(
        capsys, cache, monkeypatch):
    # the seam the two tests below watch: within budget, it sees all 12
    code, _, counted = _hodge_1_5_counts(capsys, cache, monkeypatch)
    assert code == 0 and len(counted) == 12


def test_hodge_grid_budget_fires_before_any_count(capsys, cache, monkeypatch):
    # the (1, 5) grid reaches |mu| = 7: the grid-point check's budget stops
    # the run when that point is chosen, before the inversion samples any
    code, err, counted = _hodge_1_5_counts(capsys, cache, monkeypatch,
                                           "--budget-dp-max-d", "6")
    assert code == 2
    assert "cycle-type recursion budget is d <= 6, got d = 7" in err
    assert counted == []


def test_hodge_burnside_budget_fires_before_any_count(capsys, cache,
                                                      monkeypatch):
    # the same grid point stops the run under the character-sum budget too
    code, err, counted = _hodge_1_5_counts(capsys, cache, monkeypatch,
                                           "--budget-burnside-max-d", "6")
    assert code == 2
    assert "character-sum budget is d <= 6, got d = 7" in err
    assert counted == []


def test_dp_reaches_the_burnside_ceiling(capsys, cache):
    query = ("hurwitz", "--euler", "0", "--partition", "7,7",
             "--cache-dir", cache, "--format", "json")
    code, dp, _ = run_cli(capsys, *query, "--engine", "dp")
    assert code == 0
    code, burnside, _ = run_cli(capsys, *query, "--engine", "burnside")
    assert code == 0
    assert json.loads(dp)["result"] == json.loads(burnside)["result"]


def test_consistency_failure_exits_three(capsys, cache, monkeypatch):
    from hurwitzlab.verify import CheckResult

    monkeypatch.setattr(
        "hurwitzlab.cli.run_suite",
        lambda name: [CheckResult("grr", "broken", False, "boom")],
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "grr", "--cache-dir", cache)
    assert code == 3
    assert "FAIL" in out


def test_check_result_detail_defaults_to_empty():
    from hurwitzlab.verify import CheckResult

    result = CheckResult("s", "n", True)
    assert result.detail == ""
    assert result.line() == "PASS  s:n"
    with pytest.raises(AttributeError):
        result.passed = False


GUARD_RUN = """
import sys
from hurwitzlab import cli
code = cli.main(sys.argv[1:])
heavy = sorted({"dataclasses", "inspect"} & set(sys.modules))
print(code, heavy, file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["chartable", "--d", "6"],
    ["hurwitz", "--genus", "1", "--partition", "2,1"],
    ["hodge", "--genus", "1", "--marks", "2"],
    ["elsv", "--genus", "1", "--partition", "2,1"],
    ["verify", "--suite", "string"],
])
def test_cli_run_imports_neither_dataclasses_nor_inspect(argv, cache):
    """Each CLI run is a fresh process, so start-up imports count: the
    records are named tuples, and nothing pulls in dataclasses or inspect
    (pytest's own process has inspect loaded already)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, HURWITZLAB_CACHE_DIR=cache)
    proc = subprocess.run([sys.executable, "-c", GUARD_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "0 []", proc.stderr


def test_batch_round_trip(capsys, cache, tmp_path):
    batch = [
        {"engine": "dfs", "genus": 0, "partition": "3"},
        {"engine": "dp", "euler": 2, "partition": "2"},
        {"engine": "burnside", "genus": 1, "partition": "2"},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code, out, _ = run_cli(
        capsys, "hurwitz", "--batch", str(path), "--cache-dir", cache,
    )
    assert code == 0
    results = json.loads(out)
    assert [r["result"] for r in results] == ["1", "1/2", "1/2"]
    # output mirrors input order and fields
    assert results[0]["partition"] == "3" and results[0]["genus"] == 0


def test_batch_rejects_unknown_keys(capsys, cache, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{"engine": "dp", "euler": 2, "partition": "2", "x": 1}]))
    code, _, err = run_cli(capsys, "hurwitz", "--batch", str(path), "--cache-dir", cache)
    assert code == 1 and "unknown keys" in err


# (record, the answer's fields beside the record's own) for a batch that mixes
# genus and euler records over every engine; "2,1" is kept as given
MIXED_BATCH = [
    ({"engine": "dfs", "genus": 1, "partition": "2,1"},
     {"result": "40", "d": 3, "h": 2, "r": 5}),
    ({"engine": "dp", "euler": 0, "partition": "1,2"},
     {"result": "81/2", "d": 3, "h": 2, "r": 5}),
    ({"engine": "burnside", "euler": 2, "partition": "1,1"},
     {"result": "1/2", "d": 2, "h": 2, "r": 2}),
    ({"genus": 0, "partition": "2,2"},
     {"result": "12", "engine": "burnside", "d": 4, "h": 2, "r": 4}),
    ({"engine": "dp", "genus": 1, "partition": "3"},
     {"result": "9", "d": 3, "h": 1, "r": 4}),
]


@pytest.mark.parametrize("batch, timing", [
    (MIXED_BATCH, True),
    (MIXED_BATCH[1:2], False),
    ([], False),
], ids=["mixed-timing", "one-record", "empty"])
def test_batch_stdout_is_the_indent_2_document(capsys, cache, tmp_path,
                                               batch, timing):
    # the answers are encoded one by one as they arrive; the document they
    # make is json.dumps of the whole list, byte for byte
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([rec for rec, _ in batch]))
    code, out, _ = run_cli(capsys, "hurwitz", "--batch", str(path),
                           "--cache-dir", cache,
                           *(["--timing"] if timing else []))
    assert code == 0
    expected = [{**rec, **answer} for rec, answer in batch]
    if timing:
        for want, got in zip(expected, json.loads(out)):
            assert type(got["elapsed_ms"]) is float
            want["elapsed_ms"] = got["elapsed_ms"]
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("last, code, err_start", [
    ({"engine": "dp", "euler": "0", "partition": "2"}, 1, "error: record 5: "),
    ({"engine": "dp", "euler": 0, "partition": str(DP_MAX_D + 1)}, 2,
     f"resource limit: cycle-type recursion budget is d <= {DP_MAX_D}"),
], ids=["malformed", "over-budget"])
def test_batch_failing_last_record_writes_nothing(capsys, cache, tmp_path,
                                                  last, code, err_start):
    # nothing is written until every record has its answer
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([rec for rec, _ in MIXED_BATCH] + [last]))
    got, out, err = run_cli(capsys, "hurwitz", "--batch", str(path),
                            "--cache-dir", cache)
    assert (got, out) == (code, "") and err.startswith(err_start), err


def test_batch_csv_rows(capsys, cache, tmp_path):
    # the header is the sorted union of the answers' keys; a cell holding a
    # comma, as a partition of two or more parts does, is quoted
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([rec for rec, _ in MIXED_BATCH]))
    code, out, _ = run_cli(capsys, "hurwitz", "--batch", str(path),
                           "--format", "csv", "--cache-dir", cache)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,engine,euler,genus,h,partition,r,result"
    assert lines[1] == '3,dfs,,1,2,"2,1",5,40'  # a genus record: euler empty
    assert lines[2] == '3,dp,0,,2,"1,2",5,81/2'
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["result"] for row in rows] == [a["result"] for _, a in MIXED_BATCH]
    assert [row["partition"] for row in rows] == [
        rec["partition"] for rec, _ in MIXED_BATCH]


@pytest.mark.parametrize("argv", [
    # 1.3 kB, which waits in the buffer until main flushes it
    ["verify", "--suite", "grr", "--format", "json"],
    # 15 kB in one write, past the 8 KiB buffer, so the write itself fails
    ["export", "--what", "chartable", "--d", "12"],
])
def test_closed_stdout_exits_one_without_a_traceback(argv, cache):
    # as in `... | head -1`: the reader is gone before the child writes;
    # stdout is block-buffered, as it is by default on a pipe
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, HURWITZLAB_CACHE_DIR=cache)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "hurwitzlab.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        code = proc.wait(timeout=120)
    assert code == 1, err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv", [
    ["hodge", "--genus", "1", "--marks", "1", "--table-file", "{dir}"],
    ["elsv", "--genus", "1", "--partition", "2", "--table-file", "{dir}"],
    ["export", "--what", "hodge", "--table-file", "{dir}"],
    ["hodge", "--genus", "1", "--marks", "1", "--table-file", "{file}/t.txt"],
    ["export", "--what", "chartable", "--d", "3", "--output", "{file}/x"],
], ids=["hodge-dir", "elsv-dir", "export-hodge-dir", "hodge-under-file",
        "export-under-file"])
def test_unusable_paths_exit_one_without_a_traceback(argv, tmp_path):
    # a table file that is a directory, or a path through a regular file
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src,
               HURWITZLAB_CACHE_DIR=str(tmp_path / "cache"))
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("not a directory\n")
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file"}
    argv = [arg.format(**paths) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "hurwitzlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_hodge_command_writes_table(capsys, cache):
    code, out, _ = run_cli(
        capsys, "hodge", "--genus", "1", "--marks", "1", "--cache-dir", cache,
    )
    assert code == 0
    assert "(1,1,[1],0)" in out and "1/24" in out
    table_path = os.path.join(cache, "hodge-table.txt")
    assert os.path.exists(table_path)
    with open(table_path) as fh:
        assert "(1,1,[0],1) 1/24" in fh.read()


def test_failed_table_write_keeps_previous_file(capsys, cache, monkeypatch):
    # the only write of the second run is the bracket table itself
    run_cli(capsys, "hodge", "--genus", "0", "--marks", "4", "--cache-dir", cache)
    table_path = os.path.join(cache, "hodge-table.txt")
    with open(table_path) as fh:
        before = fh.read()
    listing = sorted(os.listdir(cache))

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, _, err = run_cli(capsys, "hodge", "--genus", "1", "--marks", "1",
                           "--cache-dir", cache)
    assert code == 1
    assert err == "error: simulated crash before the rename\n"
    with open(table_path) as fh:
        assert fh.read() == before
    assert sorted(os.listdir(cache)) == listing


def test_hodge_unstable_exits_one(capsys, cache):
    code, _, err = run_cli(
        capsys, "hodge", "--genus", "0", "--marks", "2", "--cache-dir", cache,
    )
    assert code == 1 and "unstable" in err


def test_elsv_unstable_exits_one_before_any_write(capsys, cache):
    code, _, err = run_cli(
        capsys, "elsv", "--genus", "0", "--partition", "2", "--cache-dir", cache,
    )
    assert code == 1
    assert err == "error: unsupported range: unstable (g, h) = (0, 1)\n"
    assert not os.path.exists(cache)


@pytest.mark.parametrize("argv", [
    ["hurwitz", "--euler", "-6000", "--partition", "3,1", "--engine", "burnside"],
    ["hurwitz", "--euler", "-6000", "--partition", "3,1", "--engine", "dp"],
    ["hurwitz", "--genus", "3000", "--partition", "3,1", "--engine", "dfs"],
    ["elsv", "--genus", "1", "--partition", "3000,1"],
], ids=["euler-burnside", "euler-dp", "genus-dfs", "elsv"])
def test_counts_past_4300_digits_print_in_full(argv, capsys, cache):
    # Python stops int <-> str conversions at 4300 digits by default; the CLI
    # lifts that limit, so the exact count prints, as it does in-process
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, HURWITZLAB_CACHE_DIR=cache)
    proc = subprocess.run([sys.executable, "-m", "hurwitzlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    code, out, _ = run_cli(capsys, *argv, "--cache-dir", cache)
    assert code == 0 and proc.stdout == out
    assert len(out.splitlines()[0]) > 4300


def test_elsv_command_bootstraps_table(capsys, cache):
    code, out, _ = run_cli(
        capsys, "elsv", "--genus", "1", "--partition", "2", "--cache-dir", cache,
    )
    assert code == 0
    assert out.splitlines()[0] == "H = 1/2"


def test_chartable_and_export(capsys, cache):
    code, out, _ = run_cli(capsys, "chartable", "--d", "4", "--cache-dir", cache)
    assert code == 0
    assert "5 classes" in out
    assert os.listdir(cache) == []  # the directory is made, nothing stored
    code, out, _ = run_cli(
        capsys, "export", "--what", "chartable", "--d", "4", "--cache-dir", cache,
    )
    assert code == 0
    assert out.startswith("hurwitzlab-chartable v1")


def test_export_hodge_document(capsys, cache):
    run_cli(capsys, "hodge", "--genus", "1", "--marks", "1", "--cache-dir", cache)
    code, out, _ = run_cli(capsys, "export", "--what", "hodge", "--cache-dir", cache)
    assert code == 0
    assert out.startswith("hurwitzlab-hodge-table v1")
    assert "(0,3,[0,0,0],0) 1 seeded" in out


def test_verify_single_suite(capsys, cache):
    code, out, _ = run_cli(capsys, "verify", "--suite", "grr", "--cache-dir", cache)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_json_stdout_is_pinned(tmp_path):
    # verify_stdout.json is the whole run's stdout, byte for byte, as
    # demo_stdout/ pins the demos; a change meant to keep every check's
    # name, verdict and detail shows here if it does not
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(tests, "..", "src"),
               HURWITZLAB_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitzlab.cli", "verify", "--suite", "all",
         "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(tests, "verify_stdout.json"), encoding="utf-8") as f:
        assert proc.stdout == f.read()


def test_batch_json_stdout_is_pinned(tmp_path):
    # batch_stdout.json is the stdout of batch_records.json, byte for byte:
    # character-sum records at d = 8..14, dp records, connected counts
    # through both transforms and dfs, all in one process
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(tests, "..", "src"),
               HURWITZLAB_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitzlab.cli", "hurwitz", "--batch",
         os.path.join(tests, "batch_records.json"), "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(tests, "batch_stdout.json"), encoding="utf-8") as f:
        assert proc.stdout == f.read()


def test_csv_output(capsys, cache):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--genus", "0", "--partition", "3",
        "--engine", "dfs", "--format", "csv", "--cache-dir", cache,
    )
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["result"] == "1" and record["engine"] == "dfs"


def test_hodge_and_verify_csv_quote_their_cells(capsys, cache):
    # a bracket such as (1,2,[1,1],0) holds commas: quoted, each hodge row is
    # two fields, and verify gives the four fields of its json report
    code, out, _ = run_cli(capsys, "hodge", "--genus", "1", "--marks", "2",
                           "--format", "csv", "--cache-dir", cache)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["bracket", "value"] and len(rows) == 3
    for row in rows:
        assert len(row) == 2
        bracket = HodgeBracket.from_string(row[0])
        assert (bracket.g, bracket.h, str(bracket)) == (1, 2, row[0])
        assert row[1] == "1/24"
    _, out, _ = run_cli(capsys, "verify", "--suite", "grr", "--format", "json")
    report = json.loads(out)
    code, out, _ = run_cli(capsys, "verify", "--suite", "grr", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["suite", "name", "passed", "detail"]
    assert rows == [[r["suite"], r["name"], str(r["passed"]), r["detail"]]
                    for r in report]


def test_export_chartable_requires_degree(capsys, cache):
    code, _, err = run_cli(capsys, "export", "--what", "chartable", "--cache-dir", cache)
    assert code == 1 and "--d" in err


def test_export_hodge_missing_table_exits_one(capsys, cache):
    code, _, err = run_cli(capsys, "export", "--what", "hodge", "--cache-dir", cache)
    assert code == 1 and "hodge" in err


@pytest.mark.parametrize("lines", [
    ["(1,1,[1],0) 1/24 inverted-from-hurwitz",
     "(1,1,[1],0) 1/12 inverted-from-hurwitz"],
    ["(0,3,[0,0,0],0) 2 seeded"],
], ids=["two-values", "not-the-seed"])
def test_conflicting_table_file_is_a_cache_miss(capsys, cache, lines):
    # a stored line contradicting another line or the built-in seed is
    # malformed input: the commands that fill the table rebuild it, and
    # export, which only reads it, rejects it as a user error
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "hodge-table.txt")
    conflicting = "\n".join(["hurwitzlab-hodge-table v1"] + lines) + "\n"
    with open(path, "w") as fh:
        fh.write(conflicting)
    code, _, err = run_cli(capsys, "export", "--what", "hodge", "--cache-dir", cache)
    assert code == 1 and "malformed Hodge table line" in err
    code, _, _ = run_cli(
        capsys, "hodge", "--genus", "1", "--marks", "1", "--cache-dir", cache,
    )
    assert code == 0
    with open(path) as fh:
        text = fh.read()
    assert text != conflicting
    assert "(1,1,[1],0) 1/24 inverted" in text and "1/12" not in text
    assert "(0,3,[0,0,0],0) 1 seeded" in text
    code, out, _ = run_cli(
        capsys, "elsv", "--genus", "1", "--partition", "2", "--cache-dir", cache,
    )
    assert code == 0 and "1/2" in out


def _tampered_table(capsys, cache):
    """Invert (1, 1), then change one stored bracket from 1/24 to 1/12."""
    run_cli(capsys, "hodge", "--genus", "1", "--marks", "1", "--cache-dir", cache)
    path = os.path.join(cache, "hodge-table.txt")
    with open(path) as fh:
        text = fh.read()
    assert "(1,1,[1],0) 1/24" in text
    with open(path, "w") as fh:
        fh.write(text.replace("(1,1,[1],0) 1/24", "(1,1,[1],0) 1/12"))
    return path


def test_elsv_reinverts_a_tampered_block(capsys, cache):
    path = _tampered_table(capsys, cache)
    code, out, _ = run_cli(
        capsys, "elsv", "--genus", "1", "--partition", "3", "--cache-dir", cache,
    )
    assert code == 0
    assert out.splitlines()[0] == "H = 9"  # the tampered table gives 45/2
    with open(path) as fh:
        assert "(1,1,[1],0) 1/24" in fh.read()


def test_elsv_read_back_makes_no_dfs_call(capsys, cache, monkeypatch):
    from hurwitzlab import cli, hurwitz

    def refuse(*args, **kwargs):
        raise AssertionError("connected_dfs called")

    path = _tampered_table(capsys, cache)
    monkeypatch.setattr(hurwitz, "connected_dfs", refuse)
    monkeypatch.setattr(cli, "connected_dfs", refuse)
    for _ in range(2):  # re-invert the tampered block, then read it back
        code, out, _ = run_cli(
            capsys, "elsv", "--genus", "1", "--partition", "3", "--cache-dir", cache,
        )
        assert code == 0 and out.splitlines()[0] == "H = 9"
    with open(path) as fh:
        assert "(1,1,[1],0) 1/24" in fh.read()


def test_hodge_replaces_a_tampered_block(capsys, cache):
    path = _tampered_table(capsys, cache)
    code, out, _ = run_cli(
        capsys, "hodge", "--genus", "1", "--marks", "1", "--cache-dir", cache,
    )
    assert code == 0
    with open(path) as fh:
        assert "(1,1,[1],0) 1/24" in fh.read()


def test_unparsable_table_is_a_cache_miss(capsys, cache):
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "hodge-table.txt")
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe not even text\n")
    code, _, err = run_cli(capsys, "export", "--what", "hodge", "--cache-dir", cache)
    assert code == 1 and "format" in err  # export shows the file as it is
    code, out, _ = run_cli(
        capsys, "elsv", "--genus", "1", "--partition", "2", "--cache-dir", cache,
    )
    assert code == 0
    assert out.splitlines()[0] == "H = 1/2"
    with open(path) as fh:
        assert fh.read().startswith("hurwitzlab-hodge-table v1\n")
    with open(path, "w") as fh:
        fh.write("hurwitzlab-hodge-table v1\n(1,1,[1],0) 1/0 inverted\n")
    code, _, _ = run_cli(
        capsys, "hodge", "--genus", "1", "--marks", "1", "--cache-dir", cache,
    )
    assert code == 0
    with open(path) as fh:
        assert "(1,1,[1],0) 1/24" in fh.read()


def _plant_chartable(cache, d, text):
    os.makedirs(cache, exist_ok=True)
    with open(os.path.join(cache, f"chartable-{d:02d}.txt"), "w") as fh:
        fh.write(text)


def _swapped_rows(d, a, b):
    """The text of the degree-d table with rows ``a`` and ``b`` swapped."""
    lines = build_table(d).to_text().splitlines()
    labels = lines[2][len("partitions="):].split(";")
    i, j = 3 + labels.index(a), 3 + labels.index(b)
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def test_swapped_chartable_rows_do_not_change_a_count(capsys, cache):
    # rows 3,1 and 2,1,1 share their dimension, and swapping them keeps row
    # orthogonality; read from such a file, the burnside engine printed 164
    swapped = _swapped_rows(4, "3,1", "2,1,1")
    CharacterTable.from_text(swapped).verify()  # still orthogonal
    _plant_chartable(cache, 4, swapped)
    query = ("hurwitz", "--euler", "0", "--partition", "4", "--cache-dir", cache)
    code, out, _ = run_cli(capsys, *query, "--engine", "burnside")
    assert code == 0
    assert out.splitlines()[0] == "H = 160"
    _, out, _ = run_cli(capsys, *query, "--engine", "dp")
    assert out.splitlines()[0] == "H = 160"


def test_export_chartable_ignores_a_swapped_cache(capsys, cache):
    # rows 7,1^5 and 4,4,4 share (dim, kappa), so the load check of a cached
    # table let them through swapped; export printed that file as it was
    fresh = build_table(12).to_text()
    _plant_chartable(cache, 12, _swapped_rows(12, "7,1,1,1,1,1", "4,4,4"))
    code, out, _ = run_cli(
        capsys, "export", "--what", "chartable", "--d", "12", "--cache-dir", cache,
    )
    assert code == 0
    assert out == fresh


def test_garbage_chartable_files_change_no_count(capsys, cache, tmp_path):
    query = ("hurwitz", "--euler", "0", "--partition", "3,1", "--engine",
             "burnside", "--format", "json")
    _, clean, _ = run_cli(capsys, *query, "--cache-dir", str(tmp_path / "clean"))
    for d in range(1, 15):
        _plant_chartable(cache, d, "hurwitzlab-chartable v1\nd=4\n9 9 9\n")
    code, out, _ = run_cli(capsys, *query, "--cache-dir", cache)
    assert code == 0 and out == clean
    code, out, _ = run_cli(capsys, "export", "--what", "chartable", "--d", "4",
                           "--cache-dir", cache)
    assert code == 0 and out == build_table(4).to_text()


def test_character_paths_write_no_chartable_files(capsys, cache):
    for argv in (
        ("hurwitz", "--euler", "0", "--partition", "3,2", "--engine", "burnside"),
        ("hodge", "--genus", "0", "--marks", "4"),
        ("chartable", "--d", "6"),
    ):
        code, _, _ = run_cli(capsys, *argv, "--cache-dir", cache)
        assert code == 0
    assert os.listdir(cache) == ["hodge-table.txt"]


def test_burnside_reaches_degree_sixteen(capsys, cache):
    query = ("hurwitz", "--euler", "0", "--partition", "8,8",
             "--cache-dir", cache, "--format", "json")
    code, burnside, _ = run_cli(capsys, *query, "--engine", "burnside")
    assert code == 0
    assert json.loads(burnside)["result"] == "4156144136553467215872"
    _, dp, _ = run_cli(capsys, *query, "--engine", "dp")
    assert json.loads(dp)["result"] == json.loads(burnside)["result"]


def test_failed_export_write_keeps_previous_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "out" / "table.txt"
    target.parent.mkdir()
    target.write_text("previous contents\n")

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, _, err = run_cli(capsys, "export", "--what", "chartable", "--d", "5",
                           "--output", str(target))
    assert code == 1
    assert err == "error: simulated crash before the rename\n"
    assert target.read_text() == "previous contents\n"
    assert os.listdir(target.parent) == ["table.txt"]
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "export", "--what", "chartable", "--d", "5",
                         "--output", str(target))
    assert code == 0
    assert target.read_text() == build_table(5).to_text()


def test_budget_flags_must_be_positive(capsys, cache):
    for flag in ("--budget-dfs-nodes", "--budget-dp-max-d",
                 "--budget-burnside-max-d"):
        code, _, err = run_cli(capsys, "hurwitz", "--genus", "0",
                               "--partition", "3", flag, "0",
                               "--cache-dir", cache)
        assert code == 1 and flag in err and "positive" in err
    code, out, _ = run_cli(capsys, "hurwitz", "--genus", "0", "--partition",
                           "3", "--budget-dp-max-d", "5", "--engine", "dp",
                           "--cache-dir", cache)
    assert code == 0 and out.splitlines()[0] == "H = 1"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "grr", "--budget-dp-max-d", "1"),
    ("hodge", "--genus", "1", "--marks", "1", "--budget-dfs-nodes", "1"),
    ("hodge", "--genus", "1", "--marks", "1", "--timing"),
    ("chartable", "--d", "3", "--budget-dp-max-d", "1"),
    ("export", "--what", "chartable", "--d", "3", "--format", "json"),
    ("export", "--what", "chartable", "--d", "3", "--timing"),
])
def test_subcommands_reject_flags_they_do_not_read(capsys, cache, argv):
    code, out, err = run_cli(capsys, *argv, "--cache-dir", cache)
    assert code == 1 and "unrecognized arguments" in err
    assert out == ""


@pytest.mark.parametrize("record", [
    5,
    {"euler": "x", "partition": "2"},
    {"euler": 2, "partition": 5},
    {"genus": 1.5, "partition": "2"},
    {"euler": True, "partition": "2"},  # a JSON bool is not an integer
    {"euler": 2, "partition": ""},  # the parse error names the record too
])
def test_batch_rejects_malformed_records(capsys, cache, tmp_path, record):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{"euler": 2, "partition": "2"}, record]))
    code, out, err = run_cli(capsys, "hurwitz", "--batch", str(path),
                             "--cache-dir", cache)
    assert code == 1 and err.startswith("error: record 1: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("hurwitz", "--genus", "-1", "--partition", "1,1,1", "--engine", "dfs"),
    ("hurwitz", "--genus", "-1", "--partition", "1,1,1", "--engine", "dp"),
    ("hurwitz", "--genus", "-1", "--partition", "1,1,1", "--engine", "burnside"),
    ("hodge", "--genus", "-1", "--marks", "5"),
])
def test_negative_genus_exits_one(capsys, cache, argv):
    code, out, err = run_cli(capsys, *argv, "--cache-dir", cache)
    assert code == 1 and "nonnegative" in err
    assert out == ""


@pytest.mark.parametrize("flag", [
    ("--genus", "0"),
    ("--euler", "2"),
    ("--partition", "2"),
    ("--engine", "dp"),
])
def test_batch_rejects_single_query_flags(capsys, cache, tmp_path, flag):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{"engine": "dp", "euler": 2, "partition": "2"}]))
    code, out, err = run_cli(capsys, "hurwitz", "--batch", str(path), *flag,
                             "--cache-dir", cache)
    assert code == 1 and flag[0] in err and "--batch" in err
    assert out == ""
    # the same file without the flag runs
    code, out, _ = run_cli(capsys, "hurwitz", "--batch", str(path),
                           "--cache-dir", cache)
    assert code == 0 and json.loads(out)[0]["result"] == "1/2"


def test_hurwitz_engine_defaults_to_burnside(capsys, cache):
    code, out, _ = run_cli(capsys, "hurwitz", "--genus", "1", "--partition",
                           "2", "--format", "json", "--cache-dir", cache)
    assert code == 0 and json.loads(out)["engine"] == "burnside"


def test_export_hodge_rejects_degree(capsys, cache):
    run_cli(capsys, "hodge", "--genus", "0", "--marks", "3", "--cache-dir", cache)
    code, out, err = run_cli(capsys, "export", "--what", "hodge", "--d", "3",
                             "--cache-dir", cache)
    assert code == 1 and "--d" in err and out == ""


def test_export_chartable_rejects_table_file(capsys, cache, tmp_path):
    code, out, err = run_cli(capsys, "export", "--what", "chartable", "--d", "3",
                             "--table-file", str(tmp_path / "t.txt"),
                             "--cache-dir", cache)
    assert code == 1 and "--table-file" in err and out == ""
