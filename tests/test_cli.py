import json
import os

import pytest

from hurwitzlab.cli import main
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
    with pytest.raises(OSError):
        main(["hodge", "--genus", "1", "--marks", "1", "--cache-dir", cache])
    with open(table_path) as fh:
        assert fh.read() == before
    assert sorted(os.listdir(cache)) == listing


def test_hodge_unstable_exits_one(capsys, cache):
    code, _, err = run_cli(
        capsys, "hodge", "--genus", "0", "--marks", "2", "--cache-dir", cache,
    )
    assert code == 1 and "unstable" in err


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


def test_csv_output(capsys, cache):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--genus", "0", "--partition", "3",
        "--engine", "dfs", "--format", "csv", "--cache-dir", cache,
    )
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["result"] == "1" and record["engine"] == "dfs"


def test_export_chartable_requires_degree(capsys, cache):
    code, _, err = run_cli(capsys, "export", "--what", "chartable", "--cache-dir", cache)
    assert code == 1 and "--d" in err


def test_export_hodge_missing_table_exits_one(capsys, cache):
    code, _, err = run_cli(capsys, "export", "--what", "hodge", "--cache-dir", cache)
    assert code == 1 and "hodge" in err


def test_conflicting_table_file_exits_three(capsys, cache):
    # a stored table contradicting the built-in seed is an integrity
    # failure, not a user error
    os.makedirs(cache, exist_ok=True)
    with open(os.path.join(cache, "hodge-table.txt"), "w") as fh:
        fh.write("hurwitzlab-hodge-table v1\n(0,3,[0,0,0],0) 2 seeded\n")
    code, _, err = run_cli(
        capsys, "elsv", "--genus", "1", "--partition", "2", "--cache-dir", cache,
    )
    assert code == 3 and "conflicting" in err


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
    with pytest.raises(OSError):
        main(["export", "--what", "chartable", "--d", "5",
              "--output", str(target)])
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
