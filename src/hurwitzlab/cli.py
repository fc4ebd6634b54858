"""Command-line front end.

Subcommands: hurwitz, hodge, elsv, verify, chartable, export.  Exit codes:
0 success, 1 domain error, 2 resource limit, 3 internal consistency failure.
Machine-readable output (json/csv) is byte-identical across runs for the same
command, configuration, and bracket-table file; timing is opt-in via
--timing.  The cache directory holds only the default bracket table,
hodge-table.txt: character values are computed on demand and never stored.
"""

import argparse
import json
import os
import sys
import tempfile
import time

from .errors import ConsistencyError, DomainError, HurwitzlabError, ResourceLimitError
from .hodge import (
    HodgeTable,
    elsv_evaluate,
    hodge_export,
    hodge_import,
    invert_into,
)
from .hurwitz import (
    BURNSIDE_MAX_D,
    DFS_NODE_BUDGET,
    DP_MAX_D,
    connected_dfs,
    connected_dp,
    connected_via_transform,
    disconnected_burnside,
    disconnected_dp,
)
from .partitions import Partition
from .symgroup import build_table
from .verify import SUITE_NAMES, run_suite

CACHE_ENV_VAR = "HURWITZLAB_CACHE_DIR"

ENGINES = ("dfs", "dp", "burnside")
FORMATS = ("text", "json", "csv")


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and ``os.replace``, so a reader sees the old file or the new
    one, never a partial write."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_dir(args):
    return args.cache_dir or os.environ.get(CACHE_ENV_VAR) or os.path.join(
        os.path.expanduser("~"), ".cache", "hurwitzlab"
    )


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; that slot belongs to
    # resource limits here, so reroute to the domain-error path instead.
    def error(self, message):
        raise DomainError(message)


def _parse_partition(text):
    text = text.strip()
    if not text:
        raise DomainError("partition must be nonempty, e.g. --partition 3,1")
    try:
        parts = sorted((int(tok) for tok in text.split(",")), reverse=True)
    except ValueError as exc:
        raise DomainError(f"cannot parse partition {text!r}") from exc
    return Partition(parts)


def _positive(text):
    """The argparse type of the budget flags; _Parser.error turns a
    rejection into a DomainError that names the flag."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser():
    parser = _Parser(
        prog="hurwitzlab",
        description="Exact branched-cover counts, bracket tables, and "
                    "verification suites.",
    )

    def flag(*args, **kwargs):  # a subcommand takes only the flags it reads
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    fmt = flag("--format", default="text", choices=FORMATS,
               help="output format (default text)")
    cache = flag("--cache-dir", default="",
                 help="directory of the default bracket table, "
                      f"hodge-table.txt (default ${CACHE_ENV_VAR} "
                      "or ~/.cache/hurwitzlab)")
    dfs = flag("--budget-dfs-nodes", type=_positive, default=DFS_NODE_BUDGET,
               help="budget of visited states for the dfs engine")
    dp = flag("--budget-dp-max-d", type=_positive, default=DP_MAX_D,
              help="largest degree for the dp engines, and for the "
                   "grid-point check of hodge and elsv")
    burnside = flag("--budget-burnside-max-d", type=_positive,
                    default=BURNSIDE_MAX_D,
                    help="largest degree for the character-sum engine "
                         "(also in hodge and elsv) and for character tables")
    timing = flag("--timing", action="store_true",
                  help="include elapsed time in output (breaks "
                       "byte-for-byte determinism)")

    sub = parser.add_subparsers(dest="command", required=True)

    # verify and hurwitz store nothing; they take --cache-dir because the
    # benchmark harness passes it to every command
    p = sub.add_parser("hurwitz",
                       parents=[fmt, cache, dfs, dp, burnside, timing],
                       help="compute one cover count")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--genus", type=int, help="connected count of this genus")
    group.add_argument("--euler", type=int,
                       help="disconnected count of this Euler characteristic")
    p.add_argument("--partition", help="ramification profile, e.g. 3,1")
    p.add_argument("--engine", choices=ENGINES,
                   help="counting engine (default burnside)")
    p.add_argument("--batch", help="JSON file with a list of query records; "
                                   "each record names its own query")

    p = sub.add_parser("hodge", parents=[fmt, cache, dp, burnside],
                       help="invert the bracket table for one (genus, marks)")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", type=int, required=True)
    p.add_argument("--table-file", default="",
                   help="bracket table to update (default in the cache dir)")

    p = sub.add_parser("elsv", parents=[fmt, cache, dp, burnside, timing],
                       help="forward-evaluate a cover count from the bracket table")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--table-file", default="")

    p = sub.add_parser("verify", parents=[fmt, cache],
                       help="run a verification suite")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))

    p = sub.add_parser("chartable", parents=[fmt, cache, burnside],
                       help="build and verify a character table; its row "
                            "check is O(p(d)^3): about 2.7 s at d = 18, "
                            "11 s at d = 20")
    p.add_argument("--d", type=int, required=True, dest="degree")

    p = sub.add_parser("export", parents=[cache, burnside],
                       help="print a stored table in its canonical format")
    p.add_argument("--what", required=True, choices=("hodge", "chartable"))
    p.add_argument("--d", type=int, dest="degree",
                   help="degree (for --what chartable only)")
    p.add_argument("--table-file",
                   help="bracket table path (for --what hodge only)")
    p.add_argument("--output", default="", help="write here instead of stdout")

    return parser


def _count_lines(rec):
    """The text rendering of a cover-count record."""
    grading = (f"genus = {rec['genus']}" if "genus" in rec
               else f"euler = {rec['euler']}")
    out = [f"H = {rec['result']}",
           f"engine = {rec['engine']}   d = {rec['d']}  h = {rec['h']}  "
           f"r = {rec['r']}  {grading}"]
    if "elapsed_ms" in rec:
        out.append(f"elapsed = {rec['elapsed_ms']} ms")
    return out


def _csv_writer():
    """The one csv writer of every ``--format csv`` output: it quotes a cell
    that holds a comma, such as a partition or a bracket."""
    import csv  # here, not at start-up: only the csv format needs it
    return csv.writer(sys.stdout, lineterminator="\n")


def _emit(args, doc, rows, lines, indent=None):
    """Print one result in the format of ``--format``: ``doc`` as JSON,
    ``rows`` (header first) as csv, or ``lines`` as text."""
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=indent))
    elif args.format == "csv":
        _csv_writer().writerows(rows)
    else:
        print("\n".join(lines))


def _emit_record(record, args, lines):
    """``_emit`` for a flat record: its sorted keys are the csv header."""
    keys = sorted(record)
    _emit(args, record, [keys, [record[k] for k in keys]], lines)


_QUERY_KEYS = ("genus", "euler", "partition", "engine")
# A batch answer is a flat dict of checked scalars, so the C encoder with
# these separators gives its block of json.dumps(..., indent=2) byte for byte.
_ANSWER = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))


def _batch_query(rec, args):
    """Check one query record, which is outside input (a batch record, or
    the flags of a single query), and run it; return the answer."""
    if not isinstance(rec, dict):
        raise DomainError(f"not a JSON object: {json.dumps(rec)}")
    unknown = set(rec).difference(_QUERY_KEYS)
    if unknown:
        raise DomainError(f"unknown keys {', '.join(sorted(unknown))}")
    if ("genus" in rec) == ("euler" in rec):
        raise DomainError("provide exactly one of genus/euler")
    key = "genus" if "genus" in rec else "euler"
    if type(rec[key]) is not int:  # a JSON bool is not an integer
        raise DomainError(f"{key} is not an integer: {json.dumps(rec[key])}")
    partition = rec.get("partition", "")
    if not isinstance(partition, str):
        raise DomainError(
            f"partition is not a string such as \"3,1\": {json.dumps(partition)}")
    engine = rec.get("engine", "burnside")
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}")
    mu = _parse_partition(partition)
    genus, euler, d, h = rec.get("genus"), rec.get("euler"), mu.size, mu.length
    started = time.perf_counter()
    if genus is not None:
        r = 2 * genus - 2 + d + h
        if engine == "dfs":
            value = connected_dfs(genus, mu, node_budget=args.budget_dfs_nodes)
        else:
            value = connected_via_transform(
                genus, mu, engine, dp_max_d=args.budget_dp_max_d,
                burnside_max_d=args.budget_burnside_max_d)
    else:
        r = -euler + d + h
        if engine == "dfs":
            raise DomainError(
                "the dfs engine counts connected covers; "
                "use --genus with it, or pick dp/burnside for --euler"
            )
        if engine == "dp":
            value = disconnected_dp(euler, mu, max_d=args.budget_dp_max_d)
        else:
            value = disconnected_burnside(
                euler, mu, max_d=args.budget_burnside_max_d)
    answer = {"result": str(value), "engine": engine, "d": d, "h": h, "r": r,
              key: rec[key]}
    if args.timing:
        answer["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return answer


def _cmd_hurwitz(args):
    flags = {k: getattr(args, k) for k in _QUERY_KEYS
             if getattr(args, k) is not None}
    if not args.batch:
        answer = _batch_query(flags, args)
        _emit_record(answer, args, _count_lines(answer))
        return 0
    if flags:
        raise DomainError(f"{', '.join('--' + k for k in flags)} cannot be "
                          "combined with --batch: each record names its own query")
    try:
        with open(args.batch, encoding="utf-8") as fh:
            records = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read batch file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"batch file is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DomainError("batch file must hold a JSON list of records")
    as_csv = args.format == "csv"
    answers = []
    for i, rec in enumerate(records):
        try:
            answer = _batch_query(rec, args)
        except DomainError as exc:
            raise DomainError(f"record {i}: {exc}") from exc
        answer = {**rec, **answer}
        # keep only what is printed: the csv row, or the answer's JSON block
        records[i] = None
        answers.append(answer if as_csv else
                       "  {\n    " + _ANSWER.encode(answer)[1:-1] + "\n  }")
    if as_csv:
        keys = sorted({k for rec in answers for k in rec})
        out = _csv_writer()
        out.writerow(keys)
        out.writerows([rec.get(k, "") for k in keys] for rec in answers)
        return 0
    # what json.dumps(..., sort_keys=True, indent=2) gives, piece by piece
    sep = "[\n"
    for block in answers:
        sys.stdout.write(sep)
        sys.stdout.write(block)
        sep = ",\n"
    sys.stdout.write("\n]\n" if answers else "[]\n")
    return 0


def _table_path(args):
    return args.table_file or os.path.join(_cache_dir(args), "hodge-table.txt")


def _read_table(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return hodge_import(fh.read())


def _load_table(path):
    """The bracket table at ``path``.  A missing or unparsable file is a cache
    miss: an empty table, which the caller fills and writes back."""
    try:
        return _read_table(path)
    except (FileNotFoundError, DomainError):
        return HodgeTable()


def _refresh(path, table, g, h, args):
    """Invert the (g, h) block into ``table`` and write the table to
    ``path``; return the ``InversionResult``."""
    result = invert_into(table, g, h, args.budget_dp_max_d,
                         args.budget_burnside_max_d)
    write_atomic(path, hodge_export(table))
    return result


def _cmd_hodge(args):
    path = _table_path(args)
    result = _refresh(path, _load_table(path), args.genus, args.marks, args)
    entries = sorted(result.brackets.items(), key=lambda kv: kv[0].sort_key())
    width = max(len(str(b)) for b, _ in entries)
    _emit(args,
          {"genus": args.genus, "marks": args.marks, "table_file": path,
           "entries": [{"bracket": str(b), "value": str(v)} for b, v in entries]},
          [("bracket", "value"), *entries],
          [f"{str(b):<{width}}  {v}" for b, v in entries]
          + [f"table updated: {path}"])
    return 0


def _cmd_elsv(args):
    mu = _parse_partition(args.partition)
    g, h = args.genus, mu.length
    path = _table_path(args)
    table = _load_table(path)
    # every m_J is positive at the all-ones profile, so a changed bracket
    # changes this value: a stored block must match the character-free count
    ones = Partition((1,) * h)
    if not (table.has_all_for(g, h) and elsv_evaluate(g, ones, table)
            == connected_dp(g, ones, max_d=args.budget_dp_max_d)):
        _refresh(path, table, g, h, args)
    started = time.perf_counter()
    value = elsv_evaluate(g, mu, table)
    record = {
        "result": str(value),
        "engine": "elsv",
        "d": mu.size,
        "h": h,
        "r": 2 * g - 2 + mu.size + h,
        "genus": g,
    }
    if args.timing:
        record["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _emit_record(record, args, _count_lines(record))
    return 0


def _cmd_verify(args):
    results = run_suite(args.suite)
    passed = sum(1 for r in results if r.passed)
    _emit(args, [r._asdict() for r in results],
          [("suite", "name", "passed", "detail"), *results],  # a check is its row
          [r.line() for r in results] + [f"{passed}/{len(results)} checks passed"],
          indent=2)
    return 0 if passed == len(results) else 3


def _cmd_chartable(args):
    table = build_table(args.degree, max_d=args.budget_burnside_max_d)
    # nothing is stored there, but scripts that prepared the cache directory
    # with chartable (perfbench's set-up removes it afterwards) still find it
    os.makedirs(_cache_dir(args), exist_ok=True)
    classes = len(table.partitions)
    _emit_record({"d": table.d, "classes": classes}, args, [
        f"character table d = {table.d}: {classes} classes, "
        "row orthogonality verified"])
    return 0


def _cmd_export(args):
    if args.what == "hodge":
        if args.degree is not None:
            raise DomainError("--d is for --what chartable")
        path = _table_path(args)
        if not os.path.exists(path):
            raise DomainError(f"no bracket table at {path}; run 'hodge' first")
        document = hodge_export(_read_table(path))
    else:
        if args.table_file is not None:
            raise DomainError("--table-file is for --what hodge")
        if args.degree is None:
            raise DomainError("--what chartable needs --d")
        document = build_table(args.degree, args.budget_burnside_max_d).to_text()
    if args.output:
        write_atomic(args.output, document)
    else:
        sys.stdout.write(document)
    return 0


_COMMANDS = {
    "hurwitz": _cmd_hurwitz,
    "hodge": _cmd_hodge,
    "elsv": _cmd_elsv,
    "verify": _cmd_verify,
    "chartable": _cmd_chartable,
    "export": _cmd_export,
}


def main(argv=None):
    # an exact count may run past the 4300 digits that int -> str allows
    getattr(sys, "set_int_max_str_digits", lambda n: None)(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: point fd 1 at devnull so that the flush at
        # interpreter exit finds somewhere to write and stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written",
              file=sys.stderr)
        return 1
    except OSError as exc:  # a file or directory that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except HurwitzlabError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
