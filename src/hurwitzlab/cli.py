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
from dataclasses import dataclass, fields

from .errors import ConsistencyError, DomainError, HurwitzlabError, ResourceLimitError
from .hodge import (
    HodgeTable,
    burnside_engine,
    elsv_evaluate,
    elsv_inversion,
    hodge_export,
    hodge_import,
    sample_candidates,
)
from .hurwitz import (
    BURNSIDE_MAX_D,
    DFS_NODE_BUDGET,
    DP_MAX_D,
    _engine_callable,
    connected_dfs,
    connected_dp,
    connected_via_transform,
)
from .partitions import Partition
from .symgroup import build_table
from .verify import run_suite

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


def default_cache_dir():
    return os.environ.get(CACHE_ENV_VAR) or os.path.join(
        os.path.expanduser("~"), ".cache", "hurwitzlab"
    )


@dataclass
class RunConfig:
    dfs_node_budget: int = DFS_NODE_BUDGET
    dp_max_d: int = DP_MAX_D
    burnside_max_d: int = BURNSIDE_MAX_D
    cache_dir: str = ""
    output_format: str = "text"
    timing: bool = False

    def __post_init__(self):
        if not self.cache_dir:
            self.cache_dir = default_cache_dir()
        for name in ("dfs_node_budget", "dp_max_d", "burnside_max_d"):
            if getattr(self, name) <= 0:
                raise DomainError(f"budget {name} must be positive")
        if self.output_format not in FORMATS:
            raise DomainError(f"unknown output format {self.output_format!r}")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**data)


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


def _build_parser():
    parser = _Parser(
        prog="hurwitzlab",
        description="Exact branched-cover counts, bracket tables, and "
                    "verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="text", choices=FORMATS,
                        help="output format (default text)")
    common.add_argument("--cache-dir", default="",
                        help="directory of the default bracket table, "
                             f"hodge-table.txt (default ${CACHE_ENV_VAR} "
                             "or ~/.cache/hurwitzlab)")
    common.add_argument("--budget-dfs-nodes", type=int, default=DFS_NODE_BUDGET,
                        help="budget of visited states for the dfs engine")
    common.add_argument("--budget-dp-max-d", type=int, default=DP_MAX_D,
                        help="largest degree for the dp engine "
                             "(cycle-type recursion)")
    common.add_argument("--budget-burnside-max-d", type=int,
                        default=BURNSIDE_MAX_D,
                        help="largest degree for the character-sum engine, "
                             "and for chartable and export --what chartable")
    common.add_argument("--timing", action="store_true",
                        help="include elapsed time in output (breaks "
                             "byte-for-byte determinism)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", parents=[common],
                       help="compute one cover count")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--genus", type=int, help="connected count of this genus")
    group.add_argument("--euler", type=int,
                       help="disconnected count of this Euler characteristic")
    p.add_argument("--partition", help="ramification profile, e.g. 3,1")
    p.add_argument("--engine", default="burnside", choices=ENGINES)
    p.add_argument("--batch", help="JSON file with a list of query records")

    p = sub.add_parser("hodge", parents=[common],
                       help="invert the bracket table for one (genus, marks)")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", type=int, required=True)
    p.add_argument("--table-file", default="",
                   help="bracket table to update (default in the cache dir)")

    p = sub.add_parser("elsv", parents=[common],
                       help="forward-evaluate a cover count from the bracket table")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--table-file", default="")

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=("elsv", "burnside", "grr", "string",
                            "localization", "all"))

    p = sub.add_parser("chartable", parents=[common],
                       help="build and verify a character table; its row "
                            "check is O(p(d)^3): about 3 s at d = 18, "
                            "10 s at d = 20")
    p.add_argument("--d", type=int, required=True, dest="degree")

    p = sub.add_parser("export", parents=[common],
                       help="print a stored table in its canonical format")
    p.add_argument("--what", required=True, choices=("hodge", "chartable"))
    p.add_argument("--d", type=int, dest="degree",
                   help="degree (for --what chartable)")
    p.add_argument("--table-file", default="",
                   help="bracket table path (for --what hodge)")
    p.add_argument("--output", default="", help="write here instead of stdout")

    return parser


def _config_from_args(args):
    return RunConfig(
        dfs_node_budget=args.budget_dfs_nodes,
        dp_max_d=args.budget_dp_max_d,
        burnside_max_d=args.budget_burnside_max_d,
        cache_dir=args.cache_dir,
        output_format=args.format,
        timing=args.timing,
    )


def _emit(record, config, text_lines):
    """Render one result record in the configured format."""
    if config.output_format == "json":
        print(json.dumps(record, sort_keys=True))
    elif config.output_format == "csv":
        keys = sorted(record)
        print(",".join(keys))
        print(",".join(str(record[k]) for k in keys))
    else:
        for line in text_lines(record):
            print(line)


def _run_query(engine, genus, euler, mu, config):
    d, h = mu.size, mu.length
    engine_opts = {
        "dp_max_d": config.dp_max_d,
        "burnside_max_d": config.burnside_max_d,
    }
    started = time.perf_counter()
    if genus is not None:
        r = 2 * genus - 2 + d + h
        if engine == "dfs":
            value = connected_dfs(genus, mu, node_budget=config.dfs_node_budget)
        else:
            value = connected_via_transform(genus, mu, engine, **engine_opts)
    else:
        r = -euler + d + h
        if engine == "dfs":
            raise DomainError(
                "the dfs engine counts connected covers; "
                "use --genus with it, or pick dp/burnside for --euler"
            )
        value = _engine_callable(engine, **engine_opts)(euler, mu)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    record = {
        "result": str(value),
        "engine": engine,
        "d": d,
        "h": h,
        "r": r,
    }
    if genus is not None:
        record["genus"] = genus
    else:
        record["euler"] = euler
    if config.timing:
        record["elapsed_ms"] = round(elapsed_ms, 3)
    return record


def _cmd_hurwitz(args, config):
    if args.batch:
        return _cmd_hurwitz_batch(args, config)
    if args.genus is None and args.euler is None:
        raise DomainError("provide exactly one of --genus or --euler")
    if not args.partition:
        raise DomainError("--partition is required")
    mu = _parse_partition(args.partition)
    record = _run_query(args.engine, args.genus, args.euler, mu, config)

    def lines(rec):
        out = [f"H = {rec['result']}"]
        meta = f"engine = {rec['engine']}   d = {rec['d']}  h = {rec['h']}  r = {rec['r']}"
        if "genus" in rec:
            meta += f"  genus = {rec['genus']}"
        else:
            meta += f"  euler = {rec['euler']}"
        out.append(meta)
        if "elapsed_ms" in rec:
            out.append(f"elapsed = {rec['elapsed_ms']} ms")
        return out

    _emit(record, config, lines)
    return 0


_BATCH_KEYS = {"engine", "genus", "euler", "partition"}


def _cmd_hurwitz_batch(args, config):
    try:
        with open(args.batch, encoding="utf-8") as fh:
            records = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read batch file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"batch file is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DomainError("batch file must hold a JSON list of records")
    results = []
    for i, rec in enumerate(records):
        unknown = set(rec) - _BATCH_KEYS
        if unknown:
            raise DomainError(
                f"record {i}: unknown keys {', '.join(sorted(unknown))}"
            )
        if ("genus" in rec) == ("euler" in rec):
            raise DomainError(f"record {i}: provide exactly one of genus/euler")
        engine = rec.get("engine", "burnside")
        if engine not in ENGINES:
            raise DomainError(f"record {i}: unknown engine {engine!r}")
        mu = _parse_partition(rec.get("partition", ""))
        out = dict(rec)
        out.update(
            _run_query(engine, rec.get("genus"), rec.get("euler"), mu, config)
        )
        results.append(out)
    if config.output_format == "csv":
        keys = sorted({k for rec in results for k in rec})
        print(",".join(keys))
        for rec in results:
            print(",".join(str(rec.get(k, "")) for k in keys))
    else:
        print(json.dumps(results, sort_keys=True, indent=2))
    return 0


def _table_path(args, config):
    return args.table_file or os.path.join(config.cache_dir, "hodge-table.txt")


def _load_table(path):
    """The bracket table at ``path``.  A missing or unparsable file is a cache
    miss: an empty table, which the caller fills and writes back."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return hodge_import(fh.read())
    except (FileNotFoundError, DomainError):
        return HodgeTable()


def _invert_block(table, g, h, config):
    """Replace the (g, h) block of ``table`` by a fresh inversion."""
    engine = burnside_engine(config.burnside_max_d)
    result = elsv_inversion(g, h, hurwitz_engine=engine)
    table.drop(g, h)
    for bracket, value in result.brackets.items():
        table.add(bracket, value)
    return result


def _cmd_hodge(args, config):
    if 2 * args.genus - 2 + args.marks <= 0:
        raise DomainError(
            f"unstable (g, h) = ({args.genus}, {args.marks}): no moduli to "
            "integrate over"
        )
    path = _table_path(args, config)
    table = _load_table(path)
    result = _invert_block(table, args.genus, args.marks, config)
    write_atomic(path, hodge_export(table))

    entries = sorted(result.brackets.items(), key=lambda kv: kv[0].sort_key())
    if config.output_format == "json":
        print(json.dumps(
            {
                "genus": args.genus,
                "marks": args.marks,
                "entries": [
                    {"bracket": str(b), "value": str(v)} for b, v in entries
                ],
                "table_file": path,
            },
            sort_keys=True,
        ))
    elif config.output_format == "csv":
        print("bracket,value")
        for b, v in entries:
            print(f"{b},{v}")
    else:
        width = max(len(str(b)) for b, _ in entries)
        for b, v in entries:
            print(f"{str(b):<{width}}  {v}")
        print(f"table updated: {path}")
    return 0


def _cmd_elsv(args, config):
    mu = _parse_partition(args.partition)
    g, h = args.genus, mu.length
    if 2 * g - 2 + h <= 0:
        raise DomainError(f"unstable (g, h) = ({g}, {h})")
    path = _table_path(args, config)
    table = _load_table(path)
    # every m_J is positive at the all-ones profile, so a changed bracket
    # changes this value: a stored block must match the character-free count
    ones = next(sample_candidates(g, h))
    if not (table.has_all_for(g, h) and elsv_evaluate(g, ones, table)
            == connected_dp(g, ones, max_d=config.dp_max_d)):
        _invert_block(table, g, h, config)
        write_atomic(path, hodge_export(table))
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
    if config.timing:
        record["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)

    def lines(rec):
        return [
            f"H = {rec['result']}",
            f"engine = elsv   d = {rec['d']}  h = {rec['h']}  r = {rec['r']}"
            f"  genus = {rec['genus']}",
        ]

    _emit(record, config, lines)
    return 0


def _cmd_verify(args, config):
    results = run_suite(args.suite)
    if config.output_format == "json":
        print(json.dumps(
            [
                {
                    "suite": r.suite,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
            sort_keys=True, indent=2,
        ))
    else:
        for r in results:
            print(r.line())
        passed = sum(1 for r in results if r.passed)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 3


def _cmd_chartable(args, config):
    table = build_table(args.degree, max_d=config.burnside_max_d)
    # nothing is stored there, but scripts that prepared the cache directory
    # with chartable (perfbench's set-up removes it afterwards) still find it
    os.makedirs(config.cache_dir, exist_ok=True)
    record = {"d": table.d, "classes": len(table.partitions)}

    def lines(rec):
        return [
            f"character table d = {rec['d']}: {rec['classes']} classes, "
            "row orthogonality verified",
        ]

    _emit(record, config, lines)
    return 0


def _cmd_export(args, config):
    if args.what == "hodge":
        path = _table_path(args, config)
        if not os.path.exists(path):
            raise DomainError(f"no bracket table at {path}; run 'hodge' first")
        with open(path, encoding="utf-8", errors="replace") as fh:
            document = hodge_export(hodge_import(fh.read()))
    else:
        if args.degree is None:
            raise DomainError("--what chartable needs --d")
        document = build_table(args.degree, config.burnside_max_d).to_text()
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return _COMMANDS[args.command](args, config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except HurwitzlabError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
