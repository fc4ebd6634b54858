"""End-to-end benchmark of the hurwitzlab CLI.

    python3 perfbench/run.py --workload verify|hodge|batch --seed N \
        --seconds S --trace 0|1 [--out FILE]

One driver process runs one CLI child at a time (through spawner.py), in
fresh interpreters, the way users run the tool.  Set-up cold-fills a
character-table cache private to the run (``chartable --d k`` for
k = 1..14) and writes the seeded inputs; it is repeated SETUP_REPEATS times
and ``setup_s`` is the median.  The workload then runs in whole iterations
until ``--seconds`` have passed.  Each iteration's wall time, its children's
CPU time and their largest max-RSS come from ``wait4``; the run reports the
median of each over its iterations.  Every output
is checked against an exact expected value computed before the timed region
(see README.md for where each value comes from).

With ``--trace 1`` the run alternates untraced iterations with iterations in
which every child runs under ``tracehook.py``, and reports per-layer span
totals plus the tracing overhead instead of the end-to-end metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
EXPECTED_FILE = HERE / "expected.json"

sys.path.insert(0, str(SRC))
try:
    from hurwitzlab.hodge import HodgeBracket
    from hurwitzlab.hurwitz import connected_via_transform, disconnected_burnside
    from hurwitzlab.partitions import Partition, partitions_of
except ImportError as exc:  # main() reports it and exits non-zero
    LIBRARY_ERROR = exc
else:
    LIBRARY_ERROR = None

WORKLOADS = ("verify", "hodge", "batch")
SETUP_REPEATS = 3
CHARTABLE_DEGREES = range(1, 15)
#: Children are killed, and the run reports a failure, past this many
#: seconds after the driver started; the whole run must end within 180 s.
RUN_DEADLINE_S = 150

CLI_SHIM = "import sys; from hurwitzlab.cli import main; sys.exit(main())"

HODGE_PAIRS = ((1, 5), (2, 4), (3, 3))
#: elsv read-back queries stay at |mu| <= 7 so the dp engine can check them.
ELSV_MAX_D = 7
#: lambda_g coefficients, sum_g b_g t^(2g) = (t/2) / sin(t/2).
LAMBDA_G = {1: Fraction(1, 24), 2: Fraction(7, 5760), 3: Fraction(31, 967680)}

#: Batch strata.  The counts are fixed; the seed only picks profiles and r
#: inside each stratum, so the mix of work does not move with the seed.
BATCH_DP = {5: 100, 6: 100, 7: 100}             # disconnected, dp
BATCH_DP_MAX_R = 14
BATCH_BURNSIDE = {d: 60 for d in range(8, 15)}  # disconnected, burnside
BATCH_BURNSIDE_R_STEPS = 3                      # r = d - h + 2k, k < steps
BATCH_CONNECTED_CELLS = [(d, g) for d in (4, 5, 6) for g in (0, 1, 2)]
BATCH_CONNECTED_PER_CELL = 6                    # per engine, dp and burnside
BATCH_DFS = 24
BATCH_DFS_MAX_R = 6


# ---------------------------------------------------------------------------
# children


@dataclass
class Child:
    args: list
    started: float
    ended: float
    exitcode: int
    cpu_s: float
    maxrss_kb: int
    out_path: Path
    trace_path: Path = None
    stdout: str = ""
    trace: dict = None

    def collect(self):
        """Read the child's output and spans; done after the timed region."""
        self.stdout = self.out_path.read_text(encoding="utf-8", errors="replace")
        if self.trace_path is not None and self.trace_path.exists():
            self.trace = json.loads(self.trace_path.read_text(encoding="utf-8"))
        return self


class Deadline(Exception):
    """A child ran past the run's deadline and was killed."""


class Spawner:
    """Runs children one at a time through spawner.py, which times them and
    keeps their max-RSS free of this process's own (see its docstring)."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )

    def spawn(self, argv, env, stem, trace_path=None):
        """Run ``python3 argv...`` to completion, with stdout and stderr in
        ``stem``.out and ``stem``.err."""
        out_path = stem.with_suffix(".out")
        if trace_path is not None:
            env = dict(env, PERFBENCH_TRACE_OUT=str(trace_path))
        request = {
            "argv": [sys.executable] + [str(a) for a in argv], "env": env,
            "out": str(out_path), "err": str(stem.with_suffix(".err")),
            "timeout": self.deadline - time.perf_counter(),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply.get("timeout"):
            raise Deadline(argv)
        return Child(
            args=argv, started=reply["started"], ended=reply["ended"],
            exitcode=reply["status"], cpu_s=reply["cpu_s"],
            maxrss_kb=reply["maxrss_kb"], out_path=out_path,
            trace_path=trace_path,
        )

    def close(self, kill=False):
        """Stop the spawner: at once, with any child it runs, if ``kill``."""
        self.proc.stdin.close()  # the spawner exits at end of input
        try:
            self.proc.wait(timeout=0.1 if kill else None)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)


# ---------------------------------------------------------------------------
# checks: each takes a finished child and returns (attempted, failed)


def _load_json(child):
    if child.exitcode != 0:
        return None
    try:
        return json.loads(child.stdout)
    except json.JSONDecodeError:
        return None


def check_verify(pinned):
    def check(child):
        out = _load_json(child)
        if not isinstance(out, list):
            return len(pinned), len(pinned)
        got = {(r["suite"], r["name"]): r for r in out}
        failed = 0
        for suite, name, detail in pinned:
            r = got.get((suite, name))
            if r is None or r["passed"] is not True or r["detail"] != detail:
                failed += 1
        extra = [r for key, r in got.items()
                 if key not in {(s, n) for s, n, _ in pinned}]
        failed += sum(1 for r in extra if r["passed"] is not True)
        return len(pinned) + len(extra), failed
    return check


def check_hodge(g, h, entries):
    """``entries`` is the pinned [bracket, value] list; lambda_g brackets are
    also held to the closed form."""
    closed = {}
    for bracket, _ in entries:
        b = HodgeBracket.from_string(bracket)
        if b.lam == g:
            multinom = factorial(sum(b.psi)) // prod(factorial(j) for j in b.psi)
            closed[bracket] = str(multinom * LAMBDA_G[g])

    def check(child):
        out = _load_json(child)
        if not isinstance(out, dict) or (out.get("genus"), out.get("marks")) != (g, h):
            return len(entries), len(entries)
        got = {e["bracket"]: e["value"] for e in out["entries"]}
        failed = sum(
            1 for bracket, value in entries
            if got.get(bracket) != value
            or closed.get(bracket, value) != got.get(bracket)
        )
        failed += len(set(got) - {b for b, _ in entries})
        return max(len(entries), len(got)), failed
    return check


def check_value(expected):
    def check(child):
        out = _load_json(child)
        ok = isinstance(out, dict) and out.get("result") == expected
        return 1, 0 if ok else 1
    return check


def check_batch(expected):
    def check(child):
        out = _load_json(child)
        if not isinstance(out, list) or len(out) != len(expected):
            return len(expected), len(expected)
        failed = sum(1 for rec, want in zip(out, expected)
                     if rec.get("result") != want)
        return len(expected), failed
    return check


# ---------------------------------------------------------------------------
# workloads: set-up writes the seeded inputs; plan() computes the expected
# values (untimed) and returns a function giving each iteration's commands


def _cli(*args):
    return ["-c", CLI_SHIM] + [str(a) for a in args]


class Workload:
    def __init__(self, seed, cache, work):
        self.seed, self.cache, self.work = seed, cache, work

    def setup(self):
        """Write the seeded inputs (timed as part of set-up)."""

    def plan(self, pins):
        """Return a function mapping an iteration directory to a list of
        (argv, check) pairs."""
        raise NotImplementedError


class VerifyWorkload(Workload):
    # The verify suites are fixed; the seed has no input to choose here.
    def plan(self, pins):
        check = check_verify(pins["verify"])
        args = _cli("verify", "--suite", "all", "--format", "json",
                    "--cache-dir", self.cache)
        return lambda it_dir: [(args, check)]


def elsv_queries(seed):
    """One seeded elsv query per Hodge pair, |mu| <= ELSV_MAX_D, read back
    from the table the hodge runs just wrote."""
    rng = random.Random(seed)
    out = []
    for g, h in HODGE_PAIRS:
        pool = [mu for d in range(h, ELSV_MAX_D + 1)
                for mu in partitions_of(d) if mu.length == h]
        out.append((g, rng.choice(pool)))
    return out


class HodgeWorkload(Workload):
    def setup(self):
        self.queries = elsv_queries(self.seed)

    def plan(self, pins):
        hodge = [(g, h, check_hodge(g, h, pins["hodge"][f"{g},{h}"]))
                 for g, h in HODGE_PAIRS]
        elsv = [(g, mu, check_value(str(connected_via_transform(g, mu, "dp"))))
                for g, mu in self.queries]

        def commands(it_dir):
            table = it_dir / "hodge-table.txt"  # fresh for every iteration
            cmds = [(_cli("hodge", "--genus", g, "--marks", h, "--format",
                          "json", "--cache-dir", self.cache,
                          "--table-file", table), check)
                    for g, h, check in hodge]
            cmds += [(_cli("elsv", "--genus", g, "--partition", str(mu),
                           "--format", "json", "--cache-dir", self.cache,
                           "--table-file", table), check)
                     for g, mu, check in elsv]
            return cmds
        return commands


def batch_records(seed):
    """The seeded batch: (kind, record) pairs in a fixed stratum order."""
    rng = random.Random(seed)
    out = []
    for d, count in BATCH_DP.items():
        for _ in range(count):
            mu = rng.choice(partitions_of(d))
            h = mu.length
            r = rng.choice(range(d - h, BATCH_DP_MAX_R + 1, 2))
            out.append(("dp", {"engine": "dp", "euler": d + h - r,
                               "partition": str(mu)}))
    for d, count in BATCH_BURNSIDE.items():
        for _ in range(count):
            mu = rng.choice(partitions_of(d))
            h = mu.length
            r = d - h + 2 * rng.randrange(BATCH_BURNSIDE_R_STEPS)
            out.append(("burnside", {"engine": "burnside", "euler": d + h - r,
                                     "partition": str(mu)}))
    for engine in ("dp", "burnside"):
        for d, g in BATCH_CONNECTED_CELLS:
            for _ in range(BATCH_CONNECTED_PER_CELL):
                mu = rng.choice(partitions_of(d))
                out.append((f"connected-{engine}",
                            {"engine": engine, "genus": g, "partition": str(mu)}))
    dfs_pool = [(g, mu) for d in range(1, 5) for mu in partitions_of(d)
                for g in range(3)
                if 0 <= 2 * g - 2 + d + mu.length <= BATCH_DFS_MAX_R]
    for _ in range(BATCH_DFS):
        g, mu = rng.choice(dfs_pool)
        out.append(("dfs", {"engine": "dfs", "genus": g, "partition": str(mu)}))
    return out


def burnside_pin_key(record):
    return f"{record['euler']}|{record['partition']}"


def batch_expected(records, pins, cache):
    """Expected result of each record, by a second route where one is cheap:
    dp against burnside and back, dfs against the dp transform, and pinned
    values for burnside at d >= 8, beyond the dp engine's reach."""
    out = []
    for kind, rec in records:
        mu = Partition([int(t) for t in rec["partition"].split(",")])
        if kind == "dp":
            value = disconnected_burnside(rec["euler"], mu, cache_dir=cache)
        elif kind == "burnside":
            value = pins["burnside"][burnside_pin_key(rec)]
        elif kind == "connected-dp":
            value = connected_via_transform(rec["genus"], mu, "burnside",
                                            cache_dir=cache)
        else:  # connected-burnside, dfs
            value = connected_via_transform(rec["genus"], mu, "dp")
        out.append(str(value))
    return out


class BatchWorkload(Workload):
    def setup(self):
        self.records = batch_records(self.seed)
        self.batch_file = self.work / "batch.json"
        self.batch_file.write_text(
            json.dumps([rec for _, rec in self.records]), encoding="utf-8")

    def plan(self, pins):
        check = check_batch(batch_expected(self.records, pins, self.cache))
        args = _cli("hurwitz", "--batch", self.batch_file, "--format", "json",
                    "--cache-dir", self.cache)
        return lambda it_dir: [(args, check)]


WORKLOAD_CLASSES = {"verify": VerifyWorkload, "hodge": HodgeWorkload,
                    "batch": BatchWorkload}


# ---------------------------------------------------------------------------
# set-up and iterations


def child_env(cache):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["HURWITZLAB_CACHE_DIR"] = str(cache)  # never ~/.cache/hurwitzlab
    return env


def fill_cache(spawner, cache, env, work):
    for d in CHARTABLE_DEGREES:
        child = spawner.spawn(_cli("chartable", "--d", d, "--format", "json",
                                   "--cache-dir", cache), env, work / "chartable")
        out = _load_json(child.collect())
        if not out or out.get("classes") != len(partitions_of(d)):
            raise SystemExit(f"set-up failed: chartable --d {d} exited "
                             f"{child.exitcode}")


def set_up(spawner, name, seed, work):
    """Cold-fill a fresh private cache and write the inputs, SETUP_REPEATS
    times; return the last workload and every set-up time."""
    times = []
    for rep in range(SETUP_REPEATS):
        cache = work / f"cache-{rep}"
        env = child_env(cache)
        started = time.perf_counter()
        fill_cache(spawner, cache, env, work)
        workload = WORKLOAD_CLASSES[name](seed, cache, work)
        workload.setup()
        times.append(time.perf_counter() - started)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(cache)
    return workload, env, times


@dataclass
class Iteration:
    traced: bool
    children: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self):
        return self.children[-1].ended - self.children[0].started

    @property
    def cpu_s(self):
        return sum(c.cpu_s for c in self.children)

    @property
    def peak_rss_mb(self):
        return max(c.maxrss_kb for c in self.children) / 1024.0


def run_iteration(spawner, commands, env, it_dir, traced):
    it_dir.mkdir(parents=True)
    it = Iteration(traced=traced)
    cmds = commands(it_dir)
    for k, (argv, _) in enumerate(cmds):
        trace_path = None
        if traced:
            trace_path = it_dir / f"trace-{k}.json"
            argv = [str(HERE / "tracehook.py")] + argv[2:]  # not CLI_SHIM
        it.children.append(
            spawner.spawn(argv, env, it_dir / f"child-{k}", trace_path))
    for child, (_, check) in zip(it.children, cmds):
        attempted, failed = check(child.collect())
        it.attempted += attempted
        it.failed += failed
    shutil.rmtree(it_dir)
    return it


# ---------------------------------------------------------------------------
# per-layer aggregation of spans


@dataclass
class LayerStats:
    calls: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)   # outermost spans only
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    startup: list = field(default_factory=list)
    processes: int = 0


def layer_stats(it):
    stats = LayerStats()
    for child in it.children:
        doc = child.trace
        if doc is None:
            continue
        stats.processes += 1
        stats.startup.append(doc["main_started"] - child.started)
        stats.counters.update(doc["counters"])
        names, spans = doc["names"], doc["spans"]
        covered = [0.0] * len(spans)
        for code, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (code, start, end, parent) in enumerate(spans):
            name = names[code]
            stats.calls[name] += 1
            stats.self_s[name] += end - start - covered[i]
            while parent >= 0 and spans[parent][0] != code:
                parent = spans[parent][3]
            if parent < 0:
                stats.total[name] += end - start
    return stats


def _calls(span):
    return "count", lambda s: s.calls[span]


def _total(*spans):
    return "s", lambda s: sum(s.total[x] for x in spans)


def _self(span):
    return "s", lambda s: s.self_s[span]


def _counter(key):
    return "count", lambda s: s.counters[key]


PER_LAYER = {
    "hurwitz.connected_dfs.calls": _calls("hurwitz.connected_dfs"),
    "hurwitz.connected_dfs.s": _total("hurwitz.connected_dfs"),
    "hurwitz.log.calls": _calls("hurwitz.log"),
    "hurwitz.log.s": _total("hurwitz.log"),
    "hurwitz.mul.calls": _calls("hurwitz.mul"),
    "hurwitz.disconnected_series.s": _self("hurwitz.disconnected_series"),
    "hurwitz.connected_via_transform.calls": _calls("hurwitz.connected_via_transform"),
    "hurwitz.connected_via_transform.s": _self("hurwitz.connected_via_transform"),
    "hurwitz.disconnected_burnside.calls": _calls("hurwitz.disconnected_burnside"),
    "hurwitz.disconnected_burnside.s": _total("hurwitz.disconnected_burnside"),
    "hurwitz.disconnected_dp.calls": _calls("hurwitz.disconnected_dp"),
    "hurwitz.disconnected_dp.s": _total("hurwitz.disconnected_dp"),
    "symgroup.chi.calls": _calls("symgroup.chi"),
    "symgroup.build_table.calls": _calls("symgroup.build_table"),
    "symgroup.build_table.s": _total("symgroup.build_table"),
    "symgroup.from_text.calls": _calls("symgroup.from_text"),
    "symgroup.verify.s": _total("symgroup.verify"),
    "symgroup.character.calls": _calls("symgroup.character"),
    "hodge.elsv_inversion.calls": _calls("hodge.elsv_inversion"),
    "hodge.elsv_inversion.s": _total("hodge.elsv_inversion"),
    "hodge.elsv_inversion.self_s": _self("hodge.elsv_inversion"),
    "hodge.grid_rows": _counter("hodge.grid_rows"),
    "hodge.monomial_symmetric.s": _total("hodge.monomial_symmetric"),
    "hodge.spot_checks_run": _counter("hodge.spot_checks_run"),
    "hodge.spot_checks_skipped": _counter("hodge.spot_checks_skipped"),
    "hodge.elsv_evaluate.s": _total("hodge.elsv_evaluate"),
    "hodge.table_io.s": _total("hodge.hodge_import", "hodge.hodge_export"),
    "eqcoh.elsv_via_localization.calls": _calls("eqcoh.elsv_via_localization"),
    "eqcoh.elsv_via_localization.s": _total("eqcoh.elsv_via_localization"),
    "eqcoh.grr_localization_check.calls": _calls("eqcoh.grr_localization_check"),
    "eqcoh.grr_localization_check.s": _total("eqcoh.grr_localization_check"),
    **{f"verify.suite.{suite}.s": _total(f"verify.suite.{suite}")
       for suite in ("burnside", "elsv", "grr", "localization", "string")},
    "verify.checks_passed": _counter("verify.checks_passed"),
    "verify.checks_total": _counter("verify.checks_total"),
    "cli.processes": ("count", lambda s: s.processes),
    "cli.startup_s": ("s", lambda s: statistics.median(s.startup or [0.0])),
    "cli.main.self_s": _self("cli.main"),
}


# ---------------------------------------------------------------------------
# main


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(spawner, name, seed, seconds, traced, work):
    workload, env, setup_times = set_up(spawner, name, seed, work)
    pins = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    commands = workload.plan(pins)

    iterations = []
    started = last = time.perf_counter()
    while True:
        # Start an iteration only if it should end within --seconds, judging
        # by the last one, so that a slow phase of the machine does not
        # stretch the run.  A traced run needs an untraced and a traced one.
        now = time.perf_counter()
        if (len(iterations) >= (2 if traced else 1)
                and (now - started) + (now - last) > seconds):
            break
        if now > spawner.deadline - 30:
            break
        # a traced run alternates untraced and traced iterations, so the
        # overhead is measured under the same conditions
        it_traced = traced and len(iterations) % 2 == 1
        last = now
        iterations.append(run_iteration(
            spawner, commands, env, work / f"it-{len(iterations)}", it_traced))
    return setup_times, iterations


def summarize(name, setup_times, iterations, traced):
    plain = [it for it in iterations if not it.traced]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    wall = statistics.median(it.wall_s for it in plain)
    if not traced:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(statistics.median(it.cpu_s for it in plain), "s"),
            "peak_rss_mb": _metric(
                statistics.median(it.peak_rss_mb for it in plain), "MB"),
        }
    else:
        traced_its = [it for it in iterations if it.traced]
        stats = [layer_stats(it) for it in traced_its]
        metrics = {
            key: _metric(statistics.median(fn(s) for s in stats), unit)
            for key, (unit, fn) in PER_LAYER.items()
        }
        traced_wall = statistics.median(it.wall_s for it in traced_its)
        metrics["trace.wall_s"] = _metric(traced_wall, "s")
        metrics["trace.overhead_s"] = _metric(traced_wall - wall, "s")
    detail = {
        "workload": name,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "setup_times_s": setup_times,
        "iterations": [
            {"traced": it.traced, "wall_s": it.wall_s, "cpu_s": it.cpu_s,
             "peak_rss_mb": it.peak_rss_mb, "processes": len(it.children),
             "attempted": it.attempted, "failed": it.failed}
            for it in iterations
        ],
    }
    return attempted, failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write a detailed JSON record here")
    args = parser.parse_args(argv)

    if LIBRARY_ERROR is not None or not (SRC / "hurwitzlab" / "cli.py").is_file():
        print(f"run.py: cannot import hurwitzlab from {SRC}: {LIBRARY_ERROR}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    compileall.compile_dir(str(SRC), quiet=1)  # as an install would

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        with Spawner(deadline) as spawner:
            setup_times, iterations = measure(
                spawner, args.workload, args.seed, args.seconds,
                bool(args.trace), work)
    except Deadline as exc:
        print(f"run.py: killed past the deadline: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, metrics, detail = summarize(
        args.workload, setup_times, iterations, bool(args.trace))
    if args.out:
        detail["seed"] = args.seed
        detail["metrics"] = metrics
        Path(args.out).write_text(json.dumps(detail, indent=2) + "\n",
                                  encoding="utf-8")
    for key, m in metrics.items():
        print(f"{args.workload:7s} {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:7s} {'fail_ratio':40s} {detail['fail_ratio']:.6g} "
          f"ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
