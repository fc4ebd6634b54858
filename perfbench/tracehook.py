"""Run the hurwitzlab CLI with a span recorded around every public function.

Usage (the benchmark driver does this for traced runs):

    PERFBENCH_TRACE_OUT=spans.json python3 perfbench/tracehook.py verify --suite all

Before ``cli.main`` runs, every public function defined in the modules below
is replaced by a wrapper at each binding site (the defining module and every
module that imported it by name), and a few class methods are wrapped on the
class.  Each call records a span ``[name, start, end, parent]`` in memory;
the spans and a handful of counters are written to ``$PERFBENCH_TRACE_OUT``
when the CLI returns.  Clocks are ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so the driver can compare them with its own.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

MODULES = ("symgroup", "hurwitz", "hodge", "eqcoh", "verify", "cli")

#: (module, class, method, span name); wrapped on the class itself.
METHODS = (
    ("symgroup", "CharacterTable", "chi", "symgroup.chi"),
    ("symgroup", "CharacterTable", "verify", "symgroup.verify"),
    ("symgroup", "CharacterTable", "from_text", "symgroup.from_text"),
    ("hurwitz", "HurwitzSeries", "log", "hurwitz.log"),
    ("hurwitz", "HurwitzSeries", "__mul__", "hurwitz.mul"),
)

#: Permutation helpers called once per table entry while the DFS and dp move
#: tables are built (about 10^5 calls at d = 7).  A span each would cost more
#: than the work it times, so they run unwrapped and their time stays in the
#: caller's self time.
UNWRAPPED = {
    "hurwitz.compose",
    "hurwitz.cycle_count",
    "hurwitz.cycle_type",
    "hurwitz.identity_perm",
    "hurwitz.invert_perm",
    "hurwitz.conjugate_perm",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counters = Counter()

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def dump(self, path, main_started):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        document = {
            "main_started": main_started,
            "names": names,
            "spans": [[code[n], a, b, p] for n, a, b, p in self.spans],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)


def _result_hooks(tracer, hodge):
    counters = tracer.counters

    def spot_check(estimate):
        if estimate > hodge.SPOT_CHECK_BUDGET:
            counters["hodge.spot_checks_skipped"] += 1
        else:
            counters["hodge.spot_checks_run"] += 1

    def grid(result):
        counters["hodge.grid_rows"] += len(result.grid)

    def checks(results):
        counters["verify.checks_total"] += len(results)
        counters["verify.checks_passed"] += sum(1 for r in results if r.passed)

    return {
        "hurwitz.estimate_dfs_nodes": spot_check,
        "hodge.elsv_inversion": grid,
        "verify.run_suite": checks,
    }


def install(tracer):
    """Wrap the public functions of MODULES at every binding site; return the
    wrapped ``cli.main``."""
    mods = {name: importlib.import_module(f"hurwitzlab.{name}") for name in MODULES}
    package = importlib.import_module("hurwitzlab")
    hooks = _result_hooks(tracer, mods["hodge"])

    wrappers = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            span = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or span in UNWRAPPED):
                continue
            wrappers[id(obj)] = tracer.wrap(span, obj, hooks.get(span))

    for mod in list(mods.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])

    for short, cls_name, method, span in METHODS:
        cls = getattr(mods[short], cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__)))
        else:
            setattr(cls, method, tracer.wrap(span, raw))

    # run_suite calls the check functions through its registry, not through
    # module globals; give each registry entry a span named after its suite.
    verify = mods["verify"]
    for suite, fns in verify._SUITES.items():
        verify._SUITES[suite] = tuple(
            tracer.wrap(f"verify.suite.{suite}", fn) for fn in fns
        )
    return mods["cli"].main


def main(argv):
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out:
        print("tracehook: set PERFBENCH_TRACE_OUT to the span file path",
              file=sys.stderr)
        return 64
    tracer = Tracer()
    cli_main = install(tracer)
    main_started = time.perf_counter()
    try:
        return cli_main(argv)
    finally:
        tracer.dump(out, main_started)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
