"""Write perfbench/expected.json: the values the benchmark holds outputs to
where no cheap second route exists.

    python3 perfbench/pin.py

It pins the `verify --suite all` check list (suite, name, detail), the
bracket tables that `hodge` prints for the benchmark's (g, h) pairs, and the
character-sum engine's disconnected counts for every batch record it can
draw at d >= 8.  Run it only when the benchmark's inputs change: the pins
record what the program printed when they were taken, so re-pinning to make
a mismatch go away would defeat the check.
"""

import json
import shutil
import sys
import time

import run
from hurwitzlab.hurwitz import disconnected_burnside


def cli_json(spawner, args, env, work):
    child = spawner.spawn(run._cli(*args), env, work / "child").collect()
    if child.exitcode != 0:
        sys.exit(f"pin.py: {' '.join(map(str, args))} exited {child.exitcode}")
    return json.loads(child.stdout)


def main():
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = run.WORK_ROOT / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    cache = work / "cache"
    env = run.child_env(cache)
    try:
        with run.Spawner(time.perf_counter() + 600) as spawner:
            checks = cli_json(spawner, ["verify", "--suite", "all", "--format",
                                        "json", "--cache-dir", cache], env, work)
            if not all(c["passed"] for c in checks):
                sys.exit("pin.py: verify does not pass; refusing to pin it")
            verify = [[c["suite"], c["name"], c["detail"]] for c in checks]

            hodge = {}
            for g, h in run.HODGE_PAIRS:
                out = cli_json(spawner, [
                    "hodge", "--genus", g, "--marks", h, "--format", "json",
                    "--cache-dir", cache,
                    "--table-file", work / f"table-{g}-{h}.txt"], env, work)
                hodge[f"{g},{h}"] = [[e["bracket"], e["value"]]
                                     for e in out["entries"]]

        burnside = {}
        for d in run.BATCH_BURNSIDE:
            for mu in run.partitions_of(d):
                h = mu.length
                for k in range(run.BATCH_BURNSIDE_R_STEPS):
                    record = {"euler": 2 * h - 2 * k, "partition": str(mu)}
                    value = disconnected_burnside(record["euler"], mu,
                                                  cache_dir=cache)
                    burnside[run.burnside_pin_key(record)] = str(value)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    document = {"verify": verify, "hodge": hodge, "burnside": burnside}
    run.EXPECTED_FILE.write_text(json.dumps(document, indent=1) + "\n",
                                 encoding="utf-8")
    print(f"wrote {run.EXPECTED_FILE}: {len(verify)} checks, "
          f"{sum(map(len, hodge.values()))} brackets, {len(burnside)} counts")


if __name__ == "__main__":
    main()
