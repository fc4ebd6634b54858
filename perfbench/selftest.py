"""Trace self-test: a traced run must reproduce exact call counts, so a
binding site the tracer missed (a module that imported a function by name
and calls it unwrapped) shows up as a wrong count.

    python3 perfbench/selftest.py

The counts were taken independently with cProfile at the commit the
benchmark was defined on.  Each check runs one CLI child under
``tracehook.py`` against a cold-filled private cache.
"""

import shutil
import time
import unittest

import run

VERIFY_COUNTS = {
    "hurwitz.connected_dfs.calls": 42,
    "hodge.elsv_inversion.calls": 6,
    "hurwitz.connected_via_transform.calls": 106,
    "eqcoh.elsv_via_localization.calls": 168,
    "eqcoh.grr_localization_check.calls": 309,
    "verify.checks_total": 84,
    "verify.checks_passed": 84,
    "symgroup.character.calls": 0,  # the cache is warm: nothing is rebuilt
}

#: (g, h) -> (connected_via_transform calls, grid rows, spot checks run,
#: spot checks skipped)
HODGE_COUNTS = {
    (1, 5): (12, 12, 0, 12),
    (2, 4): (26, 26, 0, 26),
    (3, 3): (37, 37, 1, 36),
}
HODGE_2_4_MUL_CALLS = 228


class TraceCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK_ROOT.mkdir(exist_ok=True)
        cls.work = run.WORK_ROOT / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir()
        cls.cache = cls.work / "cache"
        cls.env = run.child_env(cls.cache)
        cls.spawner = run.Spawner(time.perf_counter() + 600)
        run.fill_cache(cls.spawner, cls.cache, cls.env, cls.work)

    @classmethod
    def tearDownClass(cls):
        cls.spawner.close()
        shutil.rmtree(cls.work, ignore_errors=True)

    def traced(self, *args):
        """Per-layer metrics of one traced CLI child."""
        argv = [str(run.HERE / "tracehook.py")] + [str(a) for a in args]
        child = self.spawner.spawn(argv, self.env, self.work / "child",
                                   trace_path=self.work / "trace.json").collect()
        self.assertEqual(child.exitcode, 0, child.args)
        stats = run.layer_stats(run.Iteration(traced=True, children=[child]))
        return {key: fn(stats) for key, (_, fn) in run.PER_LAYER.items()}

    def test_verify_counts(self):
        metrics = self.traced("verify", "--suite", "all", "--format", "json",
                              "--cache-dir", self.cache)
        for key, want in VERIFY_COUNTS.items():
            with self.subTest(metric=key):
                self.assertEqual(metrics[key], want)
        self.assertGreater(metrics["symgroup.from_text.calls"], 0)

    def test_hodge_counts(self):
        for (g, h), (transform, rows, run_, skipped) in HODGE_COUNTS.items():
            metrics = self.traced(
                "hodge", "--genus", g, "--marks", h, "--format", "json",
                "--cache-dir", self.cache,
                "--table-file", self.work / f"table-{g}-{h}.txt")
            got = (metrics["hurwitz.connected_via_transform.calls"],
                   metrics["hodge.grid_rows"],
                   metrics["hodge.spot_checks_run"],
                   metrics["hodge.spot_checks_skipped"])
            with self.subTest(pair=(g, h)):
                self.assertEqual(got, (transform, rows, run_, skipped))
                self.assertEqual(metrics["symgroup.character.calls"], 0)
            if (g, h) == (2, 4):
                self.assertEqual(metrics["hurwitz.mul.calls"],
                                 HODGE_2_4_MUL_CALLS)


if __name__ == "__main__":
    unittest.main()
