"""The census of the process memos: every memo of the package is a
``functools`` cache, so ``cache_clear`` empties it and ``cache_info`` reports
its size, and no module global keeps counts of its own."""

from conftest import clear_engine_memos, package_modules
from hurwitzlab.verify import run_suite


def _globals(kind):
    """(module, name) -> value of each module global of the given kind."""
    return {(module.__name__, name): obj
            for module in package_modules()
            for name, obj in vars(module).items()
            if isinstance(obj, kind) and not name.startswith("__")}


def _sizes():
    return {key: len(obj)
            for key, obj in _globals((dict, list, set)).items()}


def test_every_process_memo_is_a_functools_cache():
    # the autouse fixture starts this test from cold memos
    before = _sizes()
    results = run_suite("all")
    assert results and all(r.passed for r in results)
    assert _sizes() == before  # no dict, list or set global grew
    memos = {key: obj for key, obj in _globals(object).items()
             if hasattr(obj, "cache_info")}
    filled = {key for key, memo in memos.items() if memo.cache_info().currsize}
    assert {("hurwitzlab.hurwitz", "_transitive_from_disconnected"),
            ("hurwitzlab.hurwitz", "_class_vectors"),
            ("hurwitzlab.hurwitz", "_canonical")} <= filled
    clear_engine_memos()
    assert {key: memo.cache_info().currsize for key, memo in memos.items()} \
        == dict.fromkeys(memos, 0)
