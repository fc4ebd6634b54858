import sys

import pytest

import hurwitzlab.cli  # noqa: F401 -- so every module is loaded


@pytest.fixture(autouse=True)
def cold_engine_memos():
    """Each test starts and ends with the process-lifetime memos empty, so a
    count memoized under a patched engine or column, or a perturbed tail
    expansion, never reaches another test."""
    clear_engine_memos()
    yield
    clear_engine_memos()


def clear_engine_memos():
    """Clear every ``cache`` / ``lru_cache`` in the globals of the package's
    modules, so a new one is never missed."""
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def package_modules():
    """Every module of the package imported so far."""
    return [module for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "hurwitzlab"]
