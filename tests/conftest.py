import pytest

from hurwitzlab import eqcoh, hurwitz, partitions, symgroup, verify


@pytest.fixture(autouse=True)
def cold_engine_memos():
    """Each test starts and ends with the process-lifetime memos empty, so a
    count memoized under a patched engine or column, or a perturbed tail
    expansion, never reaches another test."""
    clear_engine_memos()
    yield
    clear_engine_memos()


def clear_engine_memos():
    """Clear every ``cache`` / ``lru_cache`` in the modules' globals, so a
    new one is never missed, and the dict memos of ``hurwitz``."""
    for module in (partitions, symgroup, hurwitz, eqcoh, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    hurwitz._transform_memos.clear()
    hurwitz._canonical_parts.clear()
    hurwitz._class_vectors.clear()
