import pytest

from hurwitzlab import hurwitz, symgroup


@pytest.fixture(autouse=True)
def cold_engine_memos():
    """Each test starts and ends with the process-lifetime engine memos
    empty, so a count memoized under a patched engine or column, or a
    perturbed tail expansion, never reaches another test."""
    clear_engine_memos()
    yield
    clear_engine_memos()


def clear_engine_memos():
    hurwitz._transform_memos.clear()
    hurwitz._canonical_parts.clear()
    hurwitz._checked_column.cache_clear()
    hurwitz._character_tuple_count.cache_clear()
    symgroup._tail_expansion.cache_clear()
