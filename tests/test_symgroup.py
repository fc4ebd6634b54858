from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from hurwitzlab.errors import DomainError, ResourceLimitError
from hurwitzlab.partitions import Partition, class_size, partitions_of
from hurwitzlab.symgroup import CharacterTable, build_table, character, dim_irrep


# --- independent oracles ----------------------------------------------------


def standard_tableaux_count(shape):
    """Count standard Young tableaux by brute backtracking (no hook lengths)."""
    n = sum(shape)
    rows = [[] for _ in shape]

    def place(value):
        if value == n:
            return 1
        total = 0
        for i, row in enumerate(rows):
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(value)
                total += place(value + 1)
                row.pop()
        return total

    return place(0)


def cycle_type_of(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        n, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            n += 1
        out.append(n)
    return tuple(sorted(out, reverse=True))


def tabloids(shape, d):
    """All ordered set partitions of {0..d-1} with the given block sizes."""
    if not shape:
        yield ()
        return
    first, rest = shape[0], shape[1:]
    points = tuple(range(d))

    def rec(available, sizes):
        if not sizes:
            yield ()
            return
        for block in combinations(available, sizes[0]):
            remaining = tuple(x for x in available if x not in block)
            for tail in rec(remaining, sizes[1:]):
                yield (frozenset(block),) + tail

    yield from rec(points, shape)


def permutation_module_character(shape, d):
    """Character of the natural action on tabloids: for each class, the
    number of tabloids every block of which is invariant."""
    values = {}
    all_tabloids = list(tabloids(shape, d))
    for perm in permutations(range(d)):
        ct = cycle_type_of(perm)
        if ct in values:
            continue
        fixed = 0
        for tab in all_tabloids:
            if all(frozenset(perm[x] for x in block) == block for block in tab):
                fixed += 1
        values[ct] = fixed
    return values


def brute_character_table(d):
    """Character table extracted from explicit permutation representations:
    start from the tabloid-action characters and strip previously found
    irreducible constituents (exact Gram-Schmidt over the class algebra).
    Completely independent of the border-strip recursion."""
    parts = partitions_of(d)
    sizes = {mu.parts: class_size(mu) for mu in parts}
    order = factorial(d)

    def inner(a, b):
        return sum(Fraction(sizes[m] * a[m] * b[m], order) for m in sizes)

    chars = []
    for lam in parts:
        vec = permutation_module_character(lam.parts, d)
        vec = {m: Fraction(v) for m, v in vec.items()}
        for prev in chars:
            mult = inner(vec, prev)
            assert mult.denominator == 1
            vec = {m: vec[m] - mult * prev[m] for m in vec}
        assert inner(vec, vec) == 1
        chars.append(vec)
    return parts, chars


# --- dimensions -------------------------------------------------------------


def test_dim_trivial_rep():
    for d in range(1, 8):
        assert dim_irrep(Partition([d])) == 1


def test_dim_examples_against_tableau_count():
    assert dim_irrep(Partition([2, 1])) == standard_tableaux_count((2, 1)) == 2
    assert dim_irrep(Partition([2, 2])) == standard_tableaux_count((2, 2)) == 2


@pytest.mark.parametrize("d", range(1, 8))
def test_dim_matches_tableau_count(d):
    for nu in partitions_of(d):
        assert dim_irrep(nu) == standard_tableaux_count(nu.parts)


@pytest.mark.parametrize("d", range(1, 9))
def test_dims_square_to_group_order(d):
    assert sum(dim_irrep(nu) ** 2 for nu in partitions_of(d)) == factorial(d)


# --- characters -------------------------------------------------------------


def test_character_examples():
    assert character(Partition([1, 1, 1]), Partition([2, 1])) == -1
    assert character(Partition([2, 1]), Partition([1, 1, 1])) == 2
    assert character(Partition([2, 1]), Partition([3])) == -1


def test_character_size_mismatch_rejected():
    with pytest.raises(DomainError):
        character(Partition([2, 1]), Partition([2]))


@pytest.mark.parametrize("d", range(1, 7))
def test_identity_column_is_dimension(d):
    one_d = Partition([1] * d)
    for nu in partitions_of(d):
        assert character(nu, one_d) == dim_irrep(nu)


@pytest.mark.parametrize("d", range(1, 9))
def test_table_dim_is_identity_column(d):
    t = build_table(d)
    for nu in t.partitions:
        assert t.dim(nu) == t.chi(nu, Partition([1] * d))


def test_table_rejects_foreign_partition():
    with pytest.raises(DomainError):
        build_table(5).chi(Partition([3]), Partition([2, 1]))


@pytest.mark.parametrize("d", range(1, 7))
def test_trivial_and_sign_rows(d):
    for mu in partitions_of(d):
        assert character(Partition([d]), mu) == 1
        assert character(Partition([1] * d), mu) == (-1) ** (d - mu.length)


@pytest.mark.parametrize("d", range(1, 6))
def test_characters_match_permutation_module_oracle(d):
    parts, chars = brute_character_table(d)
    for nu, vec in zip(parts, chars):
        for mu in parts:
            assert character(nu, mu) == vec[mu.parts], (nu, mu)


# --- tables -----------------------------------------------------------------


def test_build_table_d1():
    t = build_table(1)
    assert t.entries == ((1,),)


def test_build_table_d2_by_hand():
    t = build_table(2)
    classes = [Partition([2]), Partition([1, 1])]
    assert t.chi(classes[0], classes[1]) == 1  # trivial rep at identity
    assert t.chi(classes[0], classes[0]) == 1
    assert t.chi(classes[1], classes[1]) == 1
    assert t.chi(classes[1], classes[0]) == -1


def test_build_table_d3_dimension_sum():
    t = build_table(3)
    one = Partition([1, 1, 1])
    assert sum(t.chi(nu, one) ** 2 for nu in t.partitions) == 6


@pytest.mark.parametrize("d", range(1, 9))
def test_row_and_column_orthogonality(d):
    t = build_table(d)
    t.verify()  # rows, exact
    n = len(t.partitions)
    for j in range(n):
        for k in range(j, n):
            inner = sum(t.entries[i][j] * t.entries[i][k] for i in range(n))
            mu = t.partitions[j]
            expected = factorial(d) // class_size(mu) if j == k else 0
            assert inner == expected


def test_build_table_rejects_bad_degree():
    with pytest.raises(DomainError):
        build_table(0)
    with pytest.raises(ResourceLimitError):
        build_table(15)
    with pytest.raises(ResourceLimitError):
        build_table(9, max_d=8)


def test_table_round_trip_text():
    t = build_table(4)
    again = CharacterTable.from_text(t.to_text())
    assert again == t


def test_disk_cache_round_trip(tmp_path):
    import hurwitzlab.symgroup as sg

    sg._table_memo.pop(5, None)
    t = build_table(5, cache_dir=str(tmp_path))
    path = tmp_path / "chartable-05.txt"
    assert path.exists()
    sg._table_memo.pop(5, None)
    t2 = build_table(5, cache_dir=str(tmp_path))
    assert t2 == t


def test_corrupt_cache_is_rebuilt(tmp_path):
    import hurwitzlab.symgroup as sg

    path = tmp_path / "chartable-04.txt"
    path.write_text("not a table\n")
    sg._table_memo.pop(4, None)
    t = build_table(4, cache_dir=str(tmp_path))
    t.verify()
    # the rebuilt table must have replaced the garbage
    assert CharacterTable.from_text(path.read_text()) == t


def test_tampered_cache_values_do_not_leak(tmp_path):
    import hurwitzlab.symgroup as sg

    sg._table_memo.pop(3, None)
    t = build_table(3, cache_dir=str(tmp_path))
    path = tmp_path / "chartable-03.txt"
    text = t.to_text().splitlines()
    text[3] = "9 9 9"  # break a row
    path.write_text("\n".join(text) + "\n")
    sg._table_memo.pop(3, None)
    rebuilt = build_table(3, cache_dir=str(tmp_path))
    rebuilt.verify()
    sg._table_memo.pop(3, None)


def test_failed_cache_write_keeps_previous_file(tmp_path, monkeypatch):
    import os

    import hurwitzlab.symgroup as sg

    path = tmp_path / "chartable-04.txt"
    path.write_text("previous contents\n")
    sg._table_memo.pop(4, None)

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        build_table(4, cache_dir=str(tmp_path))
    assert path.read_text() == "previous contents\n"
    assert os.listdir(tmp_path) == ["chartable-04.txt"]
