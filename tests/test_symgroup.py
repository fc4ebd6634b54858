import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

import hurwitzlab.symgroup as sg
from hurwitzlab.errors import ConsistencyError, DomainError, ResourceLimitError
from hurwitzlab.partitions import Partition, class_size, partitions_of
from hurwitzlab.symgroup import (BURNSIDE_MAX_D, CharacterTable, build_table,
                                 character, column, dim_irrep)


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


def bead_by_bead_column(mu):
    """p_mu in the Schur basis with no memo: from s_() on all d beads, each
    part k moves a bead b to an empty b + k with sign (-1)^(beads strictly
    between), every part from scratch."""
    d = mu.size
    shapes = {(1 << d) - 1: 1}
    for k in mu.parts:
        between = (1 << (k - 1)) - 1
        step = {}
        for mask, coef in shapes.items():
            movable = mask & ~(mask >> k)
            while movable:
                low = movable & -movable
                movable ^= low
                shape = mask ^ low ^ (low << k)
                jumped = (mask & ((between * low) << 1)).bit_count()
                step[shape] = step.get(shape, 0) + (-coef if jumped & 1 else coef)
        shapes = {mask: coef for mask, coef in step.items() if coef}
    beads = [sum(1 << (p + d - 1 - i)
                 for i, p in enumerate(nu.parts + (0,) * (d - nu.length)))
             for nu in partitions_of(d)]
    return tuple(shapes.get(mask, 0) for mask in beads)


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
        build_table(BURNSIDE_MAX_D + 1)
    with pytest.raises(ResourceLimitError):
        build_table(9, max_d=8)


def test_table_round_trip_text():
    t = build_table(4)
    again = CharacterTable.from_text(t.to_text())
    assert again == t
    assert hash(again) == hash(t)
    # the index maps are cached properties, so they need the instance dict
    assert again.chi(Partition([3, 1]), Partition([2, 2])) == -1
    assert again.dim(Partition([2, 2])) == 2
    assert set(vars(again)) == {"_positions", "_dim_column"}
    with pytest.raises(AttributeError):
        again.d = 5


# --- the memoized tails -------------------------------------------------------


@pytest.mark.parametrize("d", range(0, 13))
def test_columns_match_the_bead_by_bead_oracle(d):
    for mu in partitions_of(d):
        assert column(mu) == bead_by_bead_column(mu), mu


@pytest.mark.parametrize("d", [19, 20])
def test_sampled_large_columns_match_the_oracle(d):
    for mu in random.Random(d).sample(partitions_of(d), 12):
        assert column(mu) == bead_by_bead_column(mu), mu


def test_columns_do_not_depend_on_the_order_they_are_built_in():
    shapes = [mu for d in range(1, 13) for mu in partitions_of(d)]
    ascending = {mu: column(mu) for mu in shapes}
    sg._tail_expansion.cache_clear()
    random.Random(18).shuffle(shapes)
    assert {mu: column(mu) for mu in shapes} == ascending


def test_only_the_tails_are_memoized():
    # (3,2,1) builds the tails (2,1), (1) and (); its own column is not kept
    column(Partition([3, 2, 1]))
    assert sg._tail_expansion.cache_info().currsize == 3
    column(Partition([4, 2, 1]))
    assert sg._tail_expansion.cache_info().currsize == 3


def test_build_table_drops_the_tails_it_memoized():
    # the memo is bounded by one table's tails, and dropping them changes no
    # column: a later table rebuilds the same entries from cold tails
    for d in (6, 9):
        column(Partition([2] + [1] * (d - 2)))
        assert sg._tail_expansion.cache_info().currsize > 0
        table = build_table(d)
        assert sg._tail_expansion.cache_info().currsize == 0
        assert table.entries == tuple(zip(*map(bead_by_bead_column,
                                               table.partitions)))
        assert build_table(d) == table


def test_column_check_catches_a_perturbed_tail():
    tail = sg._tail_expansion((2, 1))
    tail[next(iter(tail))] += 1
    with pytest.raises(ConsistencyError):
        column(Partition([3, 2, 1]))


# --- the column check ---------------------------------------------------------
# Each corruption below breaks exactly one of the three relations that
# ``column`` checks, so each test fails if its relation is dropped.


def _corrupt(monkeypatch, edit):
    real = sg._schur_coefficients
    monkeypatch.setattr(sg, "_schur_coefficients",
                        lambda mu: tuple(edit(mu, list(real(mu)))))


def _at(mu, label):
    return partitions_of(mu.size).index(Partition(label))


def test_column_check_catches_a_scaled_column(monkeypatch):
    # at mu = (3,1) both weighted sums are 0 and stay 0; the squares double
    _corrupt(monkeypatch, lambda mu, v: [2 * c for c in v])
    with pytest.raises(ConsistencyError, match="sum of squares"):
        column(Partition([3, 1]))


def test_column_check_catches_a_wrong_sign(monkeypatch):
    # kappa(2,1) = 0, so negating that entry of the identity column keeps the
    # squares and the kappa-weighted sum, and changes sum dim * chi
    def edit(mu, v):
        v[_at(mu, [2, 1])] *= -1
        return v

    _corrupt(monkeypatch, edit)
    with pytest.raises(ConsistencyError, match="dimension"):
        column(Partition([1, 1, 1]))


def test_column_check_catches_swapped_rows_of_equal_dimension(monkeypatch):
    # 3,1 and 2,1,1 share their dimension, so only the kappa weight tells
    # their values apart; the swap keeps the squares and row orthogonality
    def edit(mu, v):
        i, j = _at(mu, [3, 1]), _at(mu, [2, 1, 1])
        v[i], v[j] = v[j], v[i]
        return v

    _corrupt(monkeypatch, edit)
    with pytest.raises(ConsistencyError, match="transposition"):
        column(Partition([4]))


@pytest.mark.parametrize("d", range(13, 17))
def test_every_column_passes_its_check(d):
    # dp = burnside reads every column to d = 12; the engine reads them to 20
    for mu in partitions_of(d):
        assert column(mu) == bead_by_bead_column(mu), mu
