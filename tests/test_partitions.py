from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from hurwitzlab.errors import DomainError
from hurwitzlab.partitions import (
    Partition,
    aut_size,
    class_size,
    kappa,
    partitions_of,
    z,
)


def brute_partitions(d):
    """Independent enumeration: all weakly decreasing positive tuples summing
    to d, by filtering compositions."""
    if d == 0:
        return [()]
    out = set()

    def rec(prefix, remaining):
        if remaining == 0:
            out.add(prefix)
            return
        for p in range(1, remaining + 1):
            if not prefix or p <= prefix[-1]:
                rec(prefix + (p,), remaining - p)

    rec((), d)
    return sorted(out, reverse=True)


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    parts = sorted(Counter(bins).values(), reverse=True)
    return Partition(parts)


def test_partitions_of_zero_and_one():
    assert partitions_of(0) == [Partition()]
    assert partitions_of(1) == [Partition([1])]


def test_partitions_of_four_reverse_lex():
    got = partitions_of(4)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(got) == 5


@pytest.mark.parametrize("d", range(0, 9))
def test_partitions_of_matches_brute_force(d):
    assert partitions_of(d) == brute_partitions(d)


@pytest.mark.parametrize("d", range(0, 11))
def test_partitions_no_duplicates_and_sums(d):
    ps = partitions_of(d)
    assert len(set(ps)) == len(ps)
    assert all(p.size == d for p in ps)


def test_negative_rejected():
    with pytest.raises(DomainError):
        partitions_of(-1)
    with pytest.raises(DomainError):
        Partition([1, 2])
    with pytest.raises(DomainError):
        Partition([2, 0])


@pytest.mark.parametrize("parts", [[2.5, 1], "31", [True], [2, True]])
def test_non_integer_parts_rejected_not_truncated(parts):
    with pytest.raises(DomainError, match="parts must be integers"):
        Partition(parts)


def test_non_integer_part_never_reaches_an_engine():
    from hurwitzlab.hurwitz import connected_dp

    with pytest.raises(DomainError):
        connected_dp(0, Partition([2.9]))


def test_from_string_still_parses_and_rejects_as_before():
    assert Partition.from_string(" 3,1 ") == Partition([3, 1])
    for text in ("2.5,1", "a", "3,,1"):
        with pytest.raises(DomainError, match="cannot parse partition"):
            Partition.from_string(text)


def test_aut_size_examples():
    assert aut_size(Partition([2, 2, 1])) == 2
    assert aut_size(Partition([3, 2, 1])) == 1
    assert aut_size(Partition([1, 1, 1, 1])) == 24
    assert aut_size(Partition()) == 1


def test_z_examples():
    assert z(Partition([3])) == 3
    assert z(Partition([2, 1])) == 2
    assert z(Partition([3, 2, 2, 1])) == 24
    assert z(Partition()) == 1


def test_kappa_examples():
    assert kappa(Partition([2, 1])) == 0
    assert kappa(Partition([3])) == 6
    assert kappa(Partition([1, 1, 1])) == -6
    assert kappa(Partition()) == 0


def test_class_size_examples():
    # enumerate S_3 by hand: three transpositions, two 3-cycles, one identity
    assert class_size(Partition([2, 1])) == 3
    assert class_size(Partition([3])) == 2
    assert class_size(Partition([1, 1])) == 1


@pytest.mark.parametrize("d", range(0, 11))
def test_class_sizes_partition_the_group(d):
    assert sum(class_size(mu) for mu in partitions_of(d)) == factorial(d)


@pytest.mark.parametrize("d", range(0, 11))
def test_z_times_class_size(d):
    for mu in partitions_of(d):
        assert z(mu) * class_size(mu) == factorial(mu.size)


@pytest.mark.parametrize("d", range(0, 11))
def test_kappa_antisymmetric_under_transpose(d):
    for nu in partitions_of(d):
        assert kappa(nu.transpose()) == -kappa(nu)


@given(partition_strategy())
def test_transpose_involution(p):
    assert p.transpose().transpose() == p


@given(partition_strategy())
def test_serialization_round_trip(p):
    assert Partition.from_string(str(p)) == p


def test_empty_partition_serializes_to_empty_string():
    assert str(Partition()) == ""
    assert Partition.from_string("") == Partition()


def test_ordering_and_hash():
    a, b = Partition([2, 1]), Partition([2, 1])
    assert a == b and hash(a) == hash(b)
    assert Partition([3]) > Partition([2, 1])
    assert len({a, b}) == 1


def test_a_partition_is_its_part_tuple():
    # the engines' memos key on plain part tuples and take a partition as is
    mu = Partition([3, 1, 1])
    assert isinstance(mu, tuple) and not hasattr(mu, "__dict__")
    assert mu == (3, 1, 1) and hash(mu) == hash((3, 1, 1))
    assert {(3, 1, 1): "plain"}[mu] == "plain"
    assert mu[1:] == (1, 1) and type(mu[1:]) is tuple
    assert (mu.size, mu.length, repr(mu), str(mu)) == (
        5, 3, "Partition([3, 1, 1])", "3,1,1")
