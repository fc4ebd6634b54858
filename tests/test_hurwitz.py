import gc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitzlab.errors import ConsistencyError, DomainError, ResourceLimitError
from hurwitzlab.hurwitz import (
    BURNSIDE_MAX_D,
    DP_MAX_D,
    HurwitzSeries,
    canonical_representative,
    connected_dfs,
    connected_dp,
    connected_via_transform,
    cycle_type,
    disconnected_burnside,
    disconnected_dp,
    invert_perm,
    phi_series,
)
from hurwitzlab.partitions import Partition, aut_size, partitions_of, z

F = Fraction


# --- permutation plumbing ---------------------------------------------------


def test_canonical_representative_cycles_in_order():
    rep = canonical_representative(Partition([3, 2]))
    assert rep == (1, 2, 0, 4, 3)
    assert cycle_type(rep) == Partition([3, 2])


# --- brute-force oracle for tuple counts ------------------------------------


def identity_perm(d):
    return tuple(range(d))


def compose(a, b):
    """Right-to-left composition: (a o b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def conjugate_perm(p, g):
    """g o p o g^{-1}."""
    return compose(compose(g, p), invert_perm(g))


def transpositions(d):
    """All transpositions of {0..d-1} as (permutation, (i, j)) pairs."""
    out = []
    for i, j in combinations(range(d), 2):
        p = list(range(d))
        p[i], p[j] = j, i
        out.append((tuple(p), (i, j)))
    return out


def test_compose_is_right_to_left():
    # a sends 0->1, b sends 1->2; (a o b)(1) = a(2)
    a = (1, 2, 0)
    b = (0, 2, 1)
    assert compose(a, b) == (1, 0, 2)


def test_inverse_and_cycle_type():
    p = (1, 2, 0, 4, 3)
    assert compose(p, invert_perm(p)) == identity_perm(5)
    assert cycle_type(p) == Partition([3, 2])


def test_transpositions_count():
    assert len(transpositions(5)) == 10


def brute_counts(d, r, sigma):
    """Count r-tuples of transpositions with product sigma, with and without
    the transitivity requirement, by raw product enumeration."""
    trans = transpositions(d)
    total = transitive = 0
    for tup in product(trans, repeat=r):
        prod_perm = identity_perm(d)
        for t, _ in tup:
            prod_perm = compose(prod_perm, t)
        if prod_perm != sigma:
            continue
        total += 1
        parent = list(range(d))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        comps = d
        for _, (i, j) in tup:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                comps -= 1
        if comps == 1:
            transitive += 1
    return total, transitive


@pytest.mark.parametrize(
    "g,mu",
    [(0, [3]), (0, [2, 1]), (0, [1, 1, 1]), (1, [2]), (1, [1, 1]), (1, [3])],
)
def test_connected_dfs_matches_brute_force(g, mu):
    mu = Partition(mu)
    r = 2 * g - 2 + mu.size + mu.length
    _, transitive = brute_counts(mu.size, r, canonical_representative(mu))
    assert connected_dfs(g, mu) == F(transitive, z(mu))


def test_connected_dfs_known_values():
    assert connected_dfs(0, Partition([1])) == 1
    assert connected_dfs(0, Partition([3])) == 1
    assert connected_dfs(1, Partition([1])) == 0
    assert connected_dfs(0, Partition([1, 1, 1])) == 4


def _genus_zero_hurwitz(mu):
    """Hurwitz's count for the sphere: r!/aut * prod(m^m/m!) * d^(h-3) with
    r = d + h - 2."""
    d, h = mu.size, mu.length
    expected = F(factorial(d + h - 2), aut_size(mu)) * F(d) ** (h - 3)
    for p in mu.parts:
        expected *= F(p**p, factorial(p))
    return expected


def test_connected_genus_zero_closed_form():
    # every profile of size <= 6 (r <= 10), including (2,1,1,1,1) at r = 9
    for size in range(1, 7):
        for mu in partitions_of(size):
            assert connected_dfs(0, mu) == _genus_zero_hurwitz(mu), mu


def test_connected_dfs_invalid_and_budget():
    with pytest.raises(DomainError):
        connected_dfs(0, Partition())  # r = -2
    with pytest.raises(ResourceLimitError):
        connected_dfs(0, Partition([2, 2, 1]), node_budget=10)


@pytest.mark.parametrize("size", range(1, 7))
def test_connected_dp_matches_dfs(size):
    # the cycle-type recursion against the permutation-level count, at every
    # admissible r <= 10
    for mu in partitions_of(size):
        for g in range(0, 5):
            r = 2 * g - 2 + mu.size + mu.length
            if 0 <= r <= 10:
                assert connected_dp(g, mu) == connected_dfs(g, mu), (g, mu)


def test_connected_dp_matches_transform_past_the_dfs():
    # every fourth profile of each size 7..10, genus <= 2
    for size in range(7, 11):
        for mu in partitions_of(size)[::4]:
            for g in range(0, 3):
                assert connected_dp(g, mu) == connected_via_transform(
                    g, mu, "dp"), (g, mu)


def test_connected_dp_known_values():
    assert connected_dp(0, Partition([1, 1, 1])) == 4
    assert connected_dp(1, Partition([2])) == F(1, 2)
    # genus 0: r!/aut * prod(m^m/m!) * d^(h-3)
    for parts in ([5], [8], [11], [3, 2], [4, 4], [6, 6], [9, 2]):
        mu = Partition(parts)
        d, h = mu.size, mu.length
        expected = F(factorial(d + h - 2), aut_size(mu)) * F(d) ** (h - 3)
        for p in parts:
            expected *= F(p**p, factorial(p))
        assert connected_dp(0, mu) == expected, mu


@pytest.mark.parametrize("g,parts", [(0, []), (-1, [1]), (-1, [2, 1]), (1, [])])
def test_connected_dp_edges_match_dfs(g, parts):
    mu = Partition(parts)
    try:
        expected = connected_dfs(g, mu)
    except DomainError:
        with pytest.raises(DomainError):
            connected_dp(g, mu)
    else:
        assert connected_dp(g, mu) == expected


def test_connected_dp_stays_shallow_at_high_genus():
    # r = 401: one recursion from the top alone passes Python's depth limit
    mu = Partition([2, 1])
    assert connected_dp(200, mu) == connected_dfs(200, mu)


def _lru_memo(fn):
    """The dict behind an ``lru_cache`` wrapper, keyed by argument tuples."""
    return next(ref for ref in gc.get_referents(fn)
                if isinstance(ref, dict) and ref is not fn.__dict__)


def test_cut_and_join_memos_hold_one_tuple_per_partition():
    from hurwitzlab import hurwitz

    for memo in (hurwitz._neighbours, hurwitz._splits, hurwitz._orbit_pairs,
                 hurwitz._transitive_class_count, hurwitz._canonical):
        memo.cache_clear()
    connected_dp(3, Partition([5, 4, 3, 2]))
    held = [key[0] for key in _lru_memo(hurwitz._transitive_class_count)]
    for pairs in _lru_memo(hurwitz._neighbours).values():
        held.extend(nu for nu, _ in pairs)
    for splits in _lru_memo(hurwitz._splits).values():
        held.extend(side for a, b, _ in splits for side in (a, b))
    for pairs in _lru_memo(hurwitz._orbit_pairs).values():
        held.extend(side for left, right, *_ in pairs for side in (left, right))
    ids = {}
    for parts in held:
        ids.setdefault(parts, set()).add(id(parts))
    assert len(ids) > 100
    assert all(len(objects) == 1 for objects in ids.values())
    # and that tuple is the one the _canonical cache holds
    canonical = _lru_memo(hurwitz._canonical)
    assert all(canonical[parts,] is parts for parts in held)


def test_connected_dp_budget():
    with pytest.raises(ResourceLimitError):
        connected_dp(0, Partition([DP_MAX_D + 1]))
    with pytest.raises(ResourceLimitError):
        connected_dp(0, Partition([2, 2]), max_d=3)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dfs_independent_of_class_representative(data):
    size = data.draw(st.integers(min_value=2, max_value=4))
    mu = data.draw(st.sampled_from(partitions_of(size)))
    g = data.draw(st.integers(min_value=0, max_value=1))
    perm = tuple(data.draw(st.permutations(tuple(range(size)))))
    sigma = conjugate_perm(canonical_representative(mu), perm)
    assert cycle_type(sigma) == mu
    assert connected_dfs(g, mu, sigma_inf=sigma) == connected_dfs(g, mu)


@pytest.mark.parametrize("size", range(1, 5))
def test_composition_convention_invariance(size):
    for mu in partitions_of(size):
        d, h = mu.size, mu.length
        for g in range(0, 2):
            r = 2 * g - 2 + d + h
            if r < 0 or r > 6:
                continue
            assert connected_dfs(g, mu, composition="rl") == connected_dfs(
                g, mu, composition="lr"
            )


def convolution_counts(d, r_max, composition):
    """The number of r-tuples of transpositions with each product, for
    r = 0..r_max, as vectors over S_d: each step multiplies by every
    transposition on the right ("rl") or on the left ("lr")."""
    trans = [t for t, _ in transpositions(d)]
    vector = {identity_perm(d): 1}
    out = [vector]
    for _ in range(r_max):
        nxt = Counter()
        for p, ways in vector.items():
            for t in trans:
                nxt[compose(p, t) if composition == "rl" else compose(t, p)] += ways
        vector = nxt
        out.append(vector)
    return out


@pytest.mark.parametrize("composition", ["rl", "lr"])
@pytest.mark.parametrize("size", range(1, 6))
def test_dp_matches_permutation_convolution(size, composition):
    # the class recursion against the permutation-level definition, in both
    # product conventions and at every r (odd chi included)
    vectors = convolution_counts(size, 8, composition)
    for mu in partitions_of(size):
        d, h = mu.size, mu.length
        sigma = canonical_representative(mu)
        for r in range(0, 9):
            expected = F(vectors[r].get(sigma, 0), z(mu))
            assert disconnected_dp(d + h - r, mu) == expected, (mu, r)


# --- disconnected engines ---------------------------------------------------


def test_disconnected_dp_known_values():
    assert disconnected_dp(4, Partition([1, 1])) == F(1, 2)
    assert disconnected_dp(2, Partition([2])) == F(1, 2)
    assert disconnected_dp(-2, Partition([3])) == 81


def test_disconnected_burnside_known_values():
    assert disconnected_burnside(2, Partition([2])) == F(1, 2)
    assert disconnected_burnside(-2, Partition([3])) == 81
    assert disconnected_burnside(4, Partition([1, 1])) == F(1, 2)


def test_character_sum_must_count_tuples(monkeypatch):
    # chi = 0 at (2, 1) is r = 5, a sum of 3^5 + 3^5 = 81 * 3!; raising the
    # value of the trivial character to 2 adds 3^5, no multiple of 3!
    from hurwitzlab import hurwitz

    column = hurwitz.column
    monkeypatch.setattr(hurwitz, "column", lambda mu: (2,) + column(mu)[1:])
    with pytest.raises(ConsistencyError, match="does not divide"):
        disconnected_burnside(0, Partition([2, 1]))
    monkeypatch.undo()
    hurwitz._checked_column.cache_clear()  # it holds the altered column
    assert disconnected_burnside(0, Partition([2, 1])) == F(81, 2)


def test_disconnected_matches_brute_force():
    for mu, r in [(Partition([2, 1]), 3), (Partition([1, 1, 1]), 4)]:
        total, _ = brute_counts(mu.size, r, canonical_representative(mu))
        chi = mu.size + mu.length - r
        assert disconnected_dp(chi, mu) == F(total, z(mu))
        assert disconnected_burnside(chi, mu) == F(total, z(mu))


def test_odd_euler_characteristic_gives_zero():
    assert disconnected_dp(1, Partition([2])) == 0
    assert disconnected_burnside(1, Partition([2])) == 0


def test_parity_vanishing():
    # counts vanish whenever (-1)^r differs from the sign of the class
    for size in range(1, 5):
        for mu in partitions_of(size):
            d, h = mu.size, mu.length
            for r in range(0, 6):
                if (r - d + h) % 2 == 0:
                    continue  # admissible parity, covered elsewhere
                chi = d + h - r
                assert disconnected_dp(chi, mu) == 0


def test_disconnected_budget_and_domain_errors():
    with pytest.raises(DomainError):
        disconnected_dp(10, Partition([2]))  # r < 0
    with pytest.raises(ResourceLimitError):
        disconnected_dp(0, Partition([4, 4]), max_d=7)
    with pytest.raises(ResourceLimitError):
        disconnected_burnside(0, Partition([2, 2]), max_d=3)


def test_empty_profile_edges():
    # the empty cover is disconnected data (one cover at chi = 0), never
    # a connected one
    assert connected_dfs(1, Partition()) == 0
    assert disconnected_dp(0, Partition()) == 1
    assert disconnected_burnside(0, Partition()) == 1
    assert disconnected_dp(-2, Partition()) == 0


def test_dp_equals_burnside_small():
    for size in range(1, 13):
        for mu in partitions_of(size):
            d, h = mu.size, mu.length
            for r in range(0, 9):
                if (r - d - h) % 2:
                    continue
                chi = d + h - r
                assert disconnected_dp(chi, mu) == disconnected_burnside(chi, mu)


@pytest.mark.parametrize("d", range(15, 19))
def test_dp_equals_burnside_above_the_old_table_ceiling(d):
    # every 8th profile of d = 15..18, at its five smallest admissible r
    # (r = d - len(mu) is the fewest transpositions): 690 values
    for mu in partitions_of(d)[::8]:
        h = mu.length
        for r in range(d - h, d - h + 10, 2):
            chi = d + h - r
            assert disconnected_dp(chi, mu) == disconnected_burnside(chi, mu)


# --- generating series ------------------------------------------------------


def test_series_monomial_bookkeeping():
    s = HurwitzSeries(6, 6)
    s.set_coefficient((2,), 0, 1)
    t = HurwitzSeries(6, 6)
    t.set_coefficient((3, 1), 1, 2)
    prod_series = s * t
    # r values are 2 and 5, so the interleaving factor is binom(7, 2)
    assert prod_series.coefficient((3, 2, 1), 1) == 2 * 21


def test_series_coefficients_convert_at_the_boundary():
    # the series stores c / r!; callers only ever see c (here r = 10 and 11)
    s = HurwitzSeries(6, 10)
    s.set_coefficient((3, 2), 6, F(7, 3))
    s.set_coefficient((1,), 9, -5)
    assert s.coefficient((3, 2), 6) == F(7, 3)
    assert s.coefficient((1,), 9) == -5
    assert s.items() == [(((1,), 9), F(-5)), (((3, 2), 6), F(7, 3))]
    assert s.terms[((3, 2), 6)] == F(7, 3) / factorial(11)


def test_series_truncation_drops_terms():
    s = HurwitzSeries(3, 2)
    s.set_coefficient((2,), 1, 1)
    assert (s * s).coefficient((2, 2), 2) == 0  # size 4 > 3 truncated


def test_divisor_truncation_drops_non_divisors():
    # for mu = (3,2,1,1), p_3^2 has size 6 <= 7 but cannot divide p_mu
    s = HurwitzSeries(7, 2, divides=(3, 2, 1, 1))
    s.set_coefficient((3,), 0, 1)  # r = 3
    s.set_coefficient((1,), 0, 1)  # r = 1
    square = s * s
    assert square.coefficient((3, 3), 0) == 0
    assert square.coefficient((3, 1), 0) == 2 * 4  # binom(4, 1) interleavings
    assert square.coefficient((1, 1), 0) == 2
    size_only = HurwitzSeries(7, 2, dict(s.terms))
    assert (size_only * size_only).coefficient((3, 3), 0) == 20  # binom(6, 3)


def test_series_with_different_truncations_do_not_combine():
    a = HurwitzSeries.one(4, 2, divides=(2, 1, 1))
    for b in (HurwitzSeries.one(4, 2), HurwitzSeries.one(4, 2, divides=(3, 1)),
              HurwitzSeries.one(4, 3, divides=(2, 1, 1))):
        for combine in (lambda x, y: x + y, lambda x, y: x * y,
                        lambda x, y: x == y):
            with pytest.raises(DomainError):
                combine(a, b)


def test_series_rejects_impossible_exponent():
    s = HurwitzSeries(4, 4)
    with pytest.raises(DomainError):
        s.set_coefficient((2,), -3, 1)


def test_log_requires_unit_constant_term():
    s = HurwitzSeries(3, 3)
    with pytest.raises(DomainError):
        s.log()


def test_log_of_one_is_zero():
    assert HurwitzSeries.one(4, 4).log().is_zero()


def test_transform_trivial_covers():
    # disconnected data of the trivial covers only
    s = HurwitzSeries.one(2, 0)
    s.set_coefficient((1,), -1, 1)
    s.set_coefficient((1, 1), -2, F(1, 2))
    logged = s.log()
    assert logged.coefficient((1,), -1) == 1
    assert logged.coefficient((1, 1), -2) == 0


def disconnected_series(engine, max_size, max_exp, submultisets_of=None):
    """The disconnected generating series of ``engine`` at every partition of
    size <= max_size and every r = e + |mu| <= max_exp + max_size, the
    truncation rule of ``HurwitzSeries``; with ``submultisets_of`` = mu, also
    truncated to the divisors of p_mu.  The constant term is 1."""
    divides = None if submultisets_of is None else submultisets_of.parts
    series = HurwitzSeries.one(max_size, max_exp, divides)
    for mu in (p for size in range(1, max_size + 1) for p in partitions_of(size)):
        if divides is None or not Counter(mu.parts) - Counter(divides):
            for e, value in phi_series(mu, engine, max_exp + max_size).items():
                series.set_coefficient(mu, e, value)
    return series


def test_exp_log_round_trip():
    s = disconnected_series("dp", max_size=4, max_exp=4)
    again = s.log().exp()
    assert again == s


#: Divisor truncations of size 4 for the random series below.
DIVIDES = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@st.composite
def unit_series(draw, divides=None):
    """Random series with constant term 1 and only admissible exponents; with
    ``divides``, only monomials dividing p_divides and that truncation."""
    s = HurwitzSeries.one(4, 4, divides)
    n_terms = draw(st.integers(min_value=1, max_value=6))
    for _ in range(n_terms):
        size = draw(st.integers(min_value=1, max_value=4))
        mu = draw(st.sampled_from(partitions_of(size)))
        if divides is not None:  # keep the part of mu that divides p_divides
            mu = Partition(sorted((Counter(mu.parts) & Counter(divides))
                                  .elements(), reverse=True))
            if not mu.parts:
                continue
            size = mu.size
        e = draw(st.integers(min_value=-size, max_value=4))
        num = draw(st.integers(min_value=-6, max_value=6))
        den = draw(st.integers(min_value=1, max_value=4))
        s.set_coefficient(mu, e, F(num, den))
    return s


def _series_with_negative_exponent():
    """1 + (lambda^2 + lambda + lambda^-1) p_1 at truncation (4, 4): a bound
    on the exponent alone drops a term of (lambda^2 p_1)^k that a later
    lambda^-1 factor must bring back, so log then exp gains 70 lambda^4 p_1^4."""
    s = HurwitzSeries.one(4, 4)
    for e in (2, 1, -1):
        s.set_coefficient((1,), e, 1)
    return s


@settings(max_examples=40, deadline=None)
@given(unit_series())
@example(_series_with_negative_exponent())
def test_log_exp_round_trip_random_series(s):
    assert s.log().exp() == s


def _power_sum(t, coefficient_of_power):
    """sum_k c_k t^k from * and + alone: the power-series definition that the
    weight-by-weight log and exp must reproduce.  Every term of t has weight
    e + 2|mu| >= 1, so the powers vanish past the top weight."""
    acc = HurwitzSeries(t.max_size, t.max_exp, divides=t.divides)
    power = HurwitzSeries.one(t.max_size, t.max_exp, t.divides)
    for k in range(1, t.max_exp + 2 * t.max_size + 2):
        power = power * t
        acc = acc + coefficient_of_power(k) * power
    assert power.is_zero()
    return acc


@settings(max_examples=40, deadline=None)
@given(unit_series())
@example(_series_with_negative_exponent())
def test_log_and_exp_match_their_power_series(s):
    t = s - HurwitzSeries.one(s.max_size, s.max_exp)
    assert s.log() == _power_sum(t, lambda k: F((-1) ** (k + 1), k))
    assert t.exp() == HurwitzSeries.one(s.max_size, s.max_exp) + _power_sum(
        t, lambda k: F(1, factorial(k)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DIVIDES).flatmap(unit_series))
def test_log_exp_round_trip_divisor_truncated(s):
    assert s.log().exp() == s
    t = s - HurwitzSeries.one(s.max_size, s.max_exp, s.divides)
    assert s.log() == _power_sum(t, lambda k: F((-1) ** (k + 1), k))


@pytest.mark.parametrize("key", [((), -1), ((1,), -2), ((3,), -4)])
def test_log_and_exp_reject_exponent_below_minus_size(key):
    # set_coefficient refuses such a term, so it is planted in coeffs
    t = HurwitzSeries(4, 4, {key: F(1)})
    s = HurwitzSeries.one(4, 4) + t
    with pytest.raises(DomainError):
        s.log()
    with pytest.raises(DomainError):
        t.exp()


def test_log_exp_round_trip_other_direction():
    s = disconnected_series("burnside", max_size=3, max_exp=5)
    logged = s.log()
    assert logged.exp().log() == logged


def test_transform_cross_engine_small():
    # connected values extracted from the disconnected engine match the
    # direct transitive count for every d <= 3, r <= 6
    for size in range(1, 4):
        for mu in partitions_of(size):
            d, h = mu.size, mu.length
            for g in range(0, 4):
                r = 2 * g - 2 + d + h
                if r < 0 or r > 6:
                    continue
                expected = connected_dfs(g, mu)
                assert connected_via_transform(g, mu, "dp") == expected
                assert connected_via_transform(g, mu, "burnside") == expected


@pytest.mark.parametrize("size", range(1, 7))
def test_divisor_truncated_transform_matches_size_only_and_dfs(size):
    # the log read at p_mu is the same with or without the divisor truncation,
    # and equals the character-free transitive count
    for mu in partitions_of(size):
        for g in range(0, 3):
            e = 2 * g - 2 + mu.length
            series = disconnected_series("burnside", max_size=size, max_exp=e,
                                         submultisets_of=mu)
            assert series.divides == mu.parts
            size_only = HurwitzSeries(size, e, dict(series.terms))
            value = connected_via_transform(g, mu, "burnside")
            assert value == size_only.log().coefficient(mu, e), (g, mu)
            assert value == connected_dfs(g, mu), (g, mu)


def test_transform_takes_an_engine_name_only():
    # an engine is named, never passed: the transform reads its tuple counts
    with pytest.raises(DomainError, match="unknown disconnected engine"):
        connected_via_transform(1, Partition([3, 1, 1]), disconnected_burnside)
    with pytest.raises(DomainError, match="unknown disconnected engine"):
        phi_series(Partition([2]), disconnected_dp)


# --- the transform's memo is kept per engine ---------------------------------


def test_transform_memo_keeps_budgets_apart():
    mu = Partition([3, 1, 1])
    expected = connected_via_transform(1, mu, "burnside")
    assert connected_via_transform(1, mu, "dp") == expected
    # each engine reads its own budget only
    assert connected_via_transform(1, mu, "burnside", dp_max_d=1) == expected
    assert connected_via_transform(1, mu, "dp", burnside_max_d=1) == expected
    # every count at (1, mu) is memoized, and a lower budget still raises
    with pytest.raises(ResourceLimitError,
                       match="character-sum budget is d <= 4, got d = 5"):
        connected_via_transform(1, mu, "burnside", burnside_max_d=mu.size - 1)
    with pytest.raises(ResourceLimitError,
                       match="cycle-type recursion budget is d <= 4, got d = 5"):
        connected_via_transform(1, mu, "dp", dp_max_d=mu.size - 1)


def test_transform_memo_keeps_engines_apart(monkeypatch):
    from hurwitzlab import hurwitz

    mu, requests = Partition([3, 1, 1]), Counter()
    count = hurwitz._class_tuple_count

    def requested(d, r, parts):
        requests[r, parts] += 1
        return count(d, r, parts)

    # the warm burnside memo does not answer for dp, and the patched count
    # gets entries of its own
    expected = connected_via_transform(1, mu, "burnside")
    monkeypatch.setattr(hurwitz, "_class_tuple_count", requested)
    assert connected_via_transform(1, mu, "dp") == expected
    assert requests[8, mu.parts] == 1  # the top term N(mu, 8), chi = 8 - 8
    asked = Counter(requests)
    assert connected_via_transform(1, mu, "dp") == expected
    assert requests == asked
    monkeypatch.undo()
    assert connected_via_transform(1, mu, "dp") == expected
    assert requests == asked


def _one_part_gjv(g, d):
    """H_g((d)) = r!/d! * d^(r-1) * [t^(2g)] (sinh(t/2)/(t/2))^(d-1), the
    one-part formula of Goulden, Jackson and Vakil (arXiv:math/0309440)."""
    r = 2 * g - 1 + d
    series = [F(1, 4**k * factorial(2 * k + 1)) for k in range(g + 1)]
    power = [F(1)] + [F(0)] * g  # in t^2, truncated above t^(2g)
    for _ in range(d - 1):
        power = [sum(power[i] * series[k - i] for i in range(k + 1))
                 for k in range(g + 1)]
    return F(factorial(r), factorial(d)) * F(d) ** (r - 1) * power[g]


def test_transform_matches_one_part_closed_form():
    # 55 values, g <= 4 and d <= 11; the sub-multiset recursion meets no
    # split here, so this pins the engines and the top term
    for g in range(5):
        for d in range(1, 12):
            mu, expected = Partition([d]), _one_part_gjv(g, d)
            assert connected_via_transform(g, mu, "burnside") == expected
            assert connected_via_transform(g, mu, "dp") == expected
            assert connected_dp(g, mu) == expected


@pytest.mark.parametrize("d", range(7, 11))
def test_transform_matches_hurwitz_genus_zero_formula(d):
    # many profiles repeat parts, so the split weights of the recursion count
    for mu in partitions_of(d):
        expected = _genus_zero_hurwitz(mu)
        assert connected_via_transform(0, mu, "burnside") == expected, mu
        assert connected_via_transform(0, mu, "dp") == expected, mu


def test_transform_rejects_empty_partition():
    with pytest.raises(DomainError):
        connected_via_transform(1, Partition())


# --- one-variable series ----------------------------------------------------


def test_phi_series_trivial_profile():
    assert phi_series(Partition([1]), "dp", max_r=4) == {-1: F(1)}


def test_phi_series_disconnected_exponents():
    # exponent convention e = -chi + len(mu) = r - |mu|
    terms = phi_series(Partition([2]), "dp", max_r=3)
    assert terms == {-1: F(1, 2), 1: F(1, 2)}


def test_phi_series_contains_genus_two_term():
    terms = phi_series(Partition([3]), "burnside", max_r=6)
    assert terms[3] == 81  # chi = -2 cover, e = -chi + 1
    assert terms[-1] == 1 and terms[1] == 9


def test_phi_series_unknown_engine():
    with pytest.raises(DomainError):
        phi_series(Partition([2]), "nope")


@pytest.mark.parametrize("engine", [
    connected_dfs,
    connected_dp,
    lambda g, mu: connected_via_transform(g, mu, "dp"),
    lambda g, mu: connected_via_transform(g, mu, "burnside"),
])
def test_connected_engines_reject_negative_genus(engine):
    # at g = -1 the profile (1,1,1) still has r = 1 >= 0
    with pytest.raises(DomainError, match="nonnegative"):
        engine(-1, Partition([1, 1, 1]))
