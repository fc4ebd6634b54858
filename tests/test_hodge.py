from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice, permutations
from math import factorial, prod

import pytest

from hurwitzlab.errors import ConsistencyError, DomainError, MissingBracketError
from hurwitzlab.hodge import (
    HodgeBracket,
    HodgeTable,
    chain_inversion,
    elsv_evaluate,
    elsv_inversion,
    hodge_export,
    hodge_import,
    invert_into,
    monomial_symmetric,
    normalized_count,
    required_brackets,
    sample_candidates,
    string_equation_check,
    _monomial_row,
)
from hurwitzlab.hurwitz import connected_via_transform
from hurwitzlab.partitions import Partition

F = Fraction


def genus_zero_bracket(exponents):
    """Independent oracle: on the sphere the descendant bracket is the
    multinomial (h-3)! / prod j_k!."""
    h = len(exponents)
    return F(factorial(h - 3), prod(factorial(j) for j in exponents))


@cache
def _distinct_permutations(exponents):
    return tuple(set(permutations(exponents)))


def permutation_sum(exponents, values):
    """Oracle for m_J: the sum over the distinct permutations of J of the
    corresponding monomial, by definition."""
    return sum(prod(v**j for v, j in zip(values, perm))
               for perm in _distinct_permutations(tuple(exponents)))


# --- brackets and tables ----------------------------------------------------


def test_bracket_sorts_exponents():
    b = HodgeBracket(g=0, h=4, psi=(0, 1, 0, 0), lam=0)
    assert b.psi == (1, 0, 0, 0)
    assert str(b) == "(0,4,[1,0,0,0],0)"
    assert HodgeBracket.from_string(str(b)) == b


def test_bracket_is_an_immutable_named_tuple():
    b = HodgeBracket(g=1, h=2, psi=(0, 1), lam=1)
    assert b.psi == (1, 0)
    assert hash(b) == hash((1, 2, (1, 0), 1))
    assert repr(b) == "HodgeBracket(g=1, h=2, psi=(1, 0), lam=1)"
    with pytest.raises(AttributeError):
        b.lam = 0
    assert HodgeBracket(1, 2, (1, 0), 1) == b


@pytest.mark.parametrize("args,message", [
    ((0, 2, (0, 0), 0), "unstable (g, h) = (0, 2)"),
    ((1, 1, (1,), 1), "dimension constraint violated: sum(psi) + lam = 2 != 1"),
    ((0, 3, (0, 0, 0), 1), "lambda index out of range: (0,3,[0,0,0],1)"),
    ((0, 3, (0, 0), 0),
     "need one psi exponent per marked point: (0,3,[0,0],0)"),
    ((0, 3, (1, -1, 0), 0), "negative psi exponent: (0,3,[1,0,-1],0)"),
])
def test_bracket_validation_messages(args, message):
    with pytest.raises(DomainError) as err:
        HodgeBracket(*args)
    assert str(err.value) == message


def test_bracket_validation():
    with pytest.raises(DomainError):
        HodgeBracket(g=0, h=2, psi=(0, 0), lam=0)  # unstable
    with pytest.raises(DomainError):
        HodgeBracket(g=1, h=1, psi=(1,), lam=1)  # dimension constraint
    with pytest.raises(DomainError):
        HodgeBracket(g=0, h=3, psi=(0, 0, 0), lam=1)  # lam > g


def test_table_has_seed():
    table = HodgeTable()
    seed = HodgeBracket(g=0, h=3, psi=(0, 0, 0), lam=0)
    assert seed in table
    assert table.value(seed) == 1
    assert hodge_export(table).splitlines()[1:] == [f"{seed} 1 seeded"]


def test_table_conflicting_value_rejected():
    table = HodgeTable()
    b = HodgeBracket(g=1, h=1, psi=(1,), lam=0)
    table.add(b, F(1, 24))
    table.add(b, F(1, 24))  # same value is fine
    with pytest.raises(ConsistencyError):
        table.add(b, F(1, 23))


def test_missing_bracket_error_names_bracket():
    table = HodgeTable()
    with pytest.raises(MissingBracketError) as err:
        elsv_evaluate(1, Partition([2]), table)
    assert "(1,1,[" in str(err.value)


def test_monomial_symmetric():
    assert monomial_symmetric((1, 0), (2, 3)) == 5
    assert monomial_symmetric((1, 1), (2, 3)) == 6
    assert monomial_symmetric((0, 0, 0), (1, 2, 3)) == 1
    assert monomial_symmetric((2, 1), (2, 3)) == 2 * 2 * 3 + 3 * 3 * 2
    assert monomial_symmetric((0, 2, 1), (2, 3, 5)) == permutation_sum(
        (2, 1, 0), (2, 3, 5))


STABLE_PAIRS_TO_SIX = [(g, h) for g in range(4) for h in range(1, 9)
                       if 0 < 2 * g - 2 + h <= 6]


@pytest.mark.parametrize("g,h", STABLE_PAIRS_TO_SIX)
def test_row_builder_matches_permutation_sum(g, h):
    """The interpolation rows, built by the recursion on the last variable,
    equal the permutation-sum definition on the first 50 candidates."""
    exponents = [b.psi for b in required_brackets(g, h)]
    for mu in islice(sample_candidates(g, h), 50):
        assert _monomial_row(exponents, mu) == [
            permutation_sum(j, mu) for j in exponents
        ]


# --- forward evaluation -----------------------------------------------------


@pytest.fixture(scope="module")
def table():
    t = HodgeTable()
    for gh in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]:
        invert_into(t, *gh)
    return t


def test_evaluate_known_values(table):
    assert elsv_evaluate(0, Partition([1, 1, 1]), table) == 4
    assert elsv_evaluate(1, Partition([2]), table) == F(1, 2)
    assert elsv_evaluate(0, Partition([2, 1, 1]), table) == 120


def test_evaluate_rejects_unstable(table):
    with pytest.raises(DomainError):
        elsv_evaluate(0, Partition([5]), table)
    with pytest.raises(DomainError):
        elsv_evaluate(0, Partition([3, 2]), table)


# --- inversion --------------------------------------------------------------


def test_invert_seed():
    brackets = elsv_inversion(0, 3).brackets
    assert brackets == {HodgeBracket(g=0, h=3, psi=(0, 0, 0), lam=0): F(1)}


def test_invert_genus_one():
    brackets = {str(b): v for b, v in elsv_inversion(1, 1).brackets.items()}
    assert brackets == {"(1,1,[1],0)": F(1, 24), "(1,1,[0],1)": F(1, 24)}


def test_invert_equal_psi_and_lambda_forced(table):
    tau1 = HodgeBracket(g=1, h=1, psi=(1,), lam=0)
    lam1 = HodgeBracket(g=1, h=1, psi=(0,), lam=1)
    assert table.value(tau1) == table.value(lam1) == F(1, 24)


def test_invert_genus_zero_four_and_five_marks(table):
    # sphere brackets are multinomials; the inversion must reproduce them
    for b in table.brackets_for(0, 4) + table.brackets_for(0, 5):
        assert table.value(b) == genus_zero_bracket(b.psi), b


def test_invert_classical_genus_two_values(table):
    # cross-checked against the three independent engines; these match the
    # long-known evaluations on the two-holed surface moduli
    assert table.value(HodgeBracket(g=2, h=1, psi=(4,), lam=0)) == F(1, 1152)
    assert table.value(HodgeBracket(g=2, h=1, psi=(3,), lam=1)) == F(1, 480)
    assert table.value(HodgeBracket(g=2, h=1, psi=(2,), lam=2)) == F(7, 5760)


def test_invert_rejects_unstable():
    with pytest.raises(DomainError):
        elsv_inversion(0, 2)
    with pytest.raises(DomainError):
        elsv_inversion(0, 1)


def test_invert_into_replaces_the_block():
    t = HodgeTable()
    invert_into(t, 1, 1)
    planted = HodgeBracket(g=0, h=4, psi=(1, 0, 0, 0), lam=0)
    t.add(planted, 7)  # <tau_1 tau_0^3>_0 is 1
    result = invert_into(t, 0, 4)
    assert result.brackets == {planted: 1}
    assert t.value(planted) == 1
    assert t.brackets_for(0, 4) == [planted]
    # the other block and the seed survive
    assert t.value(HodgeBracket(g=1, h=1, psi=(1,), lam=0)) == F(1, 24)
    assert t.value(HodgeBracket(g=1, h=1, psi=(0,), lam=1)) == F(1, 24)
    seed = HodgeBracket(g=0, h=3, psi=(0, 0, 0), lam=0)
    assert t.value(seed) == 1
    assert len(t) == 4
    # the export tags the seed, and every inverted value, by its bracket
    assert hodge_export(t).splitlines()[1:] == [
        f"{seed} 1 seeded",
        f"{planted} 1 inverted-from-hurwitz",
        "(1,1,[1],0) 1/24 inverted-from-hurwitz",
        "(1,1,[0],1) 1/24 inverted-from-hurwitz",
    ]


#: The largest h, per genus, at which the full inversion takes at most
#: 0.5 s at default budgets (cold, in a fresh process, one core).
_CHEAP_FULL_INVERSIONS = {0: 10, 1: 8, 2: 6, 3: 5, 4: 3, 5: 3, 6: 2, 7: 1,
                          8: 1, 9: 1, 10: 1, 11: 1}


@pytest.mark.parametrize("g", sorted(_CHEAP_FULL_INVERSIONS))
def test_chain_equals_the_full_inversion(g):
    for h in range(3 if g == 0 else 1, _CHEAP_FULL_INVERSIONS[g] + 1):
        chain, full = chain_inversion(g, h), elsv_inversion(g, h)
        assert chain.brackets == full.brackets, (g, h)
        assert len(chain.grid) <= len(full.grid)


def test_chain_needs_no_larger_budget_than_the_full_inversion():
    # each budget set to the full inversion's largest grid profile: the
    # past-grid check skips profiles over it instead of raising
    for g, h in ((1, 1), (0, 5), (1, 4), (2, 3), (3, 2), (4, 1)):
        full = elsv_inversion(g, h)
        d = max(mu.size for mu in full.grid)
        chain = chain_inversion(g, h, dp_max_d=d, burnside_max_d=d)
        assert chain.brackets == full.brackets, (g, h)


def test_a_failing_chain_is_one_failed_round_trip_per_pair(monkeypatch):
    # the chain's ConsistencyError is reported as each pair's mismatch, and
    # the round trips still run to the end
    from hurwitzlab import verify

    def failing(g, h):
        raise ConsistencyError(f"gate fails at ({g}, {h})")

    monkeypatch.setattr(verify, "chain_inversion", failing)
    results = verify.round_trip_checks()
    assert len(results) == len(verify.ROUND_TRIP_PAIRS)
    for (g, h), result in zip(verify.ROUND_TRIP_PAIRS, results):
        assert not result.passed and f"gate fails at ({g}, {h})" in result.detail


def test_chain_rejects_unstable_pairs():
    for g, h in ((0, 2), (0, 1), (-1, 4)):
        with pytest.raises(DomainError):
            chain_inversion(g, h)


def test_chain_and_inversion_reject_a_block_without_points():
    # (2, 0) is stable but has no bracket to solve for: one DomainError
    text = r"ELSV needs at least one marked point, got \(g, h\) = \(2, 0\)"
    for invert in (chain_inversion, elsv_inversion):
        with pytest.raises(DomainError, match=text):
            invert(2, 0)


def test_required_brackets_rejects_negative_genus():
    with pytest.raises(DomainError, match="nonnegative"):
        required_brackets(-1, 5)


def test_inversion_metadata_and_normalization():
    result = elsv_inversion(1, 1)
    assert (result.g, result.h) == (1, 1)
    assert result.brackets == {HodgeBracket(1, 1, (1,), 0): F(1, 24),
                               HodgeBracket(1, 1, (0,), 1): F(1, 24)}
    assert result.grid == ((1,), (2,))
    assert result.samples[Partition([2])] == F(1, 2)
    assert normalized_count(1, Partition([2]), F(1, 2)) == F(1, 24)


def test_forward_backward_round_trip_fresh_samples(table):
    for g, h in [(0, 4), (1, 1)]:
        grid = set(elsv_inversion(g, h).grid)
        stream = sample_candidates(g, h)
        fresh = []
        while len(fresh) < 3:
            mu = next(stream)
            if mu not in grid:
                fresh.append(mu)
        for mu in fresh:
            assert elsv_evaluate(g, mu, table) == connected_via_transform(
                g, mu, "burnside"
            )


def test_polynomiality_band():
    """Fit the normalized counts against the full degree range; everything
    below the band [2g-3+h, 3g-3+h] must come out zero."""
    g, h = 1, 2
    samples = [Partition(p) for p in ([1, 1], [2, 1], [3, 1], [2, 2])]
    exponents = []
    for s in range(0, 3 * g - 3 + h + 1):
        from hurwitzlab.hodge import _exponent_multisets

        exponents.extend(_exponent_multisets(s, h))
    rows = [
        [monomial_symmetric(j, mu) for j in exponents] for mu in samples
    ]
    values = [
        normalized_count(g, mu, connected_via_transform(g, mu, "burnside"))
        for mu in samples
    ]
    from hurwitzlab.hodge import _Elimination

    elimination = _Elimination()
    assert all(elimination.add(row) for row in rows)  # a square, regular system
    solution = elimination.solve(values)
    for j, coeff in zip(exponents, solution):
        if sum(j) < 2 * g - 3 + h:
            assert coeff == 0, (j, coeff)


def test_elimination_skips_row_dependent_only_mod_p():
    from hurwitzlab import hodge

    p = 2**61 - 1
    elimination = hodge._Elimination()
    assert elimination.add([1, 0])
    assert not elimination.add([0, p])  # zero mod p, skipped
    assert elimination.add([0, 1])
    assert elimination.solve([3, 5]) == [3, 5]


def test_elimination_rejects_dependent_rows():
    from hurwitzlab import hodge

    elimination = hodge._Elimination()
    assert not elimination.add([0, 0])
    assert elimination.add([1, 0])
    assert not elimination.add([2, 0])
    assert not elimination.add([0, 0])
    assert elimination.add([1, 3])
    assert elimination.rows == [[1, 0], [1, 3]]


class _ListElimination:
    """The reference reduction mod p: each echelon row a list from its pivot
    on (1 there), each reduction step one list comprehension."""

    def __init__(self):
        self.rows, self.echelon, self.lower = [], [], []

    def add(self, row):
        p = 2**61 - 1
        work = [v % p for v in row]
        multipliers = []
        for pivot, tail in self.echelon:
            f = work[pivot]
            multipliers.append(f)
            if f:
                work[pivot:] = [(w - f * t) % p
                                for w, t in zip(work[pivot:], tail)]
        pivot = next((j for j, w in enumerate(work) if w), None)
        if pivot is None:
            return False
        inverse = pow(work[pivot], -1, p)
        self.echelon.append((pivot, [w * inverse % p for w in work[pivot:]]))
        self.lower.append(multipliers + [work[pivot]])
        self.rows.append(list(row))
        return True


def _assert_packed_matches_list(candidates):
    from hurwitzlab import hodge

    p, n = 2**61 - 1, len(candidates[0])
    packed, reference = hodge._Elimination(), _ListElimination()
    kept = [packed.add(row) for row in candidates]
    assert kept == [reference.add(row) for row in candidates]
    assert packed.rows == reference.rows
    assert packed._lower == reference.lower
    for (pivot, lanes), (ref_pivot, tail) in zip(packed._echelon,
                                                 reference.echelon):
        assert pivot == ref_pivot
        assert hodge._lanes_mod_p(lanes, n) == [0] * pivot + [-t % p for t in tail]
    return kept


def test_packed_echelon_matches_list_reduction_on_random_rows():
    import random

    p = 2**61 - 1
    rng = random.Random(22)
    n = 24
    rows = [[rng.randrange(-2**80, 2**80) for _ in range(n)] for _ in range(16)]
    for _ in range(6):  # dependent: a combination of earlier rows
        picked = rng.sample(rows, 3)
        rows.append([sum(rng.randrange(1, 100) * r[j] for r in picked)
                     for j in range(n)])
    rows += [[p - 1] * n, [-1] * n, [p - 1] * (n - 1) + [1]]
    rows += [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    kept = _assert_packed_matches_list(rows)
    assert 0 < kept.count(False) and kept.count(True) == n


def test_packed_echelon_matches_list_reduction_past_256_steps():
    # the first 258 rows are triangular, so the list reference reduces them
    # cheaply; each later candidate then takes 258 steps, past one
    # re-reduction of the packed lanes
    import random

    p = 2**61 - 1
    rng = random.Random(7)
    n = 262
    rows = [[0] * i + [rng.randrange(1, p)] + [rng.randrange(p)
                                               for _ in range(n - i - 1)]
            for i in range(258)]
    ones = [[0] * i + [p - 1] * (n - i) for i in range(258, n)]
    factors = [(rng.randrange(p), r) for r in rows[::37]]
    combination = [sum(f * r[j] for f, r in factors) for j in range(n)]
    candidates = (rows + [combination, [p - 1] * n,
                          [rng.randrange(p) for _ in range(n)]] + ones)
    kept = _assert_packed_matches_list(candidates)
    assert kept[258:261] == [False, True, True]


def test_lift_stops_at_the_hadamard_bound(monkeypatch):
    # without a reconstruction the lift runs until the modulus passes
    # 2 (H (1 + |b|_1))^2 p = 8 (p + 1)^2 p, that is four steps
    from hurwitzlab import hodge

    p = 2**61 - 1
    steps = []

    def never(residues, modulus):
        steps.append(modulus)
        return None

    monkeypatch.setattr(hodge, "_rational", never)
    elimination = hodge._Elimination("the test system")
    assert elimination.add([p + 1])
    with pytest.raises(ConsistencyError, match="the test system"):
        elimination.solve([1])
    assert steps == [p, p**2, p**3, p**4]


def test_lift_goes_past_one_step():
    # the denominator p + 1 does not fit one 61-bit step
    from hurwitzlab import hodge

    p = 2**61 - 1
    elimination = hodge._Elimination()
    assert elimination.add([p + 1])
    assert elimination.solve([1]) == [F(1, p + 1)]


def test_lift_solves_a_system_with_wide_entries():
    import random

    from hurwitzlab import hodge

    rng = random.Random(19)
    matrix = [[rng.getrandbits(100) - 2**99 for _ in range(6)] for _ in range(6)]
    rhs = [F(rng.randint(-10**6, 10**6), rng.randint(1, 1000)) for _ in range(6)]
    elimination = hodge._Elimination()
    assert all(elimination.add(row) for row in matrix)
    x = elimination.solve(rhs)
    assert any(v.denominator > 2**61 for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs


def test_certificate_catches_a_wrong_solution(monkeypatch):
    from hurwitzlab import hodge

    exact = hodge._rational

    def perturbed(residues, modulus):
        got = exact(residues, modulus)
        if got is None:
            return None
        nums, den = got
        return [nums[0] + 1] + nums[1:], den

    monkeypatch.setattr(hodge, "_rational", perturbed)
    with pytest.raises(ConsistencyError, match=r"\(g, h\) = \(1, 2\)"):
        elsv_inversion(1, 2)


# the grids as the elimination mod p chooses them; (1, 5) rejects one
# candidate row and (2, 5) two, each dependent over Q as well, so these are
# the grids an exact elimination over Q would choose
GRID_1_5 = (
    (1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 1, 1, 1),
    (4, 1, 1, 1, 1), (3, 2, 1, 1, 1), (2, 2, 2, 1, 1), (5, 1, 1, 1, 1),
    (4, 2, 1, 1, 1), (3, 3, 1, 1, 1), (3, 2, 2, 1, 1), (6, 1, 1, 1, 1),
)
GRID_2_5 = (
    (1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 1, 1, 1),
    (4, 1, 1, 1, 1), (3, 2, 1, 1, 1), (2, 2, 2, 1, 1), (5, 1, 1, 1, 1),
    (4, 2, 1, 1, 1), (3, 3, 1, 1, 1), (3, 2, 2, 1, 1), (2, 2, 2, 2, 1),
    (6, 1, 1, 1, 1), (5, 2, 1, 1, 1), (4, 3, 1, 1, 1), (4, 2, 2, 1, 1),
    (3, 3, 2, 1, 1), (3, 2, 2, 2, 1), (2, 2, 2, 2, 2), (7, 1, 1, 1, 1),
    (6, 2, 1, 1, 1), (5, 3, 1, 1, 1), (4, 4, 1, 1, 1), (5, 2, 2, 1, 1),
    (4, 3, 2, 1, 1), (3, 3, 3, 1, 1), (4, 2, 2, 2, 1), (3, 3, 2, 2, 1),
    (3, 2, 2, 2, 2), (8, 1, 1, 1, 1), (7, 2, 1, 1, 1), (6, 3, 1, 1, 1),
    (5, 4, 1, 1, 1), (6, 2, 2, 1, 1), (5, 3, 2, 1, 1), (4, 4, 2, 1, 1),
    (4, 3, 3, 1, 1), (5, 2, 2, 2, 1), (4, 3, 2, 2, 1), (3, 3, 3, 2, 1),
    (9, 1, 1, 1, 1),
)


def test_grid_pinned_where_one_row_is_rejected():
    grid = elsv_inversion(1, 5).grid
    assert grid == GRID_1_5


def test_grid_pinned_where_two_rows_are_rejected():
    # lambda_g brackets by Faber-Pandharipande: multinom(2g-3+h; K) * b_2,
    # with sum_g b_g t^(2g) = (t/2) / sin(t/2)
    result = elsv_inversion(2, 5)
    assert result.grid == GRID_2_5
    top = [b for b in result.brackets if b.lam == 2]
    assert len(top) == 10
    for b in top:
        multinom = F(factorial(sum(b.psi)), prod(factorial(j) for j in b.psi))
        assert result.brackets[b] == multinom * F(7, 5760), b


@cache
def _faber_pandharipande_series(top):
    """Oracles of Faber and Pandharipande that share no code with the
    package: b_0..b_top with sum_g b_g t^(2g) = (t/2) / sin(t/2), and the
    t^(2g) coefficients c_0..c_top of ((t/2) / sin(t/2))^(k+1), each a
    polynomial in k as its list of coefficients, lowest power first."""
    # sin(t/2) / (t/2) = sum_n (-1)^n t^(2n) / (4^n (2n+1)!), inverted
    sine = [F((-1) ** n, 4 ** n * factorial(2 * n + 1)) for n in range(top + 1)]
    b = [F(1)]
    for n in range(1, top + 1):
        b.append(-sum(sine[j] * b[n - j] for j in range(1, n + 1)))
    # the power f^p of f = sum b_j u^j, b_0 = 1, by the recurrence
    # n c_n = sum_(j=1..n) ((p + 1) j - n) b_j c_(n-j) with p = k + 1
    c = [[F(1)]]
    for n in range(1, top + 1):
        acc = [F(0)] * (n + 1)
        for j in range(1, n + 1):
            for i, x in enumerate(c[n - j]):
                w = b[j] * x / n
                acc[i] += (2 * j - n) * w
                acc[i + 1] += j * w
        c.append(acc)
    return b, c


def _assert_lambda_g_brackets(g, brackets, count):
    """Every lambda_g bracket is multinom(2g-3+h; K) * b_g; the oracle shares
    no code with the engines or the elimination."""
    b_g = _faber_pandharipande_series(g)[0][g]
    top = [b for b in brackets if b.lam == g]
    assert len(top) == count
    for b in top:
        multinom = F(factorial(sum(b.psi)), prod(factorial(j) for j in b.psi))
        assert brackets[b] == multinom * b_g, b


@pytest.mark.parametrize("g,h,skipped,count", [(2, 6, 5, 14), (3, 5, 6, 18)])
def test_lambda_g_brackets_where_rows_are_skipped(g, h, skipped, count):
    result = elsv_inversion(g, h)
    candidates = list(islice(sample_candidates(g, h), 1000))
    assert candidates.index(result.grid[-1]) + 1 - len(result.grid) == skipped
    _assert_lambda_g_brackets(g, result.brackets, count)


def test_one_point_brackets_match_faber_pandharipande():
    # 1 + sum t^(2g) k^i <tau_(2g-2+i) lambda_(g-i)>_g = ((t/2)/sin(t/2))^(k+1)
    # (Faber-Pandharipande, Hodge integrals and Gromov-Witten theory, Thm 2)
    c = _faber_pandharipande_series(8)[1]
    for g in range(1, 9):
        brackets = elsv_inversion(g, 1).brackets
        assert len(brackets) == g + 1
        for i in range(g + 1):
            bracket = HodgeBracket(g, 1, (2 * g - 2 + i,), g - i)
            assert brackets[bracket] == c[g][i], bracket


@pytest.mark.parametrize("g,h,count",
                         [(4, 1, 1), (4, 2, 4), (5, 1, 1), (5, 2, 5), (4, 3, 10)])
def test_lambda_g_brackets_past_genus_three(g, h, count):
    # the round trips and the string equation cannot see an error that
    # scales every bracket of one genus; these closed forms can
    _assert_lambda_g_brackets(g, elsv_inversion(g, h).brackets, count)


def _sample_with(monkeypatch, adjust):
    """Make the inversion sample adjust(mu, count) in place of each
    character-sum count, through the module name it looks up per call."""
    from hurwitzlab import hodge

    def engine(g, mu, *args, **kwargs):
        return adjust(mu, connected_via_transform(g, mu, *args, **kwargs))

    monkeypatch.setattr(hodge, "connected_via_transform", engine)


def test_inversion_independent_of_sampling_orientation(monkeypatch):
    # evaluating the engine on reversed tuples is the same partition, and
    # the monomial-symmetric rows are symmetric, so the result cannot move
    from hurwitzlab import hodge

    res = elsv_inversion(0, 4).brackets

    def engine(g, mu, *args, **kwargs):
        return connected_via_transform(
            g, Partition(sorted(mu, reverse=True)), *args, **kwargs)

    monkeypatch.setattr(hodge, "connected_via_transform", engine)
    res2 = elsv_inversion(0, 4).brackets
    assert res == res2


def test_spot_check_catches_bad_engine(monkeypatch):
    _sample_with(monkeypatch, lambda mu, value: value + 1)  # consistently wrong
    with pytest.raises(ConsistencyError):
        elsv_inversion(1, 1)


def _off_by_one_at(monkeypatch, bad):
    """The character sums, but one too high at the profile ``bad``."""
    _sample_with(monkeypatch, lambda mu, value: value + (mu == bad))


def test_spot_check_runs_at_second_smallest_grid_point(monkeypatch):
    # (2,1,1,1,1) is the second smallest (0, 5) grid point, with r = 9
    _off_by_one_at(monkeypatch, Partition([2, 1, 1, 1, 1]))
    with pytest.raises(ConsistencyError):
        elsv_inversion(0, 5)


@pytest.mark.parametrize("g,h", [(0, 5), (1, 3)])
def test_spot_check_runs_at_every_grid_point(g, h, monkeypatch):
    # (0, 5) has the grid (1^5), (2,1^4); (1, 3) has five points
    grid = elsv_inversion(g, h).grid
    for bad in grid:
        _off_by_one_at(monkeypatch, bad)
        with pytest.raises(ConsistencyError):
            elsv_inversion(g, h)


def test_spot_check_runs_at_largest_grid_point(monkeypatch):
    # the two smallest points alone would let this engine through
    grid = elsv_inversion(2, 4).grid
    bad = max(grid, key=lambda p: (p.size, p))
    _off_by_one_at(monkeypatch, bad)
    with pytest.raises(ConsistencyError, match=f"mu={bad}"):
        elsv_inversion(2, 4)


def test_inversion_makes_no_dfs_call(monkeypatch):
    from hurwitzlab import hodge, hurwitz

    def refuse(*args, **kwargs):
        raise AssertionError("connected_dfs called")

    monkeypatch.setattr(hurwitz, "connected_dfs", refuse)
    monkeypatch.setattr(hodge, "connected_dfs", refuse, raising=False)
    assert len(elsv_inversion(1, 5).grid) == 12


def test_engine_memoizes_disconnected_counts(monkeypatch):
    # from cold memos the inversion builds each character column once per
    # cycle type, and sums each (d, r, mu) once; warm, it does neither
    from hurwitzlab import hurwitz

    columns, column = Counter(), hurwitz.column
    sums = hurwitz._character_tuple_count.cache_info

    def counted(mu):
        columns[mu] += 1
        return column(mu)

    monkeypatch.setattr(hurwitz, "column", counted)
    cold = elsv_inversion(2, 4)
    assert set(columns.values()) == {1}
    summed = sums()
    assert summed.currsize == summed.misses
    assert len(columns) < summed.misses  # some are summed at several r
    built = sum(columns.values())
    warm = elsv_inversion(2, 4)
    assert sum(columns.values()) == built
    assert sums() == summed
    assert warm.brackets == cold.brackets


def test_singular_interpolation_is_bounded(monkeypatch):
    # a stream that repeats one profile never reaches full rank
    import itertools

    from hurwitzlab import hodge

    monkeypatch.setattr(
        hodge, "sample_candidates",
        lambda g, h: itertools.repeat(Partition([1, 1])),
    )
    with pytest.raises(DomainError, match="singular interpolation system"):
        elsv_inversion(1, 2)


# --- string equation --------------------------------------------------------


def test_string_equation_passes_on_inverted_tables(table):
    report = string_equation_check(table)
    assert report.all_passed
    assert len(report.checks) >= 4
    checked = {str(c.lhs) for c in report.checks}
    assert "(0,4,[1,0,0,0],0)" in checked
    assert "(1,2,[2,0],0)" in checked


def test_string_equation_seed_only_table_has_no_checks():
    report = string_equation_check(HodgeTable())
    assert report.checks == []
    # the seed itself is skipped: its reduction lands on an unstable space
    assert len(report.skipped) == 1


def test_string_equation_detects_breakage():
    t = HodgeTable()
    invert_into(t, 0, 4)
    broken = HodgeTable()
    for b in t:
        if b.h == 4:
            broken.add(b, t.value(b) + 1)
        elif b.h != 3:
            broken.add(b, t.value(b))
    report = string_equation_check(broken)
    assert not report.all_passed


# --- string and dilaton for every lambda_i -----------------------------------
# lambda_i pulls back along the map forgetting a point, so both equations hold
# with any lambda_i inserted:
#   string:  <tau_0 tau_K lam_i>_(g,n+1) = sum_j <tau_(K: k_j -> k_j - 1) lam_i>_(g,n)
#   dilaton: <tau_1 tau_K lam_i>_(g,n+1) = (2g - 2 + n) <tau_K lam_i>_(g,n)
# string_equation_check covers the string equation at lambda_0 only.

_FORGETFUL_PAIRS = ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2))


@pytest.fixture(scope="module")
def forgetful_table():
    t = HodgeTable()
    for gh in _FORGETFUL_PAIRS:
        invert_into(t, *gh)
    return t


def _forgetful_checks(table):
    """(lhs bracket, actual, expected) for each string and dilaton instance
    whose forgotten space (g, n) is stable, keyed by equation."""
    out = {"string": [], "dilaton": []}
    for b in table:
        n = b.h - 1
        if n < 1 or 2 * b.g - 2 + n <= 0:
            continue
        actual = table.value(b)
        if 0 in b.psi:
            rest = list(b.psi)
            rest.remove(0)
            expected = sum(
                (table.value(HodgeBracket(b.g, n, rest[:j] + [k - 1] + rest[j + 1:],
                                          b.lam))
                 for j, k in enumerate(rest) if k),
                F(0))
            out["string"].append((b, actual, expected))
        if 1 in b.psi:
            rest = list(b.psi)
            rest.remove(1)
            expected = (2 * b.g - 2 + n) * table.value(HodgeBracket(b.g, n, rest, b.lam))
            out["dilaton"].append((b, actual, expected))
    return out


def test_string_and_dilaton_hold_for_every_lambda(forgetful_table):
    every_lambda = {(g, i) for g in range(3) for i in range(g + 1)}
    for equation, checks in _forgetful_checks(forgetful_table).items():
        bad = [(str(b), a, e) for b, a, e in checks if a != e]
        assert not bad, (equation, bad)
        assert {(b.g, b.lam) for b, _, _ in checks} == every_lambda, equation


def test_string_and_dilaton_catch_a_wrong_lambda_bracket(forgetful_table):
    # one bracket on each side of both equations
    for wrong in ("(2,1,[2],2)", "(1,3,[1,1,0],1)"):
        broken = HodgeTable()
        for b in forgetful_table:
            v = forgetful_table.value(b)
            broken.add(b, v + 1 if str(b) == wrong else v)
        for equation, checks in _forgetful_checks(broken).items():
            assert any(a != e for _, a, e in checks), (wrong, equation)


# --- serialization ----------------------------------------------------------


def test_export_import_round_trip(table):
    text = hodge_export(table)
    again = hodge_import(text)
    assert again == table
    assert hodge_export(again) == text  # canonical form is a fixed point


def test_export_is_deterministic(table):
    assert hodge_export(table) == hodge_export(table)


def test_export_seeded_only():
    text = hodge_export(HodgeTable())
    lines = text.strip().splitlines()
    assert lines[0] == "hurwitzlab-hodge-table v1"
    assert lines[1] == "(0,3,[0,0,0],0) 1 seeded"


def test_import_rejects_garbage():
    with pytest.raises(DomainError):
        hodge_import("what is this\n")
    with pytest.raises(DomainError):
        hodge_import("hurwitzlab-hodge-table v1\nbad line here and there\n")
    with pytest.raises(DomainError):  # the tag field is still required
        hodge_import("hurwitzlab-hodge-table v1\n(1,1,[1],0) 1/24\n")


def test_import_reads_values_and_export_writes_tags():
    # the tag is not stored: the export writes it from the bracket
    table = hodge_import("hurwitzlab-hodge-table v1\n"
                         "(1,1,[1],0) 1/24 seeded\n"
                         "(0,3,[0,0,0],0) 1 anything\n")
    assert table.value(HodgeBracket(g=1, h=1, psi=(1,), lam=0)) == F(1, 24)
    assert hodge_export(table).splitlines()[1:] == [
        "(0,3,[0,0,0],0) 1 seeded",
        "(1,1,[1],0) 1/24 inverted-from-hurwitz",
    ]


def test_required_brackets_counts():
    assert len(required_brackets(0, 3)) == 1
    assert len(required_brackets(1, 1)) == 2
    assert len(required_brackets(2, 1)) == 3
    assert len(required_brackets(1, 2)) == 3
