from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod

import pytest

from hurwitzlab.errors import ConsistencyError, DomainError, MissingBracketError
from hurwitzlab.hodge import (
    HodgeBracket,
    HodgeTable,
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
)
from hurwitzlab.hurwitz import connected_via_transform
from hurwitzlab.partitions import Partition

F = Fraction


def genus_zero_bracket(exponents):
    """Independent oracle: on the sphere the descendant bracket is the
    multinomial (h-3)! / prod j_k!."""
    h = len(exponents)
    return F(factorial(h - 3), prod(factorial(j) for j in exponents))


# --- brackets and tables ----------------------------------------------------


def test_bracket_sorts_exponents():
    b = HodgeBracket(g=0, h=4, psi=(0, 1, 0, 0), lam=0)
    assert b.psi == (1, 0, 0, 0)
    assert str(b) == "(0,4,[1,0,0,0],0)"
    assert HodgeBracket.from_string(str(b)) == b


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
    assert table.provenance(seed) == "seeded"


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
    assert t.value(seed) == 1 and t.provenance(seed) == "seeded"
    assert len(t) == 4


def test_required_brackets_rejects_negative_genus():
    with pytest.raises(DomainError, match="nonnegative"):
        required_brackets(-1, 5)


def test_inversion_metadata_and_normalization():
    result = elsv_inversion(1, 1)
    assert [m.parts for m in result.grid] == [(1,), (2,)]
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
        [monomial_symmetric(j, mu.parts) for j in exponents] for mu in samples
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


def test_inversion_independent_of_sampling_orientation():
    # evaluating the engine on reversed tuples is the same partition, and
    # the monomial-symmetric rows are symmetric, so the result cannot move
    res = elsv_inversion(0, 4).brackets
    engine = lambda g, mu: connected_via_transform(
        g, Partition(sorted(mu.parts, reverse=True)), "burnside"
    )
    res2 = elsv_inversion(0, 4, hurwitz_engine=engine).brackets
    assert res == res2


def test_spot_check_catches_bad_engine():
    def corrupt_engine(g, mu):
        value = connected_via_transform(g, mu, "burnside")
        return value + 1  # consistently wrong

    with pytest.raises(ConsistencyError):
        elsv_inversion(1, 1, hurwitz_engine=corrupt_engine)


def _off_by_one_at(bad):
    """The default engine, but one too high at the profile ``bad``."""
    exact = cache(lambda g, mu: connected_via_transform(g, mu, "burnside"))

    def engine(g, mu):
        return exact(g, mu) + 1 if mu == bad else exact(g, mu)
    return engine


def test_spot_check_runs_at_second_smallest_grid_point():
    # (2,1,1,1,1) is the second smallest (0, 5) grid point, with r = 9
    with pytest.raises(ConsistencyError):
        elsv_inversion(0, 5, hurwitz_engine=_off_by_one_at(Partition([2, 1, 1, 1, 1])))


@pytest.mark.parametrize("g,h", [(0, 5), (1, 3)])
def test_spot_check_runs_at_every_grid_point(g, h):
    # (0, 5) has the grid (1^5), (2,1^4); (1, 3) has five points
    grid = elsv_inversion(g, h).grid
    for bad in grid:
        with pytest.raises(ConsistencyError):
            elsv_inversion(g, h, hurwitz_engine=_off_by_one_at(bad))


def test_spot_check_runs_at_largest_grid_point():
    # the two smallest points alone would let this engine through
    grid = elsv_inversion(2, 4).grid
    bad = max(grid, key=lambda p: (p.size, p.parts))
    with pytest.raises(ConsistencyError, match=f"mu={bad}"):
        elsv_inversion(2, 4, hurwitz_engine=_off_by_one_at(bad))


def test_inversion_makes_no_dfs_call(monkeypatch):
    from hurwitzlab import hodge, hurwitz

    def refuse(*args, **kwargs):
        raise AssertionError("connected_dfs called")

    monkeypatch.setattr(hurwitz, "connected_dfs", refuse)
    monkeypatch.setattr(hodge, "connected_dfs", refuse, raising=False)
    assert len(elsv_inversion(1, 5).grid) == 12


def test_engine_memoizes_disconnected_counts(monkeypatch):
    # each (chi, mu) the inversion asks for costs one character column
    from hurwitzlab import hurwitz

    requests, columns = Counter(), Counter()
    burnside, column = hurwitz.disconnected_burnside, hurwitz.column

    def requested(chi, mu, **opts):
        requests[chi, mu] += 1
        return burnside(chi, mu, **opts)

    def counted(mu):
        columns[mu] += 1
        return column(mu)

    monkeypatch.setattr(hurwitz, "disconnected_burnside", requested)
    monkeypatch.setattr(hurwitz, "column", counted)
    hurwitz._character_tuple_count.cache_clear()
    result = elsv_inversion(2, 4)
    assert max(requests.values()) > 1
    assert sum(columns.values()) == len(requests)
    monkeypatch.undo()
    hurwitz._character_tuple_count.cache_clear()
    assert elsv_inversion(2, 4).brackets == result.brackets


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
    for b, v, _ in t.items():
        if b.h == 4:
            broken.add(b, v + 1)
        elif b.h != 3:
            broken.add(b, v)
    report = string_equation_check(broken)
    assert not report.all_passed


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


def test_required_brackets_counts():
    assert len(required_brackets(0, 3)) == 1
    assert len(required_brackets(1, 1)) == 2
    assert len(required_brackets(2, 1)) == 3
    assert len(required_brackets(1, 2)) == 3
