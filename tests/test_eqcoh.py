from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzlab import eqcoh, verify
from hurwitzlab.errors import ConsistencyError, DomainError
from hurwitzlab.eqcoh import (
    EquivariantPolyRing,
    HodgeClassPoly,
    Laurent,
    WeightMultiset,
    ab_integrate,
    elsv_via_localization,
    fixed_locus_data,
    fixed_point_weights_cover,
    format_hodge_class,
    grr_localization_check,
    hodge_euler_dual,
    inv_u_minus_psi,
    inverse_euler_normal,
    parse_hodge_class,
    point_class,
    pushforward_char_cover,
)
from hurwitzlab.hodge import HodgeTable, elsv_evaluate, invert_into
from hurwitzlab.partitions import Partition, partitions_of

F = Fraction


# --- Laurent ----------------------------------------------------------------


def test_laurent_arithmetic():
    u = Laurent.monomial(1)
    a = (u + 1) * (u - 1)
    assert a == u * u - 1
    assert (u**3).shifted(-5) == Laurent.monomial(-2)
    assert (2 * u).scaled(F(1, 2)) == u


def test_laurent_constant_and_substitution():
    c = Laurent.constant(F(3, 4))
    assert c.is_constant() and c.constant_value() == F(3, 4)
    p = Laurent({2: 1, -1: 2})
    assert not p.is_constant()
    assert p.substitute(F(1, 2)) == F(1, 4) + 4
    with pytest.raises(DomainError):
        p.substitute(0)


def test_laurent_zero_normalization():
    assert (Laurent.monomial(3) - Laurent.monomial(3)).is_zero()
    assert Laurent({5: 0}).is_zero()


@pytest.mark.parametrize("build", [
    lambda: Laurent({1.5: 1}),
    lambda: Laurent({1.5: 0}),
    lambda: Laurent({True: 1}),
    lambda: Laurent.monomial(1).shifted(0.5),
    lambda: WeightMultiset({1: 2.7}),
    lambda: WeightMultiset({1: True}),
    lambda: EquivariantPolyRing(2, [0, 1.5, -2]),
    lambda: EquivariantPolyRing(2.0),
    lambda: HodgeClassPoly(1.5, 2),
    lambda: HodgeClassPoly(1, 1, {((1.9,), ()): 1}),
    lambda: HodgeClassPoly(1, 1, {((True,), ()): 1}),
    lambda: HodgeClassPoly(2, 1, {((0,), (1.0,)): 1}),
], ids=["laurent-exponent", "laurent-zero-term", "laurent-bool",
        "laurent-shift",
        "multiplicity", "multiplicity-bool", "ring-weight", "ring-dimension",
        "hodge-genus", "psi-exponent",
        "psi-bool", "lambda-index"])
def test_non_integer_exponents_are_rejected_not_truncated(build):
    # int() would turn 1.5 into 1 and True into 1 without a word
    with pytest.raises(DomainError, match="expected an integer"):
        build()


@pytest.mark.parametrize("multiplicity", [1, 0])
def test_float_weights_are_rejected_even_on_a_zero_term(multiplicity):
    # a weight is an exact rational, so its own message; a zero term is
    # dropped only after its key is checked
    with pytest.raises(DomainError, match="expected an exact rational"):
        WeightMultiset({0.5: multiplicity})


# --- weight multisets -------------------------------------------------------


def test_weight_multiset_virtual_arithmetic():
    a = WeightMultiset.from_weights([1, 1, F(1, 2)])
    b = WeightMultiset.from_weights([1])
    diff = a - b
    assert diff == WeightMultiset({1: 1, F(1, 2): 1})
    assert (b - a).terms[F(1, 2)] == -1
    assert (a - a).is_empty()


# --- fixed point data and pushforward characters ----------------------------


def test_fixed_point_weights_line():
    (t0, f0), (t1, f1) = fixed_point_weights_cover(0, 0, 1)
    assert t0 == WeightMultiset({1: 1}) and t1 == WeightMultiset({-1: 1})
    assert f0 == WeightMultiset({0: 1}) and f1 == WeightMultiset({0: 1})
    (_, f0), (_, f1) = fixed_point_weights_cover(1, 2, 1)
    assert f0 == WeightMultiset({1: 1}) and f1 == WeightMultiset({-1: 1})


def test_fiber_weight_difference_is_degree():
    for a in range(-3, 4):
        for k in range(-5, 6):
            (_, f0), (_, f1) = fixed_point_weights_cover(a, k, 1)
            (w0, _), = f0.items()
            (w1, _), = f1.items()
            assert w0 - w1 == k


def test_pushforward_char_line_cases():
    h0, h1 = pushforward_char_cover(1, 0, 1)
    assert h0 == WeightMultiset({0: 1, -1: 1}) and h1.is_empty()
    h0, h1 = pushforward_char_cover(-1, 0, 1)
    assert h0.is_empty() and h1.is_empty()
    h0, h1 = pushforward_char_cover(-3, 0, 1)
    assert h0.is_empty() and h1 == WeightMultiset({1: 1, 2: 1})


def test_pushforward_char_cover_cases():
    h0, h1 = pushforward_char_cover(1, 0, 2)
    assert h0 == WeightMultiset({0: 1, F(-1, 2): 1, -1: 1}) and h1.is_empty()
    h0, h1 = pushforward_char_cover(0, 5, 3)
    assert h0 == WeightMultiset({5: 1}) and h1.is_empty()
    h0, h1 = pushforward_char_cover(-1, 0, 2)
    assert h0.is_empty() and h1 == WeightMultiset({F(1, 2): 1})


def test_pushforward_weights_match_the_rational_formula():
    # each weight is built as one Fraction and the multisets skip the
    # validating constructor; both must give the formula's clean multiset
    for d in range(1, 4):
        for k in range(-3, 4):
            for a in (-2, 0, 3, F(3, 2)):
                h0, h1 = pushforward_char_cover(k, a, d)
                assert h0 == WeightMultiset.from_weights(
                    a - F(i, d) for i in range(k * d + 1)), (k, a, d)
                assert h1 == WeightMultiset.from_weights(
                    a + F(i, d) for i in range(1, -k * d)), (k, a, d)
                for ws in (h0, h1, h0 - h1, -h0, h0 + h1):
                    assert ws == WeightMultiset(ws.terms)
                    assert all(type(w) is F and m for w, m in ws.terms.items())


def test_pushforward_rejects_an_inexact_twist():
    with pytest.raises(DomainError):
        pushforward_char_cover(1, 0.5, 2)
    with pytest.raises(DomainError):
        pushforward_char_cover(-2, 0.5, 2)


def test_cover_degree_one_agrees_with_line():
    # the line: H0 = {a - i : 0 <= i <= k}, H1 = {a + i : 1 <= i <= -k - 1}
    for k in range(-4, 5):
        for a in range(-2, 3):
            line = (
                WeightMultiset.from_weights(a - i for i in range(k + 1)),
                WeightMultiset.from_weights(a + i for i in range(1, -k)),
            )
            assert pushforward_char_cover(k, a, 1) == line, (k, a)


# --- GRR --------------------------------------------------------------------


def test_grr_rejects_perturbed_claim():
    fp = fixed_point_weights_cover(0, 1, 1)
    h0, h1 = pushforward_char_cover(1, 0, 1)
    assert grr_localization_check(fp, (h0 - h1) + WeightMultiset({7: 1})) is False


def test_grr_zero_tangent_weight_rejected():
    bad = [(WeightMultiset({0: 1}), WeightMultiset({1: 1}))]
    with pytest.raises(DomainError):
        grr_localization_check(bad, WeightMultiset())


def test_grr_nonpositive_tangent_multiplicity_rejected():
    bad = [(WeightMultiset({1: -1}), WeightMultiset({1: 1}))]
    with pytest.raises(DomainError):
        grr_localization_check(bad, WeightMultiset())


# An oracle for grr_localization_check that clears no denominator: evaluate
# sum_j N_j(q) / D_j(q) and C(q) at rational points q other than 0 and +-1,
# where no D_j vanishes, with q = e^(u/D) and D the common weight denominator.
_Q_POINTS = (F(2), F(-3, 2), F(5, 7))


def _grr_by_substitution(fixed_points, claimed):
    multisets = [claimed] + [ws for pair in fixed_points for ws in pair]
    scale = lcm(*(F(w).denominator for ws in multisets for w in ws.terms))

    def value(ws, q):
        return sum((m * q ** int(w * scale) for w, m in ws.terms.items()), F(0))

    def euler(tangent, q):  # prod (1 - q^(-x))^m
        return prod((1 - q ** int(-w * scale)) ** m
                    for w, m in tangent.terms.items())

    return all(
        sum((value(fiber, q) / euler(tangent, q)
             for tangent, fiber in fixed_points), F(0)) == value(claimed, q)
        for q in _Q_POINTS
    )


_weights = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
_nonzero_weights = _weights.filter(bool)
_multiplicities = st.integers(-3, 3).filter(bool)


def _times_euler(ws, tangent):
    """The weight multiset of ws * prod (1 - e^(-x))^m, by hand."""
    out = Counter(ws.terms)
    for x, m in tangent.terms.items():
        for _ in range(m):
            step = Counter(out)
            for w, c in out.items():
                step[w - x] -= c
            out = step
    return WeightMultiset(out)


@st.composite
def _fixed_point_data(draw):
    """(fixed points, claimed, verdict).  "true" builds each fiber as
    C_j * D_j, so the claim sum_j C_j holds; "perturbed" adds one weight to
    that claim, so it fails; "random" draws fibers and claim freely, and
    leaves the verdict to the oracle.  The first tangent weight has
    multiplicity at least 2."""
    mode = draw(st.sampled_from(["true", "perturbed", "random"]))
    fixed_points, claimed = [], WeightMultiset()
    for j in range(draw(st.integers(1, 3))):
        tangent = WeightMultiset(draw(st.dictionaries(
            _nonzero_weights, st.integers(1, 3), min_size=1, max_size=2)))
        if j == 0:
            x = next(iter(tangent.terms))
            tangent = tangent + WeightMultiset({x: draw(st.integers(1, 2))})
        c_j = WeightMultiset(draw(st.dictionaries(
            _weights, _multiplicities, max_size=3)))
        if mode == "random":
            fixed_points.append((tangent, c_j))
        else:
            fixed_points.append((tangent, _times_euler(c_j, tangent)))
            claimed = claimed + c_j
    if mode == "random":
        claimed = WeightMultiset(draw(st.dictionaries(
            _weights, _multiplicities, max_size=4)))
    elif mode == "perturbed":
        claimed = claimed + WeightMultiset({draw(_weights): draw(_multiplicities)})
    return fixed_points, claimed, {"true": True, "perturbed": False}.get(mode)


@settings(max_examples=150, deadline=None)
@given(_fixed_point_data())
def test_grr_agrees_with_substitution_oracle(data):
    fixed_points, claimed, verdict = data
    assert max(m for m in fixed_points[0][0].terms.values()) > 1
    oracle = _grr_by_substitution(fixed_points, claimed)
    assert grr_localization_check(fixed_points, claimed) == oracle
    if verdict is not None:
        assert oracle == verdict


def test_grr_line_and_cover_grids():
    # verify's whole grid, each claim and a perturbed one, by both routes
    for d in (1, 2, 3, 4):
        for k in range(-5, 6):
            for a in range(-3, 4):
                fp = fixed_point_weights_cover(a, k, d)
                h0, h1 = pushforward_char_cover(k, a, d)
                assert grr_localization_check(fp, h0 - h1), (d, k, a)
                assert _grr_by_substitution(fp, h0 - h1), (d, k, a)
                off = (h0 - h1) + WeightMultiset({a: 1})
                assert not grr_localization_check(fp, off), (d, k, a)
                assert not _grr_by_substitution(fp, off), (d, k, a)


def _plane_data(k, a, w=(0, -1, -3)):
    # projective plane with distinct coordinate weights: three isolated fixed
    # points, two tangent weights each; sections of O(k) are the degree-k
    # monomials, weighted by their exponents
    fps = []
    for i in range(3):
        tangent = WeightMultiset.from_weights(
            w[j] - w[i] for j in range(3) if j != i
        )
        fiber = WeightMultiset.from_weights([a - k * (w[i] - w[0])])
        fps.append((tangent, fiber))
    h0 = []
    if k >= 0:
        for combo in combinations_with_replacement(range(3), k):
            h0.append(a - sum(w[j] - w[0] for j in combo))
    return fps, WeightMultiset.from_weights(h0)


def test_grr_two_dimensional_fixed_points():
    for k in range(0, 6):
        for a in (-2, 0, 3):
            fps, claimed = _plane_data(k, a)
            assert grr_localization_check(fps, claimed), (k, a)
    for k in range(0, 5):
        fps, claimed = _plane_data(k, 1, w=(0, -2, -5))
        assert grr_localization_check(fps, claimed), k


def test_grr_repeated_tangent_weights():
    # product of two lines under the diagonal action: the corner fixed
    # points carry the tangent weight 1 (or -1) with multiplicity two
    def product_data(k1, a1, k2, a2):
        line1 = fixed_point_weights_cover(a1, k1, 1)
        line2 = fixed_point_weights_cover(a2, k2, 1)
        fps = [
            (
                t1 + t2,
                WeightMultiset.from_weights(
                    w1 + w2
                    for w1, _ in f1.items()
                    for w2, _ in f2.items()
                ),
            )
            for t1, f1 in line1
            for t2, f2 in line2
        ]
        h0a = pushforward_char_cover(k1, a1, 1)[0]
        h0b = pushforward_char_cover(k2, a2, 1)[0]
        claimed = WeightMultiset.from_weights(
            w1 + w2
            for w1, m1 in h0a.items()
            for _ in range(m1)
            for w2, m2 in h0b.items()
            for _ in range(m2)
        )
        return fps, claimed

    corner_tangent = product_data(1, 0, 1, 0)[0][0][0]
    assert corner_tangent == WeightMultiset({1: 2})
    for k1 in range(0, 4):
        for k2 in range(0, 4):
            fps, claimed = product_data(k1, -1, k2, 1)
            assert grr_localization_check(fps, claimed), (k1, k2)


# --- the quotient ring and integration --------------------------------------


def test_ring_relation_reduces():
    ring = EquivariantPolyRing(2)
    # H(H - u)(H - 2u) = 0 in the ring
    u = ring.u()
    assert ring.H * (ring.H - u) * (ring.H - Laurent.monomial(1, 2) * ring.one) == ring.zero


def test_ring_axioms_spot():
    ring = EquivariantPolyRing(3)
    u = Laurent.monomial(1)
    x = ring.H + ring.element([u])
    y = ring.H * ring.H - ring.element([u * u])
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    assert x * ring.one == x


def test_ab_integrate_point_class():
    for r in range(1, 9):
        ring = EquivariantPolyRing(r)
        assert ab_integrate(ring, point_class(ring)) == Laurent.constant(1)


def test_ab_integrate_low_degree_vanishes():
    ring = EquivariantPolyRing(2)
    assert ab_integrate(ring, ring.one).is_zero()
    assert ab_integrate(ring, ring.H).is_zero()


def test_ab_integrate_top_power():
    ring = EquivariantPolyRing(2)
    value = ab_integrate(ring, ring.H**2)
    assert value == Laurent.constant(1)  # u-independent, nonequivariant limit 1


def _complete_homogeneous(m, xs):
    if m < 0:
        return 0
    return sum(prod(c) for c in combinations_with_replacement(xs, m))


@pytest.mark.parametrize("weights", [None, (2, -3, 5, 0, -7), (1, 4, -2, 9, 3)])
def test_ab_integrate_powers_of_h(weights):
    # int H^k = h_(k-r)(-a_0, ..., -a_r) u^(k-r): the residue sum of
    # x_i^k / prod_(j != i) (x_i - x_j), worked out without the relation
    for r in range(1, 5):
        ring = EquivariantPolyRing(r, None if weights is None else weights[:r + 1])
        xs = [-a for a in ring.weights]
        for k in range(2 * r + 3):
            expected = Laurent.monomial(k - r, _complete_homogeneous(k - r, xs))
            assert ab_integrate(ring, ring.H**k) == expected, (weights, r, k)


def test_ab_integrate_u_independent_for_honest_classes():
    # a genuinely equivariant class of top degree: any product of (H - j u)
    ring = EquivariantPolyRing(4)
    cls = point_class(ring, 2)
    value = ab_integrate(ring, cls)
    assert value.is_constant() and value.constant_value() == 1


def test_ab_integrate_needs_distinct_weights():
    ring = EquivariantPolyRing(2, weights=(0, 0, -1))
    with pytest.raises(DomainError):
        ab_integrate(ring, ring.one)


# --- the truncated psi/lambda algebra ---------------------------------------


def psi_class(g, h, index):
    psi = [0] * h
    psi[index] = 1
    return HodgeClassPoly(g, h, {(tuple(psi), ()): F(1)})


def test_hodge_class_truncation():
    p = psi_class(0, 3, 0)  # cap = 0
    assert p.is_zero()
    q = psi_class(1, 1, 0)  # cap = 1
    assert not q.is_zero()
    assert (q * q).is_zero()


def test_hodge_class_rejects_bad_keys():
    with pytest.raises(DomainError, match="psi"):
        HodgeClassPoly(1, 2, {((1,), ()): 1})  # one exponent for two points
    with pytest.raises(DomainError, match="psi"):
        HodgeClassPoly(1, 1, {((-1,), ()): 1})
    with pytest.raises(DomainError, match="lambda"):
        HodgeClassPoly(1, 1, {((0,), (2,)): 1})  # lambda_2 on genus one
    with pytest.raises(DomainError, match="lambda"):
        HodgeClassPoly(2, 1, {((0,), (0,)): 1})


_coefficients = st.dictionaries(
    st.integers(-2, 2), st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    max_size=2)


@st.composite
def _hodge_classes(draw, g, h):
    """A class through the validating constructor, with some keys above the
    cap and some zero coefficients, which it drops.  Most psi exponents are
    small, so that most products survive the truncation."""
    cap = 3 * g - 3 + h
    keys = st.tuples(
        st.tuples(*[st.sampled_from([0, 0, 0, 1, 2, cap + 1])] * h),
        st.lists(st.integers(1, g), max_size=2) if g else st.just([]),
    )
    terms = draw(st.lists(st.tuples(keys, _coefficients), max_size=5))
    return HodgeClassPoly(
        g, h, {(psi, tuple(lam)): Laurent(c) for (psi, lam), c in terms})


def _assert_clean(poly):
    assert poly == HodgeClassPoly(poly.g, poly.h, poly.terms)
    for (psi, lam), coef in poly.terms.items():
        assert coef, (psi, lam)
        assert sum(psi) + sum(lam) <= poly.cap
        assert list(lam) == sorted(lam)


@pytest.mark.parametrize("g,h", [(0, 3), (0, 5), (1, 1), (1, 3), (2, 1), (2, 2)])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_algebra_results_equal_the_validated_class(g, h, data):
    # sums, products and rescalings skip the constructor; re-running it on
    # their terms changes nothing
    a = data.draw(_hodge_classes(g, h))
    b = data.draw(_hodge_classes(g, h))
    c = data.draw(st.builds(F, st.integers(-4, 4), st.integers(1, 4)))
    u = Laurent(data.draw(_coefficients))
    for result in (a * b, b * a, a + b, a - b, a * 3, a.scaled(c), a.scaled(0),
                   a * c, c * a, a * u, a * 0):
        _assert_clean(result)
    assert a.scaled(0).is_zero() and (a - a).is_zero() and (a * 0).is_zero()
    # a scalar scales each coefficient, as the product with its class would
    for s in (3, c, u, 0):
        assert a * s == s * a == a * HodgeClassPoly.scalar(g, h, s)


def test_algebra_products_sort_lambda_indices():
    lam2, lam1 = (HodgeClassPoly(2, 1, {((0,), (i,)): 1}) for i in (2, 1))
    product = lam2 * lam1
    assert product.terms == {((0,), (1, 2)): Laurent.constant(1)}
    _assert_clean(product)


def test_hodge_euler_dual_structure():
    lam = hodge_euler_dual(2, 1)
    terms = dict(lam.terms)
    assert terms[((0,), ())] == Laurent.monomial(2)
    assert terms[((0,), (1,))] == Laurent.monomial(1, -1)
    assert terms[((0,), (2,))] == Laurent.constant(1)


def test_inv_u_minus_psi_geometric_series():
    inv = inv_u_minus_psi(2, 1, 2, 0)  # cap 4
    # u^-1 sum (2 psi / u)^j
    assert inv.terms[((0,), ())] == Laurent.monomial(-1)
    assert inv.terms[((3,), ())] == Laurent.monomial(-4, 8)
    assert ((4,), ()) in inv.terms and ((5,), ()) not in inv.terms


# --- fixed locus and the localization chain ---------------------------------


def test_fixed_locus_data_examples():
    data = fixed_locus_data(1, Partition([2]))
    assert data.b4_moving == ((F(1, 2), 0),)
    assert data.cover_weights == WeightMultiset({F(1, 2): 1, 1: 1})
    assert data.trivial_moving.is_empty()  # h - 1 = 0 copies
    assert data.automorphism_order == 2

    data = fixed_locus_data(0, Partition([1, 1, 1]))
    assert data.b4_moving == ((F(1), 0), (F(1), 1), (F(1), 2))
    assert data.hodge_twist == 1
    assert data.b1_fixed == WeightMultiset({0: 3})
    assert data.b2_fixed == WeightMultiset({0: 3})

    assert fixed_locus_data(1, Partition([3, 2])).automorphism_order == 6


def test_fixed_locus_rejects_unstable():
    with pytest.raises(DomainError):
        fixed_locus_data(0, Partition([4, 2]))  # (0, 2)
    with pytest.raises(DomainError):
        fixed_locus_data(0, Partition([5]))  # (0, 1)
    with pytest.raises(DomainError):
        fixed_locus_data(2, Partition())  # no marked points


def test_inverse_euler_normal_three_sheets():
    inv = inverse_euler_normal(fixed_locus_data(0, Partition([1, 1, 1])))
    # cap is 0: only the scalar term u^(h-d-1) * u^(-h) = u^-4 survives
    assert inv.terms == {((0, 0, 0), ()): Laurent.monomial(-4)}


def test_inverse_euler_normal_genus_one_double_cover():
    inv = inverse_euler_normal(fixed_locus_data(1, Partition([2])))
    expected = parse_hodge_class("4 u^-2 + 8 u^-3 psi1 + -4 u^-3 lam1", 1, 1)
    assert inv == expected


@pytest.mark.parametrize("g", [0, 1, 2])
def test_compositional_equals_closed_form_grid(g):
    # the function itself raises on any mismatch between the piece-built
    # product and the closed form
    for h in (1, 2, 3):
        if 2 * g - 2 + h <= 0:
            continue
        for size in range(h, 13):
            for mu in partitions_of(size):
                if mu.length != h or mu.parts[0] > 4:
                    continue
                inverse_euler_normal(fixed_locus_data(g, mu))


@pytest.fixture(scope="module")
def table():
    t = HodgeTable()
    for gh in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
        invert_into(t, *gh)
    return t


def test_localization_known_values(table):
    assert elsv_via_localization(0, Partition([1, 1, 1]), table) == 4
    assert elsv_via_localization(1, Partition([2]), table) == F(1, 2)
    assert elsv_via_localization(0, Partition([2, 1, 1]), table) == 120


def test_localization_matches_evaluate(table):
    for g, mu in [
        (0, Partition([3, 1, 1])),
        (1, Partition([3])),
        (1, Partition([2, 2])),
        (2, Partition([2])),
    ]:
        assert elsv_via_localization(g, mu, table) == elsv_evaluate(g, mu, table)


def test_localization_u_substitution_is_constant(table):
    reference = elsv_via_localization(1, Partition([2, 1]), table)
    for a in (1, 7, F(-3, 5), F(1, 9)):
        assert elsv_via_localization(1, Partition([2, 1]), table, u_value=a) == reference


def test_localization_rejects_zero_substitution(table):
    with pytest.raises(DomainError):
        elsv_via_localization(1, Partition([2]), table, u_value=0)


def test_nonlinear_lambda_monomials_rejected(table):
    from hurwitzlab.eqcoh import _bracket_for_term

    with pytest.raises(DomainError):
        _bracket_for_term(2, 1, (0,), (1, 1), table)


# --- the memoized expansion -------------------------------------------------


@pytest.fixture()
def fresh_expansions():
    eqcoh._top_degree_terms.cache_clear()
    yield
    eqcoh._top_degree_terms.cache_clear()


def _perturbed(inv, extra):
    """``inv`` with ``extra`` (a Laurent polynomial) added to the coefficient
    of its top-degree pure psi monomial psi_1^cap."""
    key = ((inv.cap,) + (0,) * (inv.h - 1), ())
    return inv + HodgeClassPoly(inv.g, inv.h, {key: extra})


def test_localization_suite_builds_each_expansion_once(
        fresh_expansions, monkeypatch):
    builds = Counter()
    calls = Counter()
    real_inverse, real_loc = eqcoh.inverse_euler_normal, verify.elsv_via_localization

    def counted_inverse(data):
        builds[data.g, data.mu] += 1
        return real_inverse(data)

    def counted_loc(g, mu, table, u_value=None):
        calls[g, mu] += 1
        return real_loc(g, mu, table, u_value=u_value)

    monkeypatch.setattr(eqcoh, "inverse_euler_normal", counted_inverse)
    monkeypatch.setattr(verify, "elsv_via_localization", counted_loc)
    results = verify.localization_rederivation_checks()
    assert all(r.passed for r in results)
    assert set(builds) == set(calls) and len(builds) == 42
    assert set(builds.values()) == {1}  # one build per (g, mu) ...
    assert sum(calls.values()) == 168   # ... for four calls per (g, mu)


def test_a_wrong_top_degree_coefficient_fails_the_rederivation(
        fresh_expansions, monkeypatch):
    real_inverse = eqcoh.inverse_euler_normal

    def wrong_at_genus_one_two_marks(data):
        inv = real_inverse(data)
        if (data.g, data.mu.length) != (1, 2):
            return inv
        r = 2 * data.g - 2 + data.mu.size + data.mu.length
        return _perturbed(inv, Laurent.monomial(-r))  # still constant in u

    monkeypatch.setattr(eqcoh, "inverse_euler_normal",
                        wrong_at_genus_one_two_marks)
    results = {r.name: r.passed
               for r in verify.localization_rederivation_checks()}
    assert results.pop("re-derivation (g,h)=(1,2)") is False
    assert all(results.values())


def test_a_u_dependent_top_degree_coefficient_raises(
        fresh_expansions, monkeypatch, table):
    real_inverse = eqcoh.inverse_euler_normal
    mu = Partition([2, 1])
    r = 2 * 1 - 2 + mu.size + mu.length
    monkeypatch.setattr(
        eqcoh, "inverse_euler_normal",
        lambda data: _perturbed(real_inverse(data), Laurent.monomial(1 - r)))
    for _ in range(2):  # the check runs on every call, memo hit or not
        with pytest.raises(ConsistencyError, match="u-dependence"):
            elsv_via_localization(1, mu, table)


# --- text grammar -----------------------------------------------------------


def test_grammar_round_trip():
    poly = inverse_euler_normal(fixed_locus_data(2, Partition([3])))
    text = format_hodge_class(poly)
    assert parse_hodge_class(text, 2, 1) == poly


def test_grammar_zero():
    zero = HodgeClassPoly(1, 1)
    assert format_hodge_class(zero) == "0"
    assert parse_hodge_class("0", 1, 1) == zero


def test_grammar_examples():
    poly = parse_hodge_class("1/2 u^-1 psi1^2 + -3 lam1", 2, 1)
    assert poly.terms[((2,), ())] == Laurent.monomial(-1, F(1, 2))
    assert poly.terms[((0,), (1,))] == Laurent.constant(-3)
    assert format_hodge_class(poly) == "-3 lam1 + 1/2 u^-1 psi1^2"


def test_grammar_rejects_garbage():
    with pytest.raises(DomainError):
        parse_hodge_class("1 zeta3", 1, 1)
    with pytest.raises(DomainError):
        parse_hodge_class("spam", 1, 1)
