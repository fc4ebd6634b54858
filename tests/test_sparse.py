"""The arithmetic that ``sparse.Element`` writes once for the five exact
algebras: frames, scalars, zero, powers and foreign operands."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzlab.eqcoh import (
    EquivariantPolyRing,
    Laurent,
    WeightMultiset,
    hodge_euler_dual,
    inv_u_minus_psi,
)
from hurwitzlab.errors import DomainError
from hurwitzlab.hurwitz import HurwitzSeries


def _series(max_size=4, max_exp=2):
    s = HurwitzSeries.one(max_size, max_exp)
    s.set_coefficient((2,), -1, 3)
    s.set_coefficient((1, 1), 0, F(1, 2))
    return s


def _hodge_class(h):
    # terms in several powers of u, some with Fraction coefficients
    return hodge_euler_dual(1, h) * inv_u_minus_psi(1, h, F(1, 2), 0)


def _ring_element(ring):
    return ring.H * ring.H + ring.u(1, 3) * ring.H - 2


#: name -> () -> (an element, an element of the same class in another frame
#: or None when the class has one frame)
ELEMENTS = {
    "Laurent": lambda: (Laurent({-1: 2, 3: F(1, 2)}), None),
    "WeightMultiset": lambda: (WeightMultiset({1: 2, F(1, 2): -1}), None),
    "RingElement": lambda: (_ring_element(EquivariantPolyRing(2)),
                            _ring_element(EquivariantPolyRing(2))),
    "HodgeClassPoly": lambda: (_hodge_class(2), _hodge_class(3)),
    "HurwitzSeries": lambda: (_series(), _series(max_exp=3)),
}


@pytest.mark.parametrize("name", [n for n, make in ELEMENTS.items()
                                  if make()[1] is not None])
def test_a_frame_mismatch_raises(name):
    x, y = ELEMENTS[name]()
    for combine in (lambda a, b: a + b, lambda a, b: a - b,
                    lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(DomainError):
            combine(x, y)


@pytest.mark.parametrize("name", ELEMENTS)
def test_difference_zero_and_powers(name):
    x, _ = ELEMENTS[name]()
    assert (x - x).is_zero() and not (x - x) and x
    assert x + (-x) == x * 0 == 0
    assert x ** 0 == 1 and (x ** 0) * x == x
    assert x ** 1 == x and x ** 3 == x * x * x
    assert 2 * x == x + x == x * 2 == x.scaled(2)
    assert 1 - x == -(x - 1)
    with pytest.raises(DomainError):
        x ** -1


@pytest.mark.parametrize("name", ELEMENTS)
def test_a_foreign_operand_is_not_implemented(name):
    x, _ = ELEMENTS[name]()
    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__eq__"):
        assert getattr(x, method)("1") is NotImplemented, method
        assert getattr(x, method)(1.5) is NotImplemented, method
    with pytest.raises(TypeError):
        x + "1"
    with pytest.raises(TypeError):
        1.5 * x
    assert x != "1"
    with pytest.raises(DomainError):
        x.scaled(1.5)


def test_different_algebras_do_not_combine():
    u = Laurent.monomial(1)
    for other in (WeightMultiset({1: 1}), HurwitzSeries.one(2, 1)):
        with pytest.raises(TypeError):
            u + other
        with pytest.raises(TypeError):
            other * u


def test_weight_multisets_multiply_as_characters():
    # the tensor product of representations: weights add
    a = WeightMultiset.from_weights([0, 1])
    b = WeightMultiset.from_weights([F(1, 2), 1])
    assert a * b == WeightMultiset({F(1, 2): 1, 1: 1, F(3, 2): 1, 2: 1})
    assert a * 1 == a and (a * b).terms == (b * a).terms


_laurents = st.dictionaries(
    st.integers(-3, 3), st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    max_size=3).map(Laurent)
_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(_laurents, _laurents, _fractions)
def test_laurent_results_equal_the_validated_class(a, b, c):
    # sums, products, rescalings and shifts skip the constructor; re-running
    # it on their terms changes nothing
    for result in (a * b, a + b, a - b, -a, a * 3, c * a, a.scaled(c),
                   a * 0, a ** 2, 1 - a, a + c, a.shifted(-2)):
        assert result == Laurent(result.terms)
        assert all(result.terms.values())


@settings(max_examples=25, deadline=None)
@given(st.lists(_laurents, min_size=1, max_size=4),
       st.lists(_laurents, min_size=1, max_size=4), _laurents, _fractions)
def test_ring_results_equal_the_validated_class(xs, ys, u, c):
    ring = EquivariantPolyRing(3, (2, -1, 0, 5))
    x, y = ring.element(xs), ring.element(ys)
    for result in (x * y, x + y, x - y, -x, x * c, u * x, x ** 2, 1 - x,
                   x * 0, x * ring.H ** 3):
        assert result == ring.element(
            [result.terms.get(i, 0) for i in range(ring.r + 1)])
        assert set(result.terms) <= set(range(ring.r + 1))
        assert all(result.terms.values())
    assert x * u == ring.element([u]) * x
