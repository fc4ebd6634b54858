from fractions import Fraction
from math import factorial

import pytest

from hurwitzlab.errors import ConsistencyError
from hurwitzlab.hodge import HodgeBracket, elsv_inversion
from hurwitzlab.oracles import check_block, expected


@pytest.mark.parametrize("g, psi, value", [
    (1, (1,), Fraction(1, 24)),
    (1, (1, 1), Fraction(1, 24)),
    (2, (4,), Fraction(1, 1152)),
    (2, (4, 1), Fraction(1, 384)),
    (2, (3, 2), Fraction(29, 5760)),
    (2, (2, 2, 2), Fraction(7, 240)),
    (3, (7,), Fraction(1, 82944)),
])
def test_dvv_gives_the_tabulated_psi_integrals(g, psi, value):
    # Witten's tables: <tau_(3g-2)>_g = 1 / (24^g g!), <tau_2 tau_3>_2 =
    # 29/5760, <tau_2^3>_2 = 7/240; string and dilaton give the rest
    bracket = HodgeBracket(g, len(psi), psi, 0)
    assert expected(bracket) == (
        "one-point formula" if len(psi) == 1 else "DVV recursion", value)


@pytest.mark.parametrize("g, i, value", [
    (1, 0, Fraction(1, 24)),
    (2, 0, Fraction(7, 5760)),
    (2, 1, Fraction(1, 480)),
    (3, 0, Fraction(31, 967680)),
] + [(g, g, Fraction(1, 24**g * factorial(g))) for g in range(1, 8)])
def test_one_point_formula_values(g, i, value):
    # <tau_(2g-2+i) lambda_(g-i)>_g: at i = 0 the lambda_g integral b_g, at
    # i = g the pure psi integral
    bracket = HodgeBracket(g, 1, (2 * g - 2 + i,), g - i)
    assert expected(bracket) == ("one-point formula", value)


@pytest.mark.parametrize("g, psi, value", [
    (0, (0, 0, 0), 1),
    (0, (1, 1, 0, 0, 0), 2),
    (0, (2, 1, 0, 0, 0, 0), 3),
    (2, (2, 1), 3 * Fraction(7, 5760)),
])
def test_lambda_g_formula(g, psi, value):
    # <tau_K lambda_g>_g = multinom(2g-3+h; K) b_g; at genus 0 the
    # multinomial psi integrals
    assert expected(HodgeBracket(g, len(psi), psi, g)) == (
        "lambda_g formula", value)


def test_lambda_i_brackets_in_between_have_no_check():
    # lambda_1 at genus 2 and h = 2 has no closed form here
    assert expected(HodgeBracket(2, 2, (3, 1), 1)) is None


def test_check_block_passes_inverted_blocks_and_names_a_wrong_bracket():
    block = elsv_inversion(2, 2).brackets
    check_block(block)
    bracket = HodgeBracket(2, 2, (4, 1), 0)
    block[bracket] *= 2
    with pytest.raises(ConsistencyError) as caught:
        check_block(block)
    assert str(caught.value) == (
        "closed-form gate at (2,2,[4,1],0): the block gives 1/192, the DVV "
        "recursion gives 1/384")
