"""Closed forms and the Virasoro recursion for linear Hodge integrals.

A second route on the brackets ``hodge`` writes, sharing no code with the
cover engines, the inversion or ELSV: it imports neither ``hurwitz`` nor
``eqcoh``, and reads a bracket only through its ``g``, ``h``, ``psi`` and
``lam`` fields.  Three checks:

* the Faber-Pandharipande one-point formula (Hodge integrals and
  Gromov-Witten theory, arXiv:math/9810173, Theorem 2), which fixes every
  bracket with one marked point:
  1 + sum_{g>=1} sum_{i=0..g} t^(2g) k^i <tau_(2g-2+i) lambda_(g-i)>_g
  = ((t/2) / sin(t/2))^(k+1);
* the lambda_g formula at every h: <tau_K lambda_g>_g =
  multinom(2g-3+h; K) b_g, with sum b_g t^(2g) = (t/2) / sin(t/2);
* the Dijkgraaf-Verlinde-Verlinde (Virasoro) recursion for the lambda_0
  brackets, from <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.

``check_block`` holds a block of brackets to whichever of them applies.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

from .errors import ConsistencyError


@cache
def _theta_series(n):
    """b_0 .. b_n with sum b_g t^(2g) = (t/2) / sin(t/2): the reciprocal of
    sin(t/2) / (t/2) = sum_k (-1)^k t^(2k) / (4^k (2k+1)!)."""
    sine = [Fraction((-1) ** k, 4**k * factorial(2 * k + 1)) for k in range(n + 1)]
    out = []
    for m in range(n + 1):
        out.append(int(m == 0) - sum(sine[k] * out[m - k] for k in range(1, m + 1)))
    return tuple(out)


@cache
def _one_point(g):
    """[k^i t^(2g)] ((t/2) / sin(t/2))^(k+1) for i = 0..g, which is
    <tau_(2g-2+i) lambda_(g-i)>_g: with S the series of ``_theta_series``,
    S^(k+1) = sum_m binom(k+1, m) (S - 1)^m, and (S - 1)^m starts at t^(2m)."""
    tail = (0,) + _theta_series(g)[1:]
    power = [Fraction(1)] + [Fraction(0)] * g  # (S - 1)^m
    binomial = [Fraction(1)]                   # binom(k+1, m), by powers of k
    out = [Fraction(0)] * (g + 1)
    for m in range(g + 1):
        for i, c in enumerate(binomial):
            out[i] += c * power[g]
        power = [sum(power[a] * tail[n - a] for a in range(n + 1))
                 for n in range(g + 1)]
        # binom(k+1, m+1) = binom(k+1, m) (k + 1 - m) / (m + 1)
        binomial = [((binomial[i - 1] if i else 0)
                     + (1 - m) * (binomial[i] if i <= m else 0)) / (m + 1)
                    for i in range(m + 2)]
    return tuple(out)


def _double_factorial(n):
    """n!! for odd n >= -1, with (-1)!! = 1."""
    return prod(range(n, 0, -2))


def _halves(parts):
    """The ways to deal ``parts`` out to two sides, as (I, J, weight): I takes
    k of the m parts equal to v in binom(m, k) ways."""
    out = [((), (), 1)]
    for value, mult in Counter(parts).items():
        out = [(a + (value,) * k, b + (value,) * (mult - k), w * comb(mult, k))
               for a, b, w in out for k in range(mult + 1)]
    return out


def _psi(g, exponents):
    return _psi_bracket(g, tuple(sorted(exponents, reverse=True)))


@cache
def _psi_bracket(g, psi):
    """<tau_psi>_g, ``psi`` sorted descending, by string and dilaton on an
    exponent 0 or 1, and otherwise by DVV on the largest exponent k + 1:

        <tau_(k+1) tau_S>_g = 1/(2k+3)!! [sum_j (2k+2s_j+1)!!/(2s_j-1)!!
            <tau_(k+s_j) tau_(S-j)>_g + 1/2 sum_(r+s=k-1) (2r+1)!! (2s+1)!!
            (<tau_r tau_s tau_S>_(g-1)
             + sum_(I+J=S) <tau_r tau_I>_(g1) <tau_s tau_J>_(g-g1))],

    where the dimension of <tau_r tau_I> fixes g1.  Unstable brackets, and
    those off the dimension 3g - 3 + n, are 0."""
    n = len(psi)
    if 2 * g - 2 + n <= 0 or sum(psi) != 3 * g - 3 + n:
        return Fraction(0)
    if psi[-1] == 0:  # string
        if (g, n) == (0, 3):
            return Fraction(1)
        rest = psi[:-1]
        return sum((_psi(g, rest[:j] + (s - 1,) + rest[j + 1:])
                    for j, s in enumerate(rest) if s), Fraction(0))
    if psi[-1] == 1:  # dilaton
        if (g, n) == (1, 1):
            return Fraction(1, 24)
        return (2 * g - 3 + n) * _psi_bracket(g, psi[:-1])
    k, rest = psi[0] - 1, psi[1:]
    total = sum((Fraction(_double_factorial(2 * k + 2 * s + 1),
                          _double_factorial(2 * s - 1))
                 * _psi(g, rest[:j] + (s + k,) + rest[j + 1:])
                 for j, s in enumerate(rest)), Fraction(0))
    split = Fraction(0)
    for r in range(k):
        s = k - 1 - r
        term = _psi(g - 1, (r, s) + rest) if g else Fraction(0)
        for left, right, ways in _halves(rest):
            g1, off = divmod(r + sum(left) + 2 - len(left), 3)
            if not off and 0 <= g1 <= g:
                term += ways * (_psi(g1, (r,) + left)
                                * _psi(g - g1, (s,) + right))
        split += _double_factorial(2 * r + 1) * _double_factorial(2 * s + 1) * term
    return (total + split / 2) / _double_factorial(2 * k + 3)


def expected(bracket):
    """(route, value) for the first check that applies to ``bracket``, or
    None: the one-point formula at h = 1, the lambda_g formula, DVV at
    lambda_0."""
    g, psi, lam = bracket.g, bracket.psi, bracket.lam
    if bracket.h == 1:
        return "one-point formula", _one_point(g)[psi[0] - 2 * g + 2]
    if lam == g:
        multinomial = factorial(sum(psi)) // prod(factorial(j) for j in psi)
        return "lambda_g formula", multinomial * _theta_series(g)[g]
    if lam == 0:
        return "DVV recursion", _psi_bracket(g, tuple(psi))
    return None


def check_block(values):
    """Raise ConsistencyError at the first bracket of ``values`` (bracket ->
    value) that a closed form or DVV contradicts, naming both values."""
    for bracket, value in values.items():
        got = expected(bracket)
        if got is not None and got[1] != value:
            raise ConsistencyError(
                f"closed-form gate at {bracket}: the block gives {value}, "
                f"the {got[0]} gives {got[1]}"
            )
