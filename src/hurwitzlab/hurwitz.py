"""Branched-cover counts by transposition factorizations.

Three independent engines compute the same numbers:

* ``connected_dfs`` -- a count of transposition tuples whose product is a
  fixed permutation and whose support graph is connected, advanced one factor
  at a time over (pending product, component labels) states: the
  Goulden-Jackson cut-and-join recursion at the level of permutations
  (connected covers, graded by genus; character-free);
* ``disconnected_dp`` -- repeated convolution of the transposition class sum
  in the group algebra, as a plain vector over all d! permutations
  (disconnected covers, graded by Euler characteristic; character-free);
* ``disconnected_burnside`` -- the character sum over irreducibles, with the
  transposition class acting through half the kappa statistic.

``connected_from_disconnected`` converts between the two gradings by a formal
logarithm in Newton-polynomial variables.

Conventions: the reference permutation for cycle type mu is the one with the
cycles (1..mu_1)(mu_1+1..mu_1+mu_2)...; products compose right-to-left, i.e.
the product sigma_1 ... sigma_r applies sigma_r first.  Counts are class
functions, so neither choice affects any result (and the tests check both).

Note on the character-sum grading: the classical identity packages the tuple
counts as an exponential generating series (a lambda^r / r! per count), while
the Euler-characteristic series carries lambda^(r - d).  The two series do not
match monomial-for-monomial -- the degree-one case already differs by a factor
lambda^(-d) -- so this module commits to the coefficient-level identity, which
``disconnected_dp`` verifies exactly.
"""

import logging
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from . import sparse
from .errors import DomainError, ResourceLimitError
from .partitions import Partition, kappa, partitions_of, z
from .symgroup import MAX_TABLE_D, build_table

logger = logging.getLogger(__name__)

#: Default budgets, also the CLI defaults; every engine accepts overrides.
#: The DFS budget counts the states ``connected_dfs`` visits.
DFS_NODE_BUDGET = 10**8
DP_MAX_D = 7
BURNSIDE_MAX_D = MAX_TABLE_D


# ---------------------------------------------------------------------------
# permutation plumbing (tuples mapping i -> p[i] on {0, ..., d-1})

def identity_perm(d):
    return tuple(range(d))


def compose(a, b):
    """Right-to-left composition: (a o b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def invert_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _cycle_labels(p):
    """The cycle of each point, numbered by first occurrence."""
    labels = [-1] * len(p)
    count = 0
    for start in range(len(p)):
        if labels[start] < 0:
            x = start
            while labels[x] < 0:
                labels[x] = count
                x = p[x]
            count += 1
    return labels


def cycle_type(p):
    return Partition(sorted(Counter(_cycle_labels(p)).values(), reverse=True))


def cycle_count(p):
    return len(set(_cycle_labels(p)))


def conjugate_perm(p, g):
    """g o p o g^{-1}."""
    out = [0] * len(p)
    for i in range(len(p)):
        out[g[i]] = g[p[i]]
    return tuple(out)


def canonical_representative(mu):
    """The permutation with cycles (1..mu_1)(mu_1+1..mu_1+mu_2)... in order,
    on 0-based points."""
    d = mu.size
    out = list(range(d))
    start = 0
    for part in mu.parts:
        for k in range(part):
            out[start + k] = start + (k + 1) % part
        start += part
    return tuple(out)


def transpositions(d):
    """All transpositions of {0..d-1} as (permutation, (i, j)) pairs."""
    out = []
    for i, j in combinations(range(d), 2):
        p = list(range(d))
        p[i], p[j] = j, i
        out.append((tuple(p), (i, j)))
    return out


# ---------------------------------------------------------------------------
# engine 1: layered count of transitive factorizations

def connected_dfs(g, mu, node_budget=DFS_NODE_BUDGET, sigma_inf=None,
                  composition="rl"):
    """Connected cover count for genus ``g`` and ramification profile ``mu``.

    Counts tuples (sigma_1, ..., sigma_r) of transpositions with product equal
    to a fixed representative of the class of ``mu`` and with the generated
    subgroup transitive, then divides by the centralizer order.  The tuple
    length is r = 2g - 2 + |mu| + len(mu).  The count advances one
    transposition at a time over states (pending product, component labels of
    the points under the transpositions chosen so far); see
    ``_transitive_count``.

    ``sigma_inf`` may supply an alternative class representative (the count is
    a class function, so the result cannot depend on it).  ``composition``
    selects the product convention, "rl" (apply rightmost first) or "lr".
    ``node_budget`` bounds the number of states visited.
    """
    if g < 0:
        raise DomainError(f"genus must be nonnegative, got {g}")
    d, h = mu.size, mu.length
    r = 2 * g - 2 + d + h
    if r < 0:
        raise DomainError(f"invalid query: r = 2g-2+|mu|+len(mu) = {r} < 0")
    if composition not in ("rl", "lr"):
        raise DomainError(f"unknown composition convention {composition!r}")

    if sigma_inf is None:
        sigma_inf = canonical_representative(mu)
    elif cycle_type(sigma_inf) != mu:
        raise DomainError(
            f"sigma_inf has cycle type {cycle_type(sigma_inf)}, expected {mu}"
        )

    dist0 = d - cycle_count(sigma_inf)
    if dist0 > r or (r - dist0) % 2 != 0:
        return Fraction(0)  # parity: each factor flips the sign
    count = _transitive_count(d, r, sigma_inf, node_budget, composition)
    return Fraction(count, z(mu))


def _transitive_count(d, r, sigma, node_budget, composition):
    """Number of r-tuples of transpositions with product ``sigma`` whose
    supports connect all d points.

    A state is the pending product p (what the remaining factors must
    multiply to) and the component label of each point under the
    transpositions chosen so far, relabelled by first occurrence.  Each step
    multiplies p by one transposition (i j) -- "lr": p o t swaps entries i
    and j; "rl": t o p swaps entries p^-1(i) and p^-1(j) -- and merges the
    components of i and j.  Either way the cycle count of p moves by one: up
    when i and j share a cycle, down otherwise.  A state is dropped when the
    steps left cannot close the transposition distance d - #cycles or merge
    the remaining components.  Only the current step's {state: ways} dict is
    held.  This is the cut-and-join recursion of Goulden and Jackson, run on
    permutations rather than on cycle types.
    """
    edges = list(combinations(range(d), 2))
    right_to_left = composition == "rl"
    layer = {(sigma, tuple(range(d))): 1}
    visited = 0
    for left in range(r, 0, -1):
        visited += len(layer)
        if visited > node_budget:
            raise ResourceLimitError(
                f"budget of {node_budget} visited states exceeded"
            )
        nxt = {}
        for (p, labels), ways in layer.items():
            cycle_of = _cycle_labels(p)
            dist = d - len(set(cycle_of))
            components = max(labels, default=-1) + 1
            where = invert_perm(p) if right_to_left else range(d)
            for i, j in edges:
                if (dist - 1 if cycle_of[i] == cycle_of[j] else dist + 1) >= left:
                    continue
                li, lj = labels[i], labels[j]
                if components - (li != lj) > left:
                    continue
                q = list(p)
                a, b = where[i], where[j]
                q[a], q[b] = q[b], q[a]
                if li != lj:
                    lo, hi = min(li, lj), max(li, lj)
                    merged = tuple(
                        lo if x == hi else x - (x > hi) for x in labels
                    )
                else:
                    merged = labels
                key = (tuple(q), merged)
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    # every surviving state has p = identity and at most one component
    return sum(ways for (_, labels), ways in layer.items() if set(labels) == {0})


# ---------------------------------------------------------------------------
# engine 2: group-algebra convolution

@dataclass
class _DPState:
    perms: list
    index: dict
    moves: list           # moves[t][p] = index of perms[p] * transposition t
    vectors: list = field(default_factory=list)


_dp_states = {}


def _dp_state(d, composition):
    key = (d, composition)
    state = _dp_states.get(key)
    if state is None:
        perms = list(permutations(range(d)))
        index = {p: i for i, p in enumerate(perms)}
        moves = []
        for t_perm, _ in transpositions(d):
            if composition == "rl":
                moves.append([index[compose(p, t_perm)] for p in perms])
            else:
                moves.append([index[compose(t_perm, p)] for p in perms])
        state = _DPState(perms=perms, index=index, moves=moves)
        state.vectors.append([0] * len(perms))
        state.vectors[0][index[identity_perm(d)]] = 1
        _dp_states[key] = state
    return state


def _factorization_count_dp(d, r, target, composition):
    state = _dp_state(d, composition)
    while len(state.vectors) <= r:
        prev = state.vectors[-1]
        nxt = [0] * len(state.perms)
        for move in state.moves:
            for p, v in enumerate(prev):
                if v:
                    nxt[move[p]] += v
        state.vectors.append(nxt)
    return state.vectors[r][state.index[target]]


def disconnected_dp(chi, mu, max_d=DP_MAX_D, composition="rl"):
    """Disconnected cover count for Euler characteristic ``chi`` and profile
    ``mu``, by r-fold convolution of the transposition indicator vector in the
    group algebra (no transitivity condition, no characters).

    r = -chi + |mu| + len(mu).  The count vanishes unless chi is even (the
    sign of a product of r transpositions must match the sign of the class
    representative); odd chi returns 0.
    """
    d, h = mu.size, mu.length
    r = -chi + d + h
    if r < 0:
        raise DomainError(f"invalid query: r = -chi+|mu|+len(mu) = {r} < 0")
    if chi % 2 != 0:
        logger.debug("odd Euler characteristic %s: count is 0 by sign parity", chi)
        return Fraction(0)
    if d > max_d:
        raise ResourceLimitError(
            f"group-algebra DP budget is d <= {max_d}, got d = {d}"
        )
    if composition not in ("rl", "lr"):
        raise DomainError(f"unknown composition convention {composition!r}")
    count = _factorization_count_dp(d, r, canonical_representative(mu), composition)
    return Fraction(count, z(mu))


# ---------------------------------------------------------------------------
# engine 3: character sum

def disconnected_burnside(chi, mu, max_d=BURNSIDE_MAX_D, cache_dir=None):
    """Disconnected cover count as a character sum: the same tuple count as
    ``disconnected_dp``, obtained as

        (1/z(mu)) * sum over |nu| = d of (kappa(nu)/2)^r * (dim R_nu / d!)
                                         * chi_nu(C_mu)

    with r = -chi + |mu| + len(mu)."""
    d, h = mu.size, mu.length
    r = -chi + d + h
    if r < 0:
        raise DomainError(f"invalid query: r = -chi+|mu|+len(mu) = {r} < 0")
    if chi % 2 != 0:
        logger.debug("odd Euler characteristic %s: count is 0 by sign parity", chi)
        return Fraction(0)
    if d > max_d:
        raise ResourceLimitError(
            f"character-sum budget is d <= {max_d}, got d = {d}"
        )
    if d == 0:
        return Fraction(1 if r == 0 else 0)
    table = build_table(d, cache_dir=cache_dir, max_d=max_d)
    d_fact = factorial(d)
    total = Fraction(0)
    for nu in table.partitions:
        half_kappa = kappa(nu) // 2
        total += Fraction(half_kappa**r * table.dim(nu) * table.chi(nu, mu), d_fact)
    return total / z(mu)


# ---------------------------------------------------------------------------
# generating series in Newton-polynomial variables

@dataclass
class HurwitzSeries:
    """Truncated formal series sum c_(mu,e) * lambda^e * p_mu, where p_mu is
    the product of Newton polynomials over the parts of mu.

    Keys are (parts tuple, exponent); coefficients are exact rationals.
    Multiplying monomials concatenates-and-sorts the partitions and adds the
    exponents.  Products drop every term with |mu| > max_size or with
    r = e + |mu| > max_exp + max_size.  Both gradings are additive and
    nonnegative, so the dropped terms form an ideal: the truncated series is
    a quotient ring; log and exp, one pass by the Euler derivation (which
    keeps that ideal), are exact on it and invert each other there.  (A
    bound on e alone is not an ideal, because e can be negative: a dropped
    term times a later factor with e < 0 should have come back.)

    The coefficient of a product picks up binom(r1 + r2, r1) with
    r = e + |mu| per factor: covers over a disjoint profile interleave their
    labelled simple branch points, so the grading is exponential in r.  (A
    degree-4 check pins this down: the two factorizations of a product of two
    disjoint 2-cycles into two transpositions only appear with the binomial.)
    Without the weighting the exp/log transform does not invert the
    disconnected counts.  ``coeffs`` therefore stores c / r!, which turns the
    weighted product into the plain one; ``coefficient``, ``set_coefficient``
    and ``items`` convert at the boundary.  The map c -> c / r! is a ring
    isomorphism that keeps both truncation gradings, so log and exp need no
    conversion.
    """

    max_size: int
    max_exp: int
    coeffs: dict = field(default_factory=dict)

    @classmethod
    def one(cls, max_size, max_exp):
        return cls(max_size, max_exp, {((), 0): Fraction(1)})

    def coefficient(self, mu, e):
        parts = mu.parts if isinstance(mu, Partition) else tuple(mu)
        return self.coeffs.get((parts, e), Fraction(0)) * factorial(e + sum(parts))

    def set_coefficient(self, mu, e, value):
        parts = mu.parts if isinstance(mu, Partition) else tuple(mu)
        if e + sum(parts) < 0:
            raise DomainError(
                f"exponent {e} below -|mu| = {-sum(parts)}: no cover has "
                "fewer than zero simple branch points"
            )
        value = Fraction(value) / factorial(e + sum(parts))
        if value:
            self.coeffs[(parts, e)] = value
        else:
            self.coeffs.pop((parts, e), None)

    def _compatible(self, other):
        if (self.max_size, self.max_exp) != (other.max_size, other.max_exp):
            raise DomainError("cannot combine series with different truncations")

    def __add__(self, other):
        self._compatible(other)
        return HurwitzSeries(self.max_size, self.max_exp,
                             sparse.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return HurwitzSeries(self.max_size, self.max_exp,
                             sparse.scale(self.coeffs, Fraction(scalar)))

    def __mul__(self, other):
        self._compatible(other)
        max_size, max_r = self.max_size, self.max_exp + self.max_size

        def key_mul(k1, k2):
            (p1, e1), (p2, e2) = k1, k2
            size = sum(p1) + sum(p2)
            if size > max_size or size + e1 + e2 > max_r:
                return None
            return tuple(sorted(p1 + p2, reverse=True)), e1 + e2

        return HurwitzSeries(self.max_size, self.max_exp,
                             sparse.mul(self.coeffs, other.coeffs, key_mul))

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, HurwitzSeries):
            return NotImplemented
        self._compatible(other)
        return self.coeffs == other.coeffs

    def items(self):
        """Deterministically ordered (key, coefficient) pairs."""
        keys = sorted(self.coeffs, key=lambda k: (sum(k[0]), k[0], k[1]))
        return [(k, self.coefficient(*k)) for k in keys]

    def _weight_pieces(self):
        """Nonconstant terms inside the truncation as {w: series}, by the weight
        w = e + 2|mu| = r + |mu|: additive, 1 <= w <= max_exp + 2 max_size."""
        max_r = self.max_exp + self.max_size
        pieces = {}
        for (parts, e), c in self.coeffs.items():
            size = sum(parts)
            if e + size < 0:
                raise DomainError(f"exponent {e} below -|mu| = {-size}")
            if (parts or e) and size <= self.max_size and size + e <= max_r:
                pieces.setdefault(e + 2 * size, {})[(parts, e)] = c
        return {w: HurwitzSeries(self.max_size, self.max_exp, piece)
                for w, piece in pieces.items()}

    def log(self):
        """Formal log of a series with constant term 1, within truncation.

        L = log S solves D S = S * D L, D the Euler derivation (a term times
        its weight), so (D L)_n = n S_n - sum_{0<j<n} (D L)_j S_(n-j): one
        pass up to the top weight of the truncation, since log S reaches
        higher weights than S.  D only rescales monomials, so it keeps the
        truncation ideal and the recursion is exact on the quotient."""
        if self.coefficient((), 0) != 1:
            raise DomainError("invalid series: constant term must be exactly 1")
        pieces = self._weight_pieces()
        zero = acc = HurwitzSeries(self.max_size, self.max_exp)
        dlog = {}
        for n in range(1, self.max_exp + 2 * self.max_size + 1):
            piece = n * pieces.get(n, zero) - sum(
                (dl * pieces[n - j] for j, dl in dlog.items() if n - j in pieces),
                zero)
            if not piece.is_zero():
                dlog[n] = piece
                acc = acc + Fraction(1, n) * piece
        return acc

    def exp(self):
        """Formal exp of a series with zero constant term, within truncation:
        E = exp T solves D E = E * D T, so n E_n = sum_{0<j<=n} (D T)_j E_(n-j),
        one pass that is exact on the quotient for the reason given in ``log``."""
        if self.coefficient((), 0) != 0:
            raise DomainError("invalid series: constant term must be 0 for exp")
        dt = {w: w * piece for w, piece in self._weight_pieces().items()}
        acc = HurwitzSeries.one(self.max_size, self.max_exp)
        done = {0: acc}
        for n in range(1, self.max_exp + 2 * self.max_size + 1):
            piece = sum((d * done[n - j] for j, d in dt.items() if n - j in done),
                        HurwitzSeries(self.max_size, self.max_exp))
            if not piece.is_zero():
                done[n] = Fraction(1, n) * piece
                acc = acc + done[n]
        return acc


def connected_from_disconnected(series):
    """Formal logarithm turning the disconnected generating series into the
    connected one, inverting exp(sum over nonempty mu of Phi_mu p_mu) =
    sum over mu of Phi*_mu p_mu within the truncation orders."""
    return series.log()


def _engine_callable(engine, dp_max_d=DP_MAX_D, burnside_max_d=BURNSIDE_MAX_D,
                     cache_dir=None):
    if callable(engine):
        return engine
    if engine == "dp":
        return lambda chi, mu: disconnected_dp(chi, mu, max_d=dp_max_d)
    if engine == "burnside":
        return lambda chi, mu: disconnected_burnside(
            chi, mu, max_d=burnside_max_d, cache_dir=cache_dir
        )
    raise DomainError(f"unknown disconnected engine {engine!r}")


def _submultisets(mu):
    """All distinct nonempty sub-multisets of the parts of mu, as partitions."""
    counts = sorted(Counter(mu.parts).items(), reverse=True)
    subs = [()]
    for value, mult in counts:
        subs = [s + (value,) * k for s in subs for k in range(mult + 1)]
    return [Partition(s) for s in subs if s]


def disconnected_series(engine="burnside", max_size=6, max_exp=10,
                        submultisets_of=None, **engine_opts):
    """Assemble the disconnected generating series from an engine.

    Includes every partition of size <= max_size (or, when
    ``submultisets_of`` is given, only sub-multisets of that partition, which
    is all the logarithm can consume for that target) and every admissible
    r = e + |mu| <= max_exp + max_size, the truncation rule of
    ``HurwitzSeries``.  The constant term is 1.
    """
    eng = _engine_callable(engine, **engine_opts)
    if submultisets_of is not None:
        pool = [p for p in _submultisets(submultisets_of) if p.size <= max_size]
    else:
        pool = [p for s in range(1, max_size + 1) for p in partitions_of(s)]
    series = HurwitzSeries.one(max_size, max_exp)
    for part in pool:
        d, h = part.size, part.length
        for r in range(0, max_exp + max_size + 1):
            if (r - d - h) % 2 != 0:
                continue
            value = eng(d + h - r, part)
            if value:
                series.set_coefficient(part, r - d, value)
    return series


def connected_via_transform(g, mu, engine="burnside", **engine_opts):
    """Connected cover count extracted from a disconnected engine through the
    exp/log transform.  Concretely: the coefficient of
    lambda^(2g-2+len(mu)) p_mu in the log of the disconnected series,
    truncated at size |mu| and at r = e + |mu|, the query's own r."""
    d, h = mu.size, mu.length
    e = 2 * g - 2 + h
    if e + d < 0:
        raise DomainError(f"invalid query: r = {e + d} < 0")
    if d == 0:
        raise DomainError("the empty partition has no connected covers")
    series = disconnected_series(
        engine, max_size=d, max_exp=e, submultisets_of=mu, **engine_opts
    )
    return connected_from_disconnected(series).coefficient(mu, e)


def phi_series(mu, engine="dfs", max_r=10, **engine_opts):
    """One-variable generating series for the profile ``mu``: a map from the
    exponent e to the cover count, with e = 2g - 2 + len(mu) for the
    connected series (engine "dfs") and e = -chi + len(mu) for the
    disconnected ones (engines "dp" and "burnside").  Either way e = r - |mu|,
    and terms run over all admissible r <= max_r."""
    d, h = mu.size, mu.length
    terms = {}
    if engine == "dfs":
        g = 0
        while True:
            r = 2 * g - 2 + d + h
            if r > max_r:
                break
            if r >= 0:
                value = connected_dfs(g, mu, **engine_opts)
                if value:
                    terms[r - d] = value
            g += 1
    elif engine in ("dp", "burnside") or callable(engine):
        eng = _engine_callable(engine, **engine_opts)
        for r in range(0, max_r + 1):
            if (r - d - h) % 2 != 0:
                continue
            value = eng(d + h - r, mu)
            if value:
                terms[r - d] = value
    else:
        raise DomainError(f"unknown engine {engine!r}")
    return terms
