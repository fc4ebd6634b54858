"""Branched-cover counts by transposition factorizations.

Four independent engines compute the same numbers:

* ``connected_dfs`` -- a count of transposition tuples whose product is a
  fixed permutation and whose support graph is connected, advanced one factor
  at a time over (pending product, component labels) states: the
  Goulden-Jackson cut-and-join recursion at the level of permutations
  (connected covers, graded by genus; character-free);
* ``connected_dp`` -- the same connected count by the cut-and-join recursion
  on cycle types, where the last factor either keeps the tuple transitive or
  joins two orbits (character-free, transform-free);
* ``disconnected_dp`` -- the cut-and-join recursion on cycle types without
  the transitivity condition, one vector over the p(d) classes per factor
  (disconnected covers, graded by Euler characteristic; character-free);
* ``disconnected_burnside`` -- the character sum over irreducibles, with the
  transposition class acting through half the kappa statistic.

``connected_via_transform`` turns either disconnected engine into connected
counts: the p_mu coefficient of the log of the disconnected series, read by a
rooted recursion over the sub-multisets of mu on the engine's own integer
tuple counts.  The tests check it against ``HurwitzSeries.log``, the whole
formal log in Newton polynomials.

Conventions: the reference permutation for cycle type mu is the one with the
cycles (1..mu_1)(mu_1+1..mu_1+mu_2)...; products compose right-to-left, i.e.
the product sigma_1 ... sigma_r applies sigma_r first.  Counts are class
functions, so neither choice affects any result: the tests run
``_transitive_count`` on conjugate representatives and on sigma^-1
(reversing a tuple inverts its product), and pin ``disconnected_dp`` to a
permutation-level convolution in both conventions.

Note on the character-sum grading: the classical identity packages the tuple
counts as an exponential generating series (a lambda^r / r! per count), while
the Euler-characteristic series carries lambda^(r - d).  The two series do not
match monomial-for-monomial -- the degree-one case already differs by a factor
lambda^(-d) -- so this module commits to the coefficient-level identity, which
``disconnected_dp`` verifies exactly.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial

from . import sparse
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .partitions import Partition, partitions_of, z
from .symgroup import BURNSIDE_MAX_D, column, irreps

#: Default budgets, also the CLI defaults; every engine accepts overrides.
#: The DFS budget counts the states ``connected_dfs`` visits.  The dp
#: recursion to r = 2d takes 0.02 s at d = 14 and 0.16 s at d = 20 (cold, one
#: core), doubling every two degrees.
DFS_NODE_BUDGET = 10**8
DP_MAX_D = 20
#: Ceiling on the memory the counts of one query may keep, in bytes, with no
#: flag to raise it: the dp layers and the memos of the cut-and-join and
#: transform counts keep a count per cycle type and per tuple length, so
#: what they hold grows with both d and r (``_within_memory``).
MAX_BYTES = 1 << 30


# ---------------------------------------------------------------------------
# permutation plumbing (tuples mapping i -> p[i] on {0, ..., d-1})

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


def canonical_representative(mu):
    """The permutation with cycles (1..mu_1)(mu_1+1..mu_1+mu_2)... in order,
    on 0-based points."""
    d = mu.size
    out = list(range(d))
    start = 0
    for part in mu:
        for k in range(part):
            out[start + k] = start + (k + 1) % part
        start += part
    return tuple(out)


# ---------------------------------------------------------------------------
# engine 1: layered count of transitive factorizations

def _connected_r(g, mu):
    """The tuple length r = 2g - 2 + |mu| + len(mu) of a connected query;
    every connected engine rejects g < 0, r < 0 and the empty profile here."""
    if g < 0:
        raise DomainError(f"genus must be nonnegative, got {g}")
    r = 2 * g - 2 + mu.size + mu.length
    if r < 0:
        raise DomainError(f"invalid query: r = 2g-2+|mu|+len(mu) = {r} < 0")
    if mu.size == 0:
        raise DomainError("the empty partition has no connected covers")
    return r


def connected_dfs(g, mu, node_budget=DFS_NODE_BUDGET):
    """Connected cover count for genus ``g`` and ramification profile ``mu``.

    Counts tuples (sigma_1, ..., sigma_r) of transpositions with product equal
    to the canonical representative of the class of ``mu`` and with the
    generated subgroup transitive, then divides by the centralizer order.  The
    tuple length is r = 2g - 2 + |mu| + len(mu).  The count advances one
    transposition at a time over states (pending product, component labels of
    the points under the transpositions chosen so far); see
    ``_transitive_count``.  ``node_budget`` bounds the number of states
    visited.
    """
    d, r = mu.size, _connected_r(g, mu)
    _within_memory(d, r)  # one layer, but its counts grow as the dp's do
    sigma = canonical_representative(mu)
    dist0 = d - mu.length
    if dist0 > r or (r - dist0) % 2 != 0:
        return Fraction(0)  # parity: each factor flips the sign
    return Fraction(_transitive_count(d, r, sigma, node_budget), z(mu))


def _merge(labels, edge):
    """The labels after joining the components of the edge's two points,
    relabelled by first occurrence, and their component count."""
    lo, hi = sorted(labels[i] for i in edge)
    if lo == hi:
        return labels, max(labels) + 1
    return tuple(lo if x == hi else x - (x > hi) for x in labels), max(labels)


def _transitive_count(d, r, sigma, node_budget):
    """Number of r-tuples of transpositions with product ``sigma`` whose
    supports connect all d points.

    A state is the pending product p (what the remaining factors must
    multiply to) and the component label of each point under the
    transpositions chosen so far, relabelled by first occurrence.  Each step
    multiplies p on the left by one transposition t = (i j) -- t o p swaps
    the entries p^-1(i) and p^-1(j) -- and merges the components of i and j.
    The cycle count of p moves by one: up when i and j share a cycle, down
    otherwise.  A state is dropped when the steps left cannot close the
    transposition distance d - #cycles or merge the remaining components.
    Only the current step's states are held, grouped by p: the products a
    step can reach from p are found once for every label vector that shares
    p, and each label vector's merges once per call.  This is the
    cut-and-join recursion of Goulden and Jackson, run on permutations
    rather than on cycle types.
    """
    edges = list(combinations(range(d), 2))
    merges = {}
    layer = {sigma: {tuple(range(d)): 1}}
    visited = 0
    for left in range(r, 0, -1):
        visited += sum(map(len, layer.values()))
        if visited > node_budget:
            raise ResourceLimitError(
                f"budget of {node_budget} visited states exceeded"
            )
        nxt = {}
        for p, states in layer.items():
            cycle_of = _cycle_labels(p)
            dist = d - len(set(cycle_of))
            where = invert_perm(p)
            moves = []
            for k, (i, j) in enumerate(edges):
                if (dist - 1 if cycle_of[i] == cycle_of[j] else dist + 1) < left:
                    q = list(p)
                    a, b = where[i], where[j]
                    q[a], q[b] = q[b], q[a]
                    moves.append((k, nxt.setdefault(tuple(q), {})))
            for labels, ways in states.items():
                merged = merges.get(labels)
                if merged is None:
                    merged = merges[labels] = [None] * len(edges)
                for k, out in moves:
                    if merged[k] is None:
                        merged[k] = _merge(labels, edges[k])
                    joined, components = merged[k]
                    if components <= left:
                        out[joined] = out.get(joined, 0) + ways
        layer = {p: states for p, states in nxt.items() if states}
    # every surviving state has p = identity and at most one component
    return sum(ways for states in layer.values()
               for labels, ways in states.items() if set(labels) == {0})


# ---------------------------------------------------------------------------
# engines 2 and 3: disconnected counts

#: The disconnected engines by name: the label of each one's degree budget
#: and the module name of its tuple count N(d, r, parts).
_DISCONNECTED = {
    "dp": ("cycle-type recursion", "_class_tuple_count"),
    "burnside": ("character-sum", "_character_tuple_count"),
}


def _tuple_count(engine, d, dp_max_d=DP_MAX_D, burnside_max_d=BURNSIDE_MAX_D):
    """The tuple count of the disconnected ``engine`` for a degree-d query:
    an unknown name raises DomainError, and d over that engine's budget
    raises ResourceLimitError, so d = 0 checks the name alone.  The count is
    looked up in the module globals on each call, so a count patched on the
    module applies."""
    try:
        budget, count = _DISCONNECTED[engine]
    except KeyError:
        raise DomainError(f"unknown disconnected engine {engine!r}") from None
    max_d = dp_max_d if engine == "dp" else burnside_max_d
    if d > max_d:
        raise ResourceLimitError(f"{budget} budget is d <= {max_d}, got d = {d}")
    return globals()[count]


def _disconnected(chi, mu, engine, dp_max_d=DP_MAX_D,
                  burnside_max_d=BURNSIDE_MAX_D):
    """The disconnected count of the engine named ``engine``: r = -chi + |mu|
    + len(mu) must be nonnegative and the name known; odd chi gives 0 (the
    sign of a product of r transpositions must match the sign of the class)
    whatever the degree; then the engine's budget is checked
    (``_tuple_count``); the empty profile has one cover, at r = 0.
    Otherwise the memory budget is checked (``_within_memory``) and the
    count is N(d, r, mu) / z(mu)."""
    d, h = mu.size, mu.length
    r = -chi + d + h
    if r < 0:
        raise DomainError(f"invalid query: r = -chi+|mu|+len(mu) = {r} < 0")
    if chi % 2 != 0:
        _tuple_count(engine, 0)
        return Fraction(0)
    count = _tuple_count(engine, d, dp_max_d, burnside_max_d)
    if d == 0:
        return Fraction(1 if r == 0 else 0)
    _within_memory(d, r)
    return Fraction(count(d, r, mu), z(mu))


@cache
def _cycle_types_to(d):
    """sum_{k <= d} p(k), the number of cycle types of degree at most d."""
    p = [1] + [0] * d
    for part in range(1, d + 1):
        for n in range(part, d + 1):
            p[n] += p[n - part]
    return sum(p)


def _within_memory(d, r):
    """ResourceLimitError when the counts a degree-d query of tuple length r
    may keep are estimated over MAX_BYTES.  The estimate is from above: r + 1
    counts for each cycle type of degree at most d, each about 100 bytes of
    int and dict entry plus, on average, half the r log2 binom(d, 2) bits of
    the largest.  Checked once the degree budget has passed."""
    need = _cycle_types_to(d) * (r + 1) * (100 + r * comb(d, 2).bit_length() // 16)
    if need > MAX_BYTES:
        raise ResourceLimitError(
            f"memory budget is {MAX_BYTES >> 20} MiB of kept counts, got about "
            f"{need >> 20} MiB at d = {d}, r = {r}")


@cache
def _canonical(parts):
    """The first tuple equal to ``parts`` it was given: a few hundred
    partitions recur in millions of entries of the cut-and-join memos."""
    return parts


@cache
def _neighbours(parts):
    """The cycle types sigma * t over the transpositions t, for a fixed sigma
    of cycle type ``parts``, as (canonical parts, number of t) pairs: t joins
    cycles of lengths a and b in a * b ways, and cuts a cycle of length a
    into {k, a - k} in a ways, a / 2 when k = a - k."""
    out = Counter()
    for i, a in enumerate(parts):
        rest = parts[:i] + parts[i + 1:]
        for k in range(1, a // 2 + 1):
            out[tuple(sorted(rest + (k, a - k), reverse=True))] += (
                a // 2 if 2 * k == a else a)
        for j in range(i + 1, len(parts)):
            b = parts[j]
            joined = parts[:i] + parts[i + 1:j] + parts[j + 1:] + (a + b,)
            out[tuple(sorted(joined, reverse=True))] += a * b
    return tuple((_canonical(nu), m) for nu, m in out.items())


@cache
def _class_vectors(d):
    """[N_0, N_1, ...] at degree d, each {parts: tuple count}; starts at N_0
    and is extended in place by ``_class_tuple_count``."""
    first = dict.fromkeys(partitions_of(d), 0)
    first[(1,) * d] = 1
    return [first]


def _class_tuple_count(d, r, parts):
    """N_r(mu), the number of r-tuples of transpositions whose product is a
    fixed permutation of type mu = ``parts``: N_0(mu) = [mu = 1^d] and
    N_r(mu) = sum over the neighbours nu of mu of m(mu -> nu) N_(r-1)(nu)."""
    vectors = _class_vectors(d)
    while len(vectors) <= r:
        prev = vectors[-1]
        vectors.append({
            nu: sum(m * prev[lam] for lam, m in _neighbours(nu))
            for nu in prev
        })
    return vectors[r][parts]


def disconnected_dp(chi, mu, max_d=DP_MAX_D):
    """Disconnected cover count for Euler characteristic ``chi`` and profile
    ``mu``: the number of r-tuples of transpositions with product a fixed
    permutation of type mu, r = -chi + |mu| + len(mu), divided by z(mu).
    The tuples are counted by the cut-and-join recursion on cycle types
    (``_class_tuple_count``): no permutations, no transitivity condition,
    no characters."""
    return _disconnected(chi, mu, "dp", dp_max_d=max_d)


@cache
def _splits(parts):
    """The ways to deal ``parts`` out to two sides, as (A, B, weight): A takes
    k_v of the m_v parts equal to v, in prod binom(m_v, k_v) ways.  A runs
    over the distinct sub-multisets, () included; A and B are canonical
    descending tuples."""
    out = [((), (), 1)]
    for value, mult in sorted(Counter(parts).items(), reverse=True):
        out = [(a + (value,) * k, b + (value,) * (mult - k), w * comb(mult, k))
               for a, b, w in out for k in range(mult + 1)]
    return tuple((_canonical(a), _canonical(b), w) for a, b, w in out)


def _min_r(parts):
    """The genus-0 length r = |mu| + len(mu) - 2 of a transitive tuple."""
    return sum(parts) + len(parts) - 2


@cache
def _orbit_pairs(parts):
    """The orbit types (left <= right, canonical tuples) that a factor t
    joining two orbits leaves behind, for a fixed sigma of type ``parts``,
    with the number of such t and each side's ``_min_r``: t cuts a cycle of
    length a (any of the m_a equal ones) into k and a - k in a ways (a / 2
    when k = a - k), and the other cycles go to the two orbits
    (``_splits``)."""
    out = Counter()
    for i, a in enumerate(parts):
        if i and parts[i - 1] == a:
            continue
        rest = parts[:i] + parts[i + 1:]
        for k in range(1, a // 2 + 1):
            ways = parts.count(a) * (a // 2 if 2 * k == a else a)
            for left, right, w in _splits(rest):
                sides = (tuple(sorted(side + (piece,), reverse=True))
                         for side, piece in ((left, k), (right, a - k)))
                out[tuple(sorted(sides))] += ways * w
    return tuple((_canonical(left), _canonical(right), m, _min_r(left),
                  _min_r(right)) for (left, right), m in out.items())


@cache
def _transitive_class_count(parts, r):
    """C_r(parts), the number of transitive r-tuples of transpositions whose
    product is a fixed permutation of type ``parts``; C_0 = [parts = (1)].
    Drop the last factor t.  Either the first r - 1 are still transitive
    (the ``_neighbours`` sum), or t joins their two orbits
    (``_orbit_pairs``), whose factors interleave in binom(r - 1, r1) ways."""
    if r < _min_r(parts) or (r - _min_r(parts)) % 2:
        return 0  # below genus 0, or the wrong sign
    if r == 0:
        return int(parts == (1,))
    total = sum(m * _transitive_class_count(nu, r - 1)
                for nu, m in _neighbours(parts))
    for left, right, m, lo, lo_right in _orbit_pairs(parts):
        total += m * sum(comb(r - 1, r1) * _transitive_class_count(left, r1)
                         * _transitive_class_count(right, r - 1 - r1)
                         for r1 in range(lo, r - lo_right, 2))
    return total


def connected_dp(g, mu, max_d=DP_MAX_D):
    """The connected cover count ``connected_dfs`` gives, by the
    cut-and-join recursion on cycle types (``_transitive_class_count``): no
    permutations, no characters, no transform.  The tuple counts stay
    memoized for the life of the process, shared by every caller."""
    r = _connected_r(g, mu)
    _tuple_count("dp", mu.size, dp_max_d=max_d)
    _within_memory(mu.size, r)
    for lower in range(g, -1, -1):  # genus by genus keeps the recursion shallow
        count = _transitive_class_count(_canonical(mu), r - 2 * lower)
    return Fraction(count, z(mu))


def disconnected_burnside(chi, mu, max_d=BURNSIDE_MAX_D, cache_dir=None):
    """Disconnected cover count as a character sum: the same tuple count as
    ``disconnected_dp``, obtained as

        (1/z(mu)) * sum over |nu| = d of (kappa(nu)/2)^r * (dim R_nu / d!)
                                         * chi_nu(C_mu)

    with r = -chi + |mu| + len(mu), over the one checked character column
    ``symgroup.column(mu)``.  The columns (``_checked_column``, one per
    cycle type) and the sums (``_character_tuple_count``, one per (d, r,
    mu)) stay memoized for the life of the process."""
    # cache_dir is ignored; it stays accepted while perfbench passes it
    return _disconnected(chi, mu, "burnside", burnside_max_d=max_d)


@cache
def _checked_column(parts):
    """``column`` of the cycle type ``parts``, built and checked once however
    many r ask for it.  ``column`` is looked up through the module global on
    a miss, so a wrapper installed there applies."""
    return column(Partition(parts))


@cache
def _character_tuple_count(d, r, parts):
    """The tuple count of ``disconnected_burnside``.  The series of an
    inversion's grid points share most of their terms (every one holds p_1
    and p_1^2), so each sum is kept, as an int: held as Fractions, the sums
    raise the peak RSS of the benchmark's batch workload by 0.1 MB."""
    total = sum((k // 2)**r * dim * c
                for (_, dim, k), c in zip(irreps(d), _checked_column(parts)))
    count, rest = divmod(total, factorial(d))
    if rest:
        raise ConsistencyError(f"{d}! does not divide the sum at {parts}, r = {r}")
    return count


# ---------------------------------------------------------------------------
# generating series in Newton-polynomial variables

class HurwitzSeries(sparse.Element):
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
    disconnected counts.  ``terms`` therefore stores c / r!, which turns the
    weighted product into the plain one; ``coefficient``, ``set_coefficient``
    and ``items`` convert at the boundary.  The map c -> c / r! is a ring
    isomorphism that keeps all the truncation gradings, so log and exp need
    no conversion.

    No command builds one: the tests check ``connected_via_transform``, which
    reads one coefficient of the log by an integer recursion, against ``log``.
    """

    __slots__ = ("max_size", "max_exp")
    _frame = ("max_size", "max_exp")
    _scalars = (int, Fraction)

    def __init__(self, max_size, max_exp, terms=None):
        self.max_size, self.max_exp = max_size, max_exp
        self.terms = {} if terms is None else terms

    @classmethod
    def one(cls, max_size, max_exp):
        return cls(max_size, max_exp, {((), 0): Fraction(1)})

    def coefficient(self, mu, e):
        return self.terms.get((tuple(mu), e), Fraction(0)) * factorial(e + sum(mu))

    def set_coefficient(self, mu, e, value):
        parts = tuple(mu)
        if e + sum(parts) < 0:
            raise DomainError(
                f"exponent {e} below -|mu| = {-sum(parts)}: no cover has "
                "fewer than zero simple branch points"
            )
        value = Fraction(value) / factorial(e + sum(parts))
        if value:
            self.terms[(parts, e)] = value
        else:
            self.terms.pop((parts, e), None)

    def _constant(self, c):
        return {((), 0): Fraction(c)} if c else {}

    def _product(self, a, b):
        max_size, max_r = self.max_size, self.max_exp + self.max_size

        def key_mul(k1, k2):
            (p1, e1), (p2, e2) = k1, k2
            size = sum(p1) + sum(p2)
            if size > max_size or size + e1 + e2 > max_r:
                return None
            return tuple(sorted(p1 + p2, reverse=True)), e1 + e2

        return sparse.mul(a, b, key_mul)

    # bound here, not only inherited: perfbench/tracehook.py times the series
    # product by wrapping HurwitzSeries.__dict__["__mul__"]
    __mul__ = sparse.Element.__mul__

    def items(self):
        """Deterministically ordered (key, coefficient) pairs."""
        keys = sorted(self.terms, key=lambda k: (sum(k[0]), k[0], k[1]))
        return [(k, self.coefficient(*k)) for k in keys]

    def _weight_pieces(self):
        """Nonconstant terms inside the truncation as {w: series}, by the weight
        w = e + 2|mu| = r + |mu|: additive, 1 <= w <= max_exp + 2 max_size."""
        max_r = self.max_exp + self.max_size
        pieces = {}
        for (parts, e), c in self.terms.items():
            size = sum(parts)
            if e + size < 0:
                raise DomainError(f"exponent {e} below -|mu| = {-size}")
            if (parts or e) and size <= self.max_size and size + e <= max_r:
                pieces.setdefault(e + 2 * size, {})[(parts, e)] = c
        return {w: self._like(piece) for w, piece in pieces.items()}

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
        zero = acc = self._like({})
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
                        self._like({}))
            if not piece.is_zero():
                done[n] = Fraction(1, n) * piece
                acc = acc + done[n]
        return acc


def connected_via_transform(g, mu, engine="burnside", dp_max_d=DP_MAX_D,
                            burnside_max_d=BURNSIDE_MAX_D, cache_dir=None):
    """Connected cover count extracted from the disconnected engine "dp" or
    "burnside" through the exp/log transform: the coefficient of
    lambda^(2g-2+len(mu)) p_mu in the log of the disconnected series, read
    by the rooted sub-multiset recursion of ``_transitive_from_disconnected``
    on the engine's own memoized tuple counts, with no series built.  Every
    profile it reads is a sub-multiset of mu, so ``_tuple_count`` checks the
    name and the engine's budget once, on mu."""
    # cache_dir is ignored; it stays accepted while perfbench passes it
    r = _connected_r(g, mu)
    count = _tuple_count(engine, mu.size, dp_max_d, burnside_max_d)
    _within_memory(mu.size, r)
    return Fraction(_transitive_from_disconnected(count, mu, r), z(mu))


@cache
def _transitive_from_disconnected(tuple_count, parts, r):
    """C(parts, r), the transitive r-tuples of transpositions with product a
    fixed sigma of type ``parts``, from N(S, s) = tuple_count(|S|, s, S), all
    s-tuples with product of type S.  The orbit of sigma's first cycle holds
    the cycles of some sub-multiset A of the others (``_splits``); its s1
    factors interleave with the other s - s1 in binom(s, s1) ways, so
    N(S, s) = sum of w binom(s, s1) C(S[0] + A, s1) N(B, s - s1) over A, s1,
    whose B = () term is C(S, s).  Keyed on ``tuple_count`` too, so the two
    engines never share a count.  Not shared with ``connected_dp`` either:
    the two compute C by different routes, and the inversion compares them
    at every grid point."""
    if r < _min_r(parts) or (r - _min_r(parts)) % 2:
        return 0  # below genus 0, or the wrong sign
    total = tuple_count(sum(parts), r, parts)
    for a, b, w in _splits(parts[1:]):
        if b:  # N(b, t) = 0 below t = |b| - len(b)
            orbit, size = parts[:1] + a, sum(b)
            total -= w * sum(
                comb(r, s1) * _transitive_from_disconnected(tuple_count, orbit, s1)
                * tuple_count(size, r - s1, b)
                for s1 in range(_min_r(orbit), r - size + len(b) + 1, 2))
    return total


def phi_series(mu, engine="dp", max_r=10):
    """One-variable generating series of the disconnected counts for the
    profile ``mu`` by the engine named ``engine`` ("dp" or "burnside", at its
    default budget): a map from the exponent e = -chi + len(mu) = r - |mu| to
    the cover count, over all admissible r <= max_r.  The name is checked
    even when no r is admissible."""
    d, h = mu.size, mu.length
    _tuple_count(engine, 0)
    terms = {}
    for r in range((d + h) % 2, max_r + 1, 2):
        if value := _disconnected(d + h - r, mu, engine):
            terms[r - d] = value
    return terms
