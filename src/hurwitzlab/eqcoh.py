"""Rank-one equivariant toolkit, entirely symbolic and exact.

Pieces:

* ``WeightMultiset`` -- finite multisets of rational torus weights, with
  integer (possibly negative) multiplicities for virtual sums;
* fixed-point weight data and cohomology-pushforward characters for line
  bundles on the degree-d cyclic covers of the projective line (d = 1 is the
  line itself), checked against each other by ``grr_localization_check``:
  scaled by their common denominator D, the weights are integer exponents of
  q = e^(u/D), and the cleared-out identity holds in Z[q, 1/q];
* ``EquivariantPolyRing`` -- the two-variable polynomial ring in u and the
  hyperplane class H modulo the monic relation prod(H + a_i u), with
  ``ab_integrate`` summing fixed-point residues;
* ``HodgeClassPoly`` -- the truncated commutative algebra in the cotangent
  classes psi_i (degree 1) and Hodge classes lambda_i (degree i) with Laurent
  coefficients in u, held as one flat dict from (psi, lambda, power of u) to
  an exact rational, plus the fixed-locus data whose inverse Euler class it
  expresses.  That class is built twice, as a product of integral pieces and
  term by term from its closed form, and the two must agree exactly.
  ``elsv_via_localization`` runs the whole localization chain and must agree
  exactly with the direct table evaluation.

``Laurent``, ``WeightMultiset``, ``RingElement`` and ``HodgeClassPoly`` are
``sparse.Element`` subclasses: each declares its frame (the ring; g, h and
the cap), its scalars and its monomial product, and takes its arithmetic
from the base.  Their constructors check outside input, rejecting a
non-integer exponent, index or multiplicity rather than truncating it.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from operator import add

from . import sparse
from .errors import ConsistencyError, DomainError
from .hodge import HodgeBracket
from .partitions import aut_size

# ---------------------------------------------------------------------------
# Laurent polynomials in one variable over the rationals


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise DomainError(f"expected an exact rational, got {v!r}")


def _as_int(v):
    """v, which must be an int and not a bool: never truncated."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise DomainError(f"expected an integer, got {v!r}")


class Laurent(sparse.Element):
    """Laurent polynomial in one formal variable with Fraction coefficients:
    {exponent: coefficient}."""

    __slots__ = ()
    _scalars = (int, Fraction)

    def __init__(self, terms=None):
        terms = {_as_int(e): _as_fraction(v) for e, v in (terms or {}).items()}
        self.terms = {e: c for e, c in terms.items() if c}  # keys checked first

    @classmethod
    def constant(cls, c):
        return cls({0: _as_fraction(c)})

    @classmethod
    def monomial(cls, exp, c=1):
        return cls({exp: _as_fraction(c)})

    def _constant(self, c):
        return {0: Fraction(c)} if c else {}

    def _product(self, a, b):
        return sparse.mul(a, b, add)

    def is_constant(self):
        return set(self.terms) <= {0}

    def constant_value(self):
        if not self.is_constant():
            raise DomainError(f"not a constant: {self}")
        return self.terms.get(0, Fraction(0))

    def substitute(self, value):
        value = _as_fraction(value)
        if value == 0 and any(e < 0 for e in self.terms):
            raise DomainError("cannot substitute 0 into a negative power")
        return sum((c * value**e for e, c in self.terms.items()), Fraction(0))

    def shifted(self, k):
        k = _as_int(k)
        return self._like({e + k: c for e, c in self.terms.items()})

    def __repr__(self):
        return f"Laurent({dict(self.items())!r})"

    def __str__(self, var="u"):
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.items():
            if e == 0:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(f"{var}^{e}")
            else:
                pieces.append(f"{c} {var}^{e}")
        return " + ".join(pieces)


# ---------------------------------------------------------------------------
# weight multisets and pushforward characters


class WeightMultiset(sparse.Element):
    """Finite multiset of rational weights, {weight: multiplicity}: a
    character of the rank-one torus.  Negative multiplicities encode virtual
    (formal difference) representations; the product is the tensor product,
    on which weights add."""

    __slots__ = ()
    _scalars = (int,)

    def __init__(self, terms=None):
        checked = [(_as_fraction(w), _as_int(m)) for w, m in (terms or {}).items()]
        self.terms = {w: m for w, m in checked if m}  # every key checked

    @classmethod
    def from_weights(cls, weights):
        return cls()._like(dict(Counter(map(_as_fraction, weights))))

    def _constant(self, c):
        return {Fraction(0): c} if c else {}

    def _product(self, a, b):
        return sparse.mul(a, b, add)

    def __len__(self):
        return sum(abs(m) for m in self.terms.values())

    is_empty = sparse.Element.is_zero

    def __repr__(self):
        inner = ", ".join(f"{w}: {m}" for w, m in self.items())
        return f"WeightMultiset({{{inner}}})"


def fixed_point_weights_cover(a, k, d):
    """Tangent and twisted-line weights (in units of u) at the two
    torus-fixed points of the degree-d cyclic cover z -> z^d of the
    projective line, for the lift of O(k) with weight a at the zero pole:
    tangent (1/d, -1/d), fiber (a, a - k).  d = 1 is the line itself."""
    if _as_int(d) < 1:
        raise DomainError(f"cover degree must be positive, got {d}")
    one = WeightMultiset()._like
    return ((one({Fraction(1, d): 1}), one({_as_fraction(a): 1})),
            (one({Fraction(-1, d): 1}), one({_as_fraction(a - k): 1})))


def pushforward_char_cover(k, a, d):
    """Weights of the cohomology of the pullback of O(k) along the degree-d
    cyclic cover: H0 = {a - i/d : i = 0..kd} for k >= 0,
    H1 = {a + i/d : i = 1..-kd-1} for k < 0.  d = 1 is the line itself,
    where both vanish at k = -1."""
    if _as_int(d) < 1:
        raise DomainError(f"cover degree must be positive, got {d}")
    _as_fraction(a)  # outside input: the twist must be an exact rational
    # distinct weights, each once: no counting needed
    empty = WeightMultiset()
    if k >= 0:
        return empty._like(dict.fromkeys(
            (Fraction(a * d - i, d) for i in range(k * d + 1)), 1)), empty
    return empty, empty._like(dict.fromkeys(
        (Fraction(a * d + i, d) for i in range(1, -k * d)), 1))


def _weight_denominator(fixed_points, claimed):
    denoms = [w.denominator for w in claimed.terms]
    for tangent, fiber in fixed_points:
        denoms.extend(w.denominator for w in tangent.terms)
        denoms.extend(w.denominator for w in fiber.terms)
    return lcm(*denoms)


def _char_poly(ws, scale):
    """sum of mult * q^(w*scale) as {int exponent: multiplicity}; scale is a
    multiple of every denominator, and distinct weights keep distinct keys."""
    return {w.numerator * (scale // w.denominator): m
            for w, m in ws.terms.items()}


def grr_localization_check(fixed_points, claimed):
    """Verify the fixed-point expression for a pushforward character:

        sum_j (sum_l e^(y_jl)) / prod_k (1 - e^(-x_jk))  ==  claimed character

    ``fixed_points`` is a list of (tangent, fiber) weight multisets;
    ``claimed`` is the virtual multiset H0 - H1.  Both sides are compared
    exactly: substitute q = e^(u/D) with D the common weight denominator and
    compare cleared-out Laurent polynomials in q over the integers.
    """
    scale = _weight_denominator(fixed_points, claimed)
    numerators, denominators = [], []
    for tangent, fiber in fixed_points:
        numerators.append(_char_poly(fiber, scale))
        den = {0: 1}
        for e, m in _char_poly(tangent, scale).items():
            if e == 0:
                raise DomainError("invalid fixed point: zero tangent weight")
            if m <= 0:
                raise DomainError(
                    "invalid fixed point: tangent multiplicities must be positive"
                )
            for _ in range(m):
                den = sparse.mul(den, {0: 1, -e: -1}, add)  # 1 - q^(-e)
        denominators.append(den)

    lhs = {}
    for j, num in enumerate(numerators):
        term = num
        for jj, den in enumerate(denominators):
            if jj != j:
                term = sparse.mul(term, den, add)
        lhs = sparse.add(lhs, term)
    rhs = _char_poly(claimed, scale)
    for den in denominators:
        rhs = sparse.mul(rhs, den, add)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the equivariant cohomology ring of projective space and its integration map


class EquivariantPolyRing:
    """Polynomials in u and the degree-2 generator H, reduced modulo the
    monic relation prod_i (H + a_i u).  Elements live in the basis
    H^0, ..., H^r with coefficients polynomial in u."""

    def __init__(self, r, weights=None):
        if _as_int(r) < 1:
            raise DomainError(f"projective dimension must be >= 1, got {r}")
        self.r = r
        if weights is None:
            weights = tuple(-i for i in range(r + 1))
        self.weights = tuple(_as_int(a) for a in weights)
        if len(self.weights) != r + 1:
            raise DomainError(f"need {r + 1} lift weights, got {len(self.weights)}")
        one = Laurent.constant(1)
        modulus = {0: one}  # prod_i (H + a_i u) by power of H, monic
        for a in self.weights:
            factor = sparse.add({1: one}, {0: Laurent.monomial(1, a)})
            modulus = sparse.mul(modulus, factor, add)
        del modulus[r + 1]
        self._top = sparse.scale(modulus, -1)  # H^(r+1), which _reduce rewrites

    def element(self, coeffs):
        """The element sum_i coeffs[i] H^i."""
        terms = (c if isinstance(c, Laurent) else Laurent.constant(c)
                 for c in coeffs)
        return RingElement(self, self._reduce(
            {i: c for i, c in enumerate(terms) if c}))

    @property
    def one(self):
        return self.element([1])

    @property
    def zero(self):
        return self.element([])

    @property
    def H(self):
        return self.element([0, 1])

    def u(self, exp=1, coef=1):
        return self.element([Laurent.monomial(exp, coef)])

    def _reduce(self, terms):
        """Rewrite each H^deg with deg > r by the relation, top degree first."""
        for deg in range(max(terms, default=0), self.r, -1):
            if deg in terms:
                head = {deg - self.r - 1: terms.pop(deg)}
                terms = sparse.add(terms, sparse.mul(head, self._top, add))
        return terms


class RingElement(sparse.Element):
    """{power of H: Laurent polynomial in u}, powers 0..r, no zero entries."""

    __slots__ = ("ring",)
    _frame = ("ring",)
    _scalars = (Laurent, int, Fraction)

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _constant(self, c):
        c = c if isinstance(c, Laurent) else Laurent.constant(c)
        return {0: c} if c else {}

    def _product(self, a, b):
        return self.ring._reduce(sparse.mul(a, b, add))

    def __repr__(self):
        pieces = []
        for i, c in sorted(self.terms.items()):
            head = f"({c})"
            pieces.append(head if i == 0 else f"{head} H^{i}")
        return " + ".join(pieces) or "0"


def ab_integrate(ring, element):
    """Fixed-point integration over projective r-space with isolated fixed
    points: sum over fixed points of the restriction divided by the product
    of tangent weights.  For the default lift the restriction rule is
    H -> i*u at the i-th fixed point and the tangent Euler class is
    prod_{j != i} (i - j) u."""
    weights = ring.weights
    if len(set(weights)) != len(weights):
        raise DomainError("integration needs pairwise distinct lift weights")
    total = Laurent()
    for i, a_i in enumerate(weights):
        restricted = Laurent()
        for k, c in element.terms.items():
            restricted = restricted + c * Laurent.monomial(k, Fraction(-a_i) ** k)
        euler_scalar = prod(a_j - a_i for j, a_j in enumerate(weights) if j != i)
        total = total + restricted.scaled(Fraction(1, euler_scalar)).shifted(-ring.r)
    return total


def point_class(ring, i=None):
    """The equivariant class Poincare dual to the i-th fixed point (default:
    the last one): prod over the other fixed points of (H + a_j u).  Its
    integral is exactly 1."""
    if i is None:
        i = ring.r
    out = ring.one
    for j, a_j in enumerate(ring.weights):
        if j != i:
            out = out * (ring.H + ring.u(1, a_j))
    return out


# ---------------------------------------------------------------------------
# the truncated psi/lambda algebra


def _exact(v):
    """v as an exact rational: an int when it is integral, else a Fraction."""
    v = _as_fraction(v)
    return v.numerator if v.denominator == 1 else v


def _ratio(n, d):
    """n/d for ints n and d > 0: an int when d divides n, else a Fraction."""
    q, rem = divmod(n, d)
    return Fraction(n, d) if rem else q


class HodgeClassPoly(sparse.Element):
    """Graded commutative polynomial in psi_1..psi_h (degree 1) and
    lambda_1..lambda_g (degree i), truncated above total degree 3g - 3 + h,
    with Laurent polynomials in u as coefficients.  lambda_0 is the unit.
    One flat dict: keys are (psi exponent vector, sorted lambda index
    multiset, power of u), coefficients exact rationals (int or Fraction)."""

    __slots__ = ("g", "h", "cap")
    _frame = ("g", "h", "cap")
    _scalars = (int, Fraction)

    def __init__(self, g, h, terms=None):
        self.g = _as_int(g)
        self.h = _as_int(h)
        self.cap = 3 * g - 3 + h
        clean = {}
        for (psi, lam, uexp), coef in (terms or {}).items():
            psi = tuple(_as_int(j) for j in psi)
            lam = tuple(sorted(_as_int(i) for i in lam))
            if len(psi) != h or any(j < 0 for j in psi):
                raise DomainError(f"bad psi exponent vector {psi}")
            if any(not 1 <= i <= g for i in lam):
                raise DomainError(f"bad lambda index multiset {lam}")
            key, coef = (psi, lam, _as_int(uexp)), _exact(coef)
            if sum(psi) + sum(lam) <= self.cap:  # truncation is part of the algebra
                clean[key] = clean.get(key, 0) + coef
        self.terms = {key: _exact(c) for key, c in clean.items() if c}

    @classmethod
    def scalar(cls, g, h, coef):
        return cls(g, h, {((0,) * h, (), 0): coef})

    def _constant(self, c):
        return {((0,) * self.h, (), 0): c} if c and self.cap >= 0 else {}

    def _product(self, a, b):
        # sparse.mul, with each degree summed once and the cap tested before
        # a product key is built
        right = [(key, sum(key[0]) + sum(key[1]), c) for key, c in b.items()]
        out = {}
        for (psi1, lam1, e1), c1 in a.items():
            room = self.cap - sum(psi1) - sum(lam1)
            for (psi2, lam2, e2), degree, c2 in right:
                if degree <= room:
                    key = (tuple(map(add, psi1, psi2)),
                           tuple(sorted(lam1 + lam2)), e1 + e2)
                    out[key] = out.get(key, 0) + c1 * c2
        return {key: c for key, c in out.items() if c}

    def shifted(self, k):
        """self * u^k."""
        k = _as_int(k)
        return self._like({(psi, lam, e + k): c
                           for (psi, lam, e), c in self.terms.items()})

    def items(self):
        """Terms sorted by degree, then psi, lambda and the power of u."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]))

    def __repr__(self):
        return f"HodgeClassPoly(g={self.g}, h={self.h}, {format_hodge_class(self)!r})"


def hodge_euler_dual(g, h, twist=1):
    """Euler class of the twisted dual Hodge bundle:
    sum_{i=0}^g (-1)^i lambda_i (t u)^{g-i} with t the twist weight."""
    twist = _exact(twist)
    zero = (0,) * h
    return HodgeClassPoly(g, h, {
        (zero, (i,) if i else (), g - i): (-1) ** i * twist ** (g - i)
        for i in range(g + 1)})


def inv_u_minus_psi(g, h, c, index):
    """1/(u - c*psi_index) expanded as the finite geometric series
    u^(-1) * sum_j (c psi / u)^j, truncated by the degree cap."""
    c = _exact(c)
    terms = {}
    for j in range(3 * g - 3 + h + 1):
        psi = [0] * h
        psi[index] = j
        terms[(tuple(psi), (), -(j + 1))] = c**j
    return HodgeClassPoly(g, h, terms)


# ---------------------------------------------------------------------------
# fixed-locus data and the localization chain


class FixedLocusData(namedtuple("FixedLocusData", [
    "g",
    "mu",
    "b1_fixed",            # infinitesimal automorphisms, weight 0
    "b2_fixed",            # weight-0 part of the map deformations
    "b4_moving",           # (weight 1/mu_i, marked point index)
    "hodge_twist",         # twist on the dual Hodge piece
    "trivial_moving",      # the weight-1 copies, h - 1 of them
    "cover_weights",       # subtracted piece: {a/mu_i : a = 1..mu_i}
    "automorphism_order",  # prod mu_i, the cyclic cover symmetries
])):
    """The virtual-normal-bundle bookkeeping at the distinguished fixed locus:
    trivial-weight fixed pieces, the node-smoothing factors (u/mu_i - psi_i),
    and the weight content of the obstruction-minus-deformation difference."""

    __slots__ = ()


def fixed_locus_data(g, mu):
    """Assemble the fixed-locus data for genus g and profile mu."""
    h = mu.length
    if 2 * g - 2 + h <= 0 or h == 0:
        raise DomainError(f"unsupported range: unstable (g, h) = ({g}, {h})")
    return FixedLocusData(
        g=g,
        mu=mu,
        b1_fixed=WeightMultiset({0: h}),
        b2_fixed=WeightMultiset({0: h}),
        b4_moving=tuple((Fraction(1, p), i) for i, p in enumerate(mu)),
        hodge_twist=Fraction(1),
        trivial_moving=WeightMultiset({1: h - 1}),
        cover_weights=WeightMultiset.from_weights(
            Fraction(a, p) for p in mu for a in range(1, p + 1)),
        automorphism_order=prod(mu),
    )


def inverse_euler_normal(data):
    """Inverse Euler class of the virtual normal bundle, as an element of the
    truncated psi/lambda algebra.

    Built twice.  Compositionally from the weight data: the product of the
    dual Hodge class, the trivial weights and the node-smoothing series
    1/(u/mu_i - psi_i), all with integer coefficients, times the inverse
    cover-weight product, the one rational factor, applied last.  And term
    by term from the closed form

        C(mu) * Lambda(u) * u^(h-d-1) / prod (u - mu_i psi_i),
        C(mu) = mu_1...mu_h * prod mu_i^mu_i / mu_i!,

    whose psi_J lambda_k term is C(mu) (-1)^k prod mu_i^j_i u^(g-1-d-k-|J|)
    for |J| + k <= 3g - 3 + h; that route multiplies no classes.  The two
    must match exactly; a mismatch raises ConsistencyError."""
    g, mu = data.g, data.mu
    d, h = mu.size, mu.length

    compositional = hodge_euler_dual(g, h, data.hodge_twist)
    for w, m in data.trivial_moving.items():
        compositional = compositional.shifted(m).scaled(_exact(w**m))
    for w, index in data.b4_moving:
        # 1/(w u - psi) = (1/w) * 1/(u - (1/w) psi), with 1/w = mu_i
        c = _exact(1 / w)
        compositional = (compositional * inv_u_minus_psi(g, h, c, index)).scaled(c)
    cover = prod(w**m for w, m in data.cover_weights.items())
    shift = sum(data.cover_weights.terms.values())
    compositional = compositional._like({
        (psi, lam, e - shift): _ratio(c * cover.denominator, cover.numerator)
        for (psi, lam, e), c in compositional.terms.items()})

    cap = compositional.cap
    num = prod(p ** (p + 1) for p in mu)
    den = prod(map(factorial, mu))
    vectors = [((), 1, 0)]  # (J, prod mu_i^j_i, |J|) with |J| <= cap
    for p in mu:
        vectors = [(J + (j,), w * p**j, s + j)
                   for J, w, s in vectors for j in range(cap - s + 1)]
    closed = {}
    for k in range(min(g, cap) + 1):
        lam = (k,) if k else ()
        for J, w, s in vectors:
            if s + k <= cap:
                closed[J, lam, g - 1 - d - k - s] = _ratio((-1) ** k * num * w, den)
    closed = compositional._like(closed)

    if compositional != closed:
        raise ConsistencyError(
            f"inverse Euler class mismatch for (g={g}, mu={mu}):\n"
            f"  compositional: {format_hodge_class(compositional)}\n"
            f"  closed form:   {format_hodge_class(closed)}"
        )
    return closed


def _hodge_bracket(g, h, psi, lam):
    if len(lam) > 1:
        raise DomainError(
            f"non-linear Hodge monomial lam{list(lam)} cannot be evaluated"
        )
    return HodgeBracket(g=g, h=h, psi=psi, lam=lam[0] if lam else 0)


@cache
def _top_degree_terms(g, mu):
    """The table-free part of the localization chain: the degree 3g - 3 + h
    terms of u^r * ``inverse_euler_normal``, one item per (psi, lam) in the
    canonical order, as (psi, lam, bracket, ((power of u, coefficient),
    ...)), built and cross-checked once per (g, mu) for the life of the
    process.  Lower degrees pair to zero by the dimension constraint."""
    inv = inverse_euler_normal(fixed_locus_data(g, mu))
    r = 2 * g - 2 + mu.size + mu.length
    top = {}
    # the kept terms share one degree: sorted by key, they keep inv.items() order
    kept = sorted((k, c) for k, c in inv.terms.items()
                  if sum(k[0]) + sum(k[1]) == inv.cap)
    for (psi, lam, e), c in kept:
        top.setdefault((psi, lam), []).append((e + r, c))
    return tuple((psi, lam, _hodge_bracket(g, inv.h, psi, lam), tuple(coef))
                 for (psi, lam), coef in top.items())


def elsv_via_localization(g, mu, table, u_value=None):
    """The full localization chain: expand

        Lambda(u) * u^(2g-3+2h) / prod (u - mu_i psi_i)

    in the truncated algebra, check that every top-degree coefficient is
    constant in u, pair the top-degree monomials through the bracket table,
    and multiply by r!/(aut * mu_1...mu_h) and the weight prefactor.  The
    result must equal ``elsv_evaluate`` exactly.

    The expansion does not depend on the table or on ``u_value``: it is built
    once per (g, mu) and memoized for the process (``_top_degree_terms``).
    The u-independence check and the pairing run on every call.

    With ``u_value`` set, substitutes that nonzero rational for u instead of
    checking that each coefficient is constant, summing c * u_value^e over
    each monomial's powers of u; the result is the same for every choice.
    """
    terms = _top_degree_terms(g, mu)
    r = 2 * g - 2 + mu.size + mu.length
    # prod(mu) is FixedLocusData.automorphism_order
    prefactor = Fraction(factorial(r), aut_size(mu) * prod(mu))

    total = Fraction(0)
    if u_value is None:
        for psi, lam, bracket, coef in terms:
            if len(coef) > 1 or coef[0][0] != 0:
                raise ConsistencyError(
                    "nonvanishing u-dependence after degree selection in term "
                    f"{_format_term(Fraction(1), 0, psi, lam)}: "
                    f"coefficient {Laurent(dict(coef))}"
                )
            total += coef[0][1] * table.value(bracket)
    else:
        u_value = _as_fraction(u_value)
        if u_value == 0:
            raise DomainError("substitution value for u must be nonzero")
        for psi, lam, bracket, coef in terms:
            total += sum(c * u_value**e for e, c in coef) * table.value(bracket)
    return prefactor * total


# ---------------------------------------------------------------------------
# canonical text grammar for symbolic classes


def _format_term(coef, uexp, psi, lam):
    pieces = [str(coef)]
    if uexp:
        pieces.append(f"u^{uexp}")
    for i, e in enumerate(psi):
        if e == 1:
            pieces.append(f"psi{i + 1}")
        elif e > 1:
            pieces.append(f"psi{i + 1}^{e}")
    pieces.extend(f"lam{i}" for i in lam)
    return " ".join(pieces)


def format_hodge_class(poly):
    """Canonical, round-trippable rendering: terms sorted by degree then key
    then u-exponent, joined with " + "; coefficients are exact rationals."""
    return " + ".join(_format_term(c, uexp, psi, lam)
                      for (psi, lam, uexp), c in poly.items()) or "0"


def parse_hodge_class(text, g, h):
    """Inverse of ``format_hodge_class`` for classes on the (g, h) moduli."""
    text = text.strip()
    if text == "0":
        return HodgeClassPoly(g, h)
    terms = {}
    for chunk in text.split(" + "):
        tokens = chunk.split()
        try:
            coef = Fraction(tokens[0])
        except (ValueError, IndexError) as exc:
            raise DomainError(f"cannot parse term {chunk!r}") from exc
        uexp = 0
        psi = [0] * h
        lam = []
        for tok in tokens[1:]:
            if tok.startswith("u^"):
                uexp = int(tok[2:])
            elif tok.startswith("psi"):
                body = tok[3:]
                if "^" in body:
                    idx, exp = body.split("^")
                    psi[int(idx) - 1] += int(exp)
                else:
                    psi[int(body) - 1] += 1
            elif tok.startswith("lam"):
                lam.append(int(tok[3:]))
            else:
                raise DomainError(f"cannot parse factor {tok!r} in {chunk!r}")
        key = (tuple(psi), tuple(sorted(lam)), uexp)
        terms[key] = terms.get(key, 0) + coef
    return HodgeClassPoly(g, h, terms)
