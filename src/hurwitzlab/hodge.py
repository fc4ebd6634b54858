"""Linear Hodge integral tables, driven by the branched-cover engines.

The bridge identity: for a stable pair (g, h) and a profile mu with h parts,
the connected cover count factors as

    H(g, mu) = (r! / aut_size(mu)) * prod mu_i^mu_i / mu_i! * P(mu),
    r = 2g - 2 + |mu| + h,

where P is a symmetric polynomial in the parts whose homogeneous piece of
degree 3g - 3 + h - i carries, with sign (-1)^i, exactly the brackets
<psi_1^{j_1} ... psi_h^{j_h} lambda_i>.  ``elsv_evaluate`` runs this forward
from a bracket table; ``elsv_inversion`` samples the character sums on a
grid of part tuples and solves the exact linear system in the
monomial-symmetric basis to recover the brackets, and ``invert_into`` puts
them in a table.  The grid rows are integers; they are picked by
elimination modulo a 61-bit prime, and the square system is solved on that
factorization by p-adic lifting, whose solution is checked against A x = b
exactly before it is used; no floating point anywhere.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import comb, factorial, gcd, isqrt, lcm, prod

from .errors import ConsistencyError, DomainError, MissingBracketError
from .hurwitz import (BURNSIDE_MAX_D, DP_MAX_D, _tuple_count, connected_dp,
                      connected_via_transform)
from .partitions import Partition, aut_size, partitions_of

_TABLE_HEADER = "hurwitzlab-hodge-table v1"


class HodgeBracket(namedtuple("HodgeBracket", "g h psi lam")):
    """A linear Hodge integral <psi_1^{j_1} ... psi_h^{j_h} lambda_i> on the
    (g, h) moduli space.  psi exponents are stored sorted descending (the
    bracket is symmetric in the marked points); the dimension constraint
    sum(j) + i = 3g - 3 + h is enforced, so no identically-zero bracket is
    ever represented."""

    __slots__ = ()

    def __new__(cls, g, h, psi, lam):
        self = super().__new__(cls, g, h, tuple(sorted(psi, reverse=True)), lam)
        if h < 1 or len(self.psi) != h:
            raise DomainError(f"need one psi exponent per marked point: {self}")
        if any(j < 0 for j in self.psi):
            raise DomainError(f"negative psi exponent: {self}")
        if not 0 <= lam <= g:
            raise DomainError(f"lambda index out of range: {self}")
        if 2 * g - 2 + h <= 0:
            raise DomainError(f"unstable (g, h) = ({g}, {h})")
        if sum(self.psi) + lam != 3 * g - 3 + h:
            raise DomainError(
                f"dimension constraint violated: sum(psi) + lam = "
                f"{sum(self.psi) + lam} != {3 * g - 3 + h}"
            )
        return self

    def sort_key(self):
        return (self.g, self.h, self.lam, self.psi)

    def __str__(self):
        inner = ",".join(str(j) for j in self.psi)
        return f"({self.g},{self.h},[{inner}],{self.lam})"

    @classmethod
    def from_string(cls, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise DomainError(f"cannot parse bracket key {text!r}")
        body = text[1:-1]
        try:
            head, rest = body.split("[", 1)
            exps, tail = rest.split("]", 1)
            g_str, h_str = head.rstrip(",").split(",")
            psi = tuple(int(t) for t in exps.split(",")) if exps else ()
            lam = int(tail.lstrip(","))
            return cls(g=int(g_str), h=int(h_str), psi=psi, lam=lam)
        except ValueError as exc:
            raise DomainError(f"cannot parse bracket key {text!r}") from exc


_SEED_BRACKET = HodgeBracket(g=0, h=3, psi=(0, 0, 0), lam=0)


class HodgeTable:
    """Map from brackets to exact rational values.  The three-point genus-zero
    seed <psi^0 psi^0 psi^0> = 1 is always present."""

    def __init__(self):
        self._values = {_SEED_BRACKET: Fraction(1)}

    def add(self, bracket, value):
        value = Fraction(value)
        existing = self._values.setdefault(bracket, value)
        if existing != value:
            raise ConsistencyError(
                f"conflicting values for {bracket}: {existing} vs {value}"
            )

    def value(self, bracket):
        try:
            return self._values[bracket]
        except KeyError:
            raise MissingBracketError(bracket) from None

    def __contains__(self, bracket):
        return bracket in self._values

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return iter(sorted(self._values, key=HodgeBracket.sort_key))

    def __eq__(self, other):
        if not isinstance(other, HodgeTable):
            return NotImplemented
        return self._values == other._values

    def brackets_for(self, g, h):
        return [b for b in self if (b.g, b.h) == (g, h)]

    def has_all_for(self, g, h):
        return all(b in self for b in required_brackets(g, h))

    def drop(self, g, h):
        """Forget the (g, h) brackets, except the built-in seed."""
        self._values = {
            b: v for b, v in self._values.items()
            if (b.g, b.h) != (g, h) or b == _SEED_BRACKET
        }


def required_brackets(g, h):
    """Every bracket the (g, h) forward evaluation touches."""
    if g < 0:
        raise DomainError(f"genus must be nonnegative, got {g}")
    if 2 * g - 2 + h <= 0:
        raise DomainError(f"unsupported range: unstable (g, h) = ({g}, {h})")
    n = 3 * g - 3 + h
    out = []
    for i in range(0, g + 1):
        s = n - i
        if s < 0:
            continue
        for psi in _exponent_multisets(s, h):
            out.append(HodgeBracket(g=g, h=h, psi=psi, lam=i))
    return out


def _exponent_multisets(total, h):
    """Weakly decreasing h-tuples of nonnegative integers with the given sum."""
    return [
        p + (0,) * (h - p.length)
        for p in partitions_of(total)
        if p.length <= h
    ]


def _monomial_row(exponent_tuples, values):
    """m_J(values) for every J in ``exponent_tuples`` (each sorted
    descending, with one exponent per value), by the recursion on the last
    variable: m_J(x_1..x_k) = sum over distinct j in J of
    x_k^j m_{J - j}(x_1..x_{k-1}).  The sub-multisets are memoized for this
    call only, so the J of one interpolation row share their work."""
    memo = {(): 1}

    def m(exps):
        got = memo.get(exps)
        if got is None:
            x = values[len(exps) - 1]
            got = sum(x**j * m(exps[:i] + exps[i + 1:])
                      for i, j in enumerate(exps) if i == 0 or j != exps[i - 1])
            memo[exps] = got
        return got

    return [m(exps) for exps in exponent_tuples]


def monomial_symmetric(exponents, values):
    """The monomial symmetric polynomial m_J evaluated at a tuple of values:
    the sum over distinct permutations of J of the corresponding monomial."""
    return _monomial_row([tuple(sorted(exponents, reverse=True))], values)[0]


def _prefactor(g, mu):
    d, h = mu.size, mu.length
    r = 2 * g - 2 + d + h
    out = Fraction(factorial(r), aut_size(mu))
    for p in mu:
        out *= Fraction(p**p, factorial(p))
    return out


def elsv_evaluate(g, mu, table):
    """Forward evaluation: the connected cover count for (g, mu) from a
    bracket table.  Raises MissingBracketError naming the first absent
    bracket, and rejects unstable (g, len(mu))."""
    brackets = required_brackets(g, mu.length)
    row = _monomial_row([b.psi for b in brackets], mu)
    return _prefactor(g, mu) * sum(
        ((-1) ** b.lam * table.value(b) * m for b, m in zip(brackets, row)),
        Fraction(0))


# ---------------------------------------------------------------------------
# exact linear algebra (rows picked and solved on one factorization mod p)

#: The Mersenne prime 2^61 - 1, for the row selection and the lifting.
_P = 2**61 - 1


def _holds(matrix, nums, den, rhs):
    """Whether matrix (nums / den) = rhs, exactly, in integers."""
    return all(sum(a * x for a, x in zip(row, nums)) == den * b
               for row, b in zip(matrix, rhs))


def _rational(residues, modulus):
    """Wang's rational reconstruction of a residue vector: ``(nums, den)``
    with every nums[i] / den = residues[i] mod ``modulus`` and numerators
    and denominators at most sqrt(modulus / 2), or None.  Each entry is
    reconstructed after scaling by the denominator found so far, so entries
    sharing a denominator cost one Euclid step."""
    bound = isqrt((modulus - 1) // 2)
    nums, den = [], 1
    for u in residues:
        r0, s0, r1, s1 = modulus, 0, u * den % modulus, 1
        while r1 > bound:
            q = r0 // r1
            r0, s0, r1, s1 = r1, s1, r0 - q * r1, s0 - q * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            return None
        if s1 < 0:
            r1, s1 = -r1, -s1
        if s1 != 1:
            nums = [x * s1 for x in nums]
            den *= s1
        nums.append(r1)
    return nums, den


#: Lane width of a packed row: lanes below p + 256 p^2 < 2^131 cannot carry.
_W = 132
_LANE = (1 << _W) - 1
#: Reduction steps between two re-reductions of a packed candidate's lanes.
_STEPS = 256


def _pack(values):
    """One int holding values[j] (each 0 <= v < 2^W) at bits [jW, (j+1)W),
    built from W / 4 hex digits per lane."""
    return int("".join(f"{v:0{_W // 4}x}" for v in reversed(values)) or "0",
               16)


def _lanes_mod_p(packed, n):
    """The n lanes of ``packed``, each reduced mod p."""
    width = _W // 4
    digits = f"{packed:0{width * n}x}"
    return [int(digits[i - width:i], 16) % _P
            for i in range(len(digits), 0, -width)]


class _Elimination:
    """Picks independent integer rows one at a time, then solves the square
    system they form exactly and certifies the solution.

    ``add`` reduces a candidate row mod p against the echelon E of the kept
    rows and keeps it iff anything is left.  A minor nonzero mod p is
    nonzero over Q, so the kept rows are independent over Q; a row
    dependent mod p only is skipped.  The multipliers are recorded, so the
    kept rows are L E mod p with L lower triangular, the last entry of each
    L row the pivot.  ``solve`` lifts p-adically on that factorization
    (Dixon): each step solves through L and E mod p and takes one exact
    integer product for the next residual, then tries rational
    reconstruction and returns the first solution that passes A x = b
    exactly (the certificate).  Past the modulus at which Hadamard's bound
    makes the reconstruction unique, it raises ConsistencyError.

    Each echelon row is held packed, as one int with lane j at bits
    [jW, (j+1)W), W = 132 (33 hex digits), holding (p - e_j) mod p: the row
    negated mod p.  A reduction step on a packed candidate is then
    ``work += f * packed``, one multiply-add over every lane in C, and the
    multiplier f is the candidate's pivot lane mod p.  A step adds less
    than p^2 < 2^122 to a lane, so the lanes are re-reduced mod p every
    256 steps, which keeps each below p + 256 p^2 < 2^131: no lane carries
    into the next.  The candidate is unpacked once, at the end, to find its
    pivot."""

    def __init__(self, name="the linear system"):
        self.name = name
        self.rows = []      # the kept integer rows
        self._echelon = []  # (pivot, the row mod p, 1 there, packed negated)
        self._lower = []    # the rows of L

    def add(self, row):
        """Keep ``row`` iff it is independent of the kept rows mod p."""
        n = len(row)
        work = _pack([v % _P for v in row])
        multipliers = []
        for steps, (pivot, packed) in enumerate(self._echelon, 1):
            f = ((work >> pivot * _W) & _LANE) % _P
            multipliers.append(f)
            if f:
                work += f * packed
            if steps % _STEPS == 0:
                work = _pack(_lanes_mod_p(work, n))
        lanes = _lanes_mod_p(work, n)
        pivot = next((j for j, w in enumerate(lanes) if w), None)
        if pivot is None:
            return False
        inverse = pow(lanes[pivot], -1, _P)
        self._echelon.append((pivot, _pack([-w * inverse % _P for w in lanes])))
        self._lower.append(multipliers + [lanes[pivot]])
        self.rows.append(list(row))
        return True

    def _solve_mod_p(self, rhs):
        """The x with A x = rhs mod p: forward through L, back through E."""
        y = []
        for row, b in zip(self._lower, rhs):
            done = sum(f * v for f, v in zip(row, y))
            y.append((b - done) * pow(row[-1], -1, _P) % _P)
        x = [0] * len(y)
        for (pivot, packed), v in zip(reversed(self._echelon), reversed(y)):
            # x[pivot] is still 0, so its lane p - 1 adds nothing
            negated = _lanes_mod_p(packed, len(x))
            x[pivot] = (v + sum(t * w for t, w in zip(negated, x))) % _P
        return x

    def solve(self, rhs):
        """The x with A x = rhs, A the kept rows, which must be square;
        raises ConsistencyError unless A x = rhs holds exactly."""
        if any(len(row) != len(self.rows) for row in self.rows):
            raise DomainError(f"{self.name}: the kept rows are not square")
        rhs = [Fraction(b) for b in rhs]
        scale = lcm(*(b.denominator for b in rhs))
        scaled = [b.numerator * (scale // b.denominator) for b in rhs]
        # Hadamard: |det A| <= H and, by Cramer, every numerator is at most
        # H * |b|_1, so past 2 (H (1 + |b|_1))^2 the reconstruction is unique
        limit = (2 * prod(sum(a * a for a in row) for row in self.rows)
                 * (1 + sum(map(abs, scaled))) ** 2 * _P)
        residual, lifted, modulus = scaled, [0] * len(scaled), 1
        while modulus <= limit:
            x = self._solve_mod_p(residual)
            lifted = [u + modulus * v for u, v in zip(lifted, x)]
            modulus *= _P
            residual = [(b - sum(a * v for a, v in zip(row, x))) // _P
                        for row, b in zip(self.rows, residual)]
            got = _rational(lifted, modulus)
            if got is not None and _holds(self.rows, *got, scaled):
                nums, den = got
                return [Fraction(v, den * scale) for v in nums]
        raise ConsistencyError(
            f"{self.name}: no solution passes the exact check A x = b"
        )


# ---------------------------------------------------------------------------
# inversion

def sample_candidates(g, h):
    """Deterministic stream of sample profiles for the (g, h) interpolation.

    Part tuples are drawn from {1..3g-1+h}^h, ordered by total size with
    strictly increasing tuples (trivial part symmetry) preferred within each
    size; the pool radius grows without bound so rank deficiency can always
    be repaired."""
    seen = set()
    radius = max(3 * g - 1 + h, 1)
    while True:
        batch = []
        for tup in combinations_with_replacement(range(1, radius + 1), h):
            if tup in seen:
                continue
            strict = 0 if len(set(tup)) == len(tup) else 1
            batch.append((sum(tup), strict, tup))
        for _, _, tup in sorted(batch):
            seen.add(tup)
            yield Partition(sorted(tup, reverse=True))
        radius += 1


def normalized_count(g, mu, hurwitz_value):
    """Strip the combinatorial prefactor from an engine value, leaving the
    symmetric-polynomial part P(mu)."""
    return Fraction(hurwitz_value) / _prefactor(g, mu)


InversionResult = namedtuple("InversionResult", [
    "g",
    "h",
    "brackets",
    "grid",      # profiles used for interpolation
    "samples",   # profile -> engine value, for every profile queried
])


#: How far past its initial radius the candidate pool may grow before a
#: rank-deficient grid counts as a singular interpolation system.
_MAX_RADIUS_GROWTH = 20


def elsv_inversion(g, h, dp_max_d=DP_MAX_D, burnside_max_d=BURNSIDE_MAX_D):
    """Recover all (g, h) brackets by exact interpolation of cover counts.

    Samples the normalized count on a grid of profiles, solves for the
    monomial-symmetric coefficients in the degree band
    [2g-3+h, 3g-3+h], and reads brackets off the band.  The rows are
    picked mod p and solved by ``_Elimination``; a candidate dependent mod
    p is skipped, so the grid is a nonsingular one and the brackets, the
    unique solution, do not depend on which.  The certificate (A x = b,
    checked exactly) raises ConsistencyError naming (g, h).  The samples
    are ``connected_via_transform(g, mu, "burnside")`` up to
    ``burnside_max_d``.  Every grid point is re-derived by the cut-and-join
    count of transitive factorizations on cycle types
    (``connected_dp(g, mu, max_d=dp_max_d)``), which uses no characters and
    no transform; a disagreement raises ConsistencyError.  A grid point
    over either budget raises its ResourceLimitError as soon as it is
    chosen, the dp budget first.
    """
    unknowns = required_brackets(g, h)
    radius = max(3 * g - 1 + h, 1) + _MAX_RADIUS_GROWTH
    pool = islice(sample_candidates(g, h), comb(radius + h - 1, h))
    elimination = _Elimination(f"the (g, h) = ({g}, {h}) interpolation")
    exponents = [b.psi for b in unknowns]
    grid = []
    for mu in pool:
        if elimination.add(_monomial_row(exponents, mu)):
            for engine in ("dp", "burnside"):  # before any engine runs
                _tuple_count(engine, mu.size, dp_max_d, burnside_max_d)
            grid.append(mu)
            if len(grid) == len(unknowns):
                break
    else:
        raise DomainError(
            f"singular interpolation system for (g, h) = ({g}, {h}): "
            f"rank {len(grid)} of {len(unknowns)} after grid {grid}"
        )
    # looked up per call, so a wrapper installed on the module name applies
    samples = {mu: connected_via_transform(g, mu, "burnside",
                                           burnside_max_d=burnside_max_d)
               for mu in grid}
    solution = elimination.solve(
        [normalized_count(g, mu, samples[mu]) for mu in grid]
    )

    for mu in grid:
        check = connected_dp(g, mu, max_d=dp_max_d)
        if check != samples[mu]:
            raise ConsistencyError(
                f"engine disagreement at (g={g}, mu={mu}): the transitive "
                f"count gives {check}, inversion engine gave {samples[mu]}"
            )

    brackets = {b: (-1) ** b.lam * x for b, x in zip(unknowns, solution)}
    return InversionResult(g=g, h=h, brackets=brackets, grid=tuple(grid),
                           samples=samples)


def invert_into(table, g, h, dp_max_d=DP_MAX_D, burnside_max_d=BURNSIDE_MAX_D):
    """Replace the (g, h) block of ``table`` by a fresh ``elsv_inversion``
    and return its ``InversionResult``; other blocks and the seed stay."""
    result = elsv_inversion(g, h, dp_max_d, burnside_max_d)
    table.drop(g, h)
    for bracket, value in result.brackets.items():
        table.add(bracket, value)
    return result


# ---------------------------------------------------------------------------
# string equation (consistency check only, never a source of values)

class StringCheck(namedtuple("StringCheck", "lhs rhs expected actual")):
    __slots__ = ()

    @property
    def passed(self):
        return self.expected == self.actual


class StringEquationReport(namedtuple("StringEquationReport",
                                      "checks skipped")):
    __slots__ = ()

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def summary(self):
        return (
            f"{sum(1 for c in self.checks if c.passed)}/{len(self.checks)} "
            f"string-equation identities hold, {len(self.skipped)} skipped"
        )


def string_equation_check(table):
    """Check every applicable instance of the identity that removes one
    psi^0 insertion from a lambda_0 bracket:

        <psi^0 prod psi^{j_i}>_(g,h) = sum_k <psi^{j_k - 1} prod rest>_(g,h-1)

    Only brackets with all needed right-hand entries present are checked;
    the rest are reported as skipped."""
    checks, skipped = [], []
    for bracket in table:
        if bracket.lam != 0 or bracket.h < 2 or 0 not in bracket.psi:
            continue
        if 2 * bracket.g - 2 + (bracket.h - 1) <= 0:
            skipped.append(bracket)
            continue
        reduced = list(bracket.psi)
        reduced.remove(0)
        rhs = []
        for k, j in enumerate(reduced):
            if j >= 1:
                lowered = list(reduced)
                lowered[k] = j - 1
                rhs.append(
                    HodgeBracket(g=bracket.g, h=bracket.h - 1,
                                 psi=tuple(lowered), lam=0)
                )
        if any(b not in table for b in rhs):
            skipped.append(bracket)
            continue
        expected = sum((table.value(b) for b in rhs), Fraction(0))
        checks.append(
            StringCheck(lhs=bracket, rhs=tuple(rhs), expected=expected,
                        actual=table.value(bracket))
        )
    return StringEquationReport(checks=checks, skipped=skipped)


# ---------------------------------------------------------------------------
# serialization

def hodge_export(table):
    """Deterministic versioned document: one line per bracket, sorted, each
    with its provenance tag.  The tag is written from the bracket, not
    stored: the built-in seed is "seeded", and every other value the library
    holds was inverted from cover counts."""
    lines = [_TABLE_HEADER]
    for b in table:
        provenance = "seeded" if b == _SEED_BRACKET else "inverted-from-hurwitz"
        lines.append(f"{b} {table.value(b)} {provenance}")
    return "\n".join(lines) + "\n"


def hodge_import(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _TABLE_HEADER:
        raise DomainError("unrecognized Hodge table format")
    table = HodgeTable()
    for ln in lines[1:]:
        try:
            key, value, _ = ln.split()  # the provenance tag is not stored
            table.add(HodgeBracket.from_string(key), Fraction(value))
        except (ValueError, ZeroDivisionError, ConsistencyError) as exc:
            # a line contradicting an earlier one or the seed is bad input
            raise DomainError(f"malformed Hodge table line {ln!r}") from exc
    return table
