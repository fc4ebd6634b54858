"""Linear Hodge integral tables, driven by the branched-cover engines.

The bridge identity: for a stable pair (g, h) and a profile mu with h parts,
the connected cover count factors as

    H(g, mu) = (r! / aut_size(mu)) * prod mu_i^mu_i / mu_i! * P(mu),
    r = 2g - 2 + |mu| + h,

where P is a symmetric polynomial in the parts whose homogeneous piece of
degree 3g - 3 + h - i carries, with sign (-1)^i, exactly the brackets
<psi_1^{j_1} ... psi_h^{j_h} lambda_i>.  ``elsv_evaluate`` runs this forward
from a bracket table; ``elsv_inversion`` samples an engine on a grid of part
tuples and solves the exact linear system in the monomial-symmetric basis to
recover the brackets, and ``invert_into`` puts them in a table.  The linear
algebra is one incremental Gaussian elimination over the rationals, which
both picks the independent grid rows and solves; no floating point anywhere.
"""

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations_with_replacement, islice, permutations
from math import comb, factorial, prod

from .errors import ConsistencyError, DomainError, MissingBracketError
from .hurwitz import DP_MAX_D, connected_dp, connected_via_transform
from .partitions import Partition, aut_size, partitions_of

_TABLE_HEADER = "hurwitzlab-hodge-table v1"

SEEDED = "seeded"
INVERTED = "inverted-from-hurwitz"


@dataclass(frozen=True)
class HodgeBracket:
    """A linear Hodge integral <psi_1^{j_1} ... psi_h^{j_h} lambda_i> on the
    (g, h) moduli space.  psi exponents are stored sorted descending (the
    bracket is symmetric in the marked points); the dimension constraint
    sum(j) + i = 3g - 3 + h is enforced, so no identically-zero bracket is
    ever represented."""

    g: int
    h: int
    psi: tuple
    lam: int

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(sorted(self.psi, reverse=True)))
        if self.h < 1 or len(self.psi) != self.h:
            raise DomainError(f"need one psi exponent per marked point: {self}")
        if any(j < 0 for j in self.psi):
            raise DomainError(f"negative psi exponent: {self}")
        if not 0 <= self.lam <= self.g:
            raise DomainError(f"lambda index out of range: {self}")
        if 2 * self.g - 2 + self.h <= 0:
            raise DomainError(f"unstable (g, h) = ({self.g}, {self.h})")
        if sum(self.psi) + self.lam != 3 * self.g - 3 + self.h:
            raise DomainError(
                f"dimension constraint violated: sum(psi) + lam = "
                f"{sum(self.psi) + self.lam} != {3 * self.g - 3 + self.h}"
            )

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
    """Map from brackets to exact rational values, with a provenance tag per
    entry.  The three-point genus-zero seed <psi^0 psi^0 psi^0> = 1 is always
    present."""

    def __init__(self):
        self._entries = {_SEED_BRACKET: (Fraction(1), SEEDED)}

    def add(self, bracket, value, provenance=INVERTED):
        value = Fraction(value)
        existing = self._entries.get(bracket)
        if existing is not None:
            if existing[0] != value:
                raise ConsistencyError(
                    f"conflicting values for {bracket}: {existing[0]} vs {value}"
                )
            return
        self._entries[bracket] = (value, provenance)

    def value(self, bracket):
        entry = self._entries.get(bracket)
        if entry is None:
            raise MissingBracketError(bracket)
        return entry[0]

    def provenance(self, bracket):
        entry = self._entries.get(bracket)
        if entry is None:
            raise MissingBracketError(bracket)
        return entry[1]

    def __contains__(self, bracket):
        return bracket in self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(sorted(self._entries, key=HodgeBracket.sort_key))

    def __eq__(self, other):
        if not isinstance(other, HodgeTable):
            return NotImplemented
        return self._entries == other._entries

    def items(self):
        for bracket in self:
            value, provenance = self._entries[bracket]
            yield bracket, value, provenance

    def brackets_for(self, g, h):
        return [b for b in self if (b.g, b.h) == (g, h)]

    def has_all_for(self, g, h):
        return all(b in self for b in required_brackets(g, h))

    def drop(self, g, h):
        """Forget the (g, h) brackets, except the built-in seed."""
        self._entries = {
            b: entry for b, entry in self._entries.items()
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
        tuple(p.parts) + (0,) * (h - p.length)
        for p in partitions_of(total)
        if p.length <= h
    ]


@cache
def _distinct_permutations(exponents):
    return tuple(set(permutations(exponents)))


def monomial_symmetric(exponents, values):
    """The monomial symmetric polynomial m_J evaluated at a tuple of values:
    the sum over distinct permutations of J of the corresponding monomial."""
    return Fraction(sum(prod(v**j for v, j in zip(values, perm))
                        for perm in _distinct_permutations(tuple(exponents))))


def _prefactor(g, mu):
    d, h = mu.size, mu.length
    r = 2 * g - 2 + d + h
    out = Fraction(factorial(r), aut_size(mu))
    for p in mu.parts:
        out *= Fraction(p**p, factorial(p))
    return out


def elsv_evaluate(g, mu, table):
    """Forward evaluation: the connected cover count for (g, mu) from a
    bracket table.  Raises MissingBracketError naming the first absent
    bracket, and rejects unstable (g, len(mu))."""
    total = Fraction(0)
    for b in required_brackets(g, mu.length):
        total += (-1) ** b.lam * table.value(b) * monomial_symmetric(b.psi, mu.parts)
    return _prefactor(g, mu) * total


# ---------------------------------------------------------------------------
# exact linear algebra (incremental elimination over the rationals)

class _Elimination:
    """Gaussian elimination that takes its rows one at a time.

    ``add`` reduces a candidate row against the kept rows and keeps it only
    if it is independent, recording the multiples it subtracted; ``solve``
    replays those multiples on a right-hand side and back-substitutes.  So
    each row is eliminated once, whether it is kept or not."""

    def __init__(self):
        self.rows = []  # (pivot column, reduced row, [(kept index, multiple)])

    def add(self, row):
        work = [Fraction(v) for v in row]
        used = []
        for k, (pivot, kept, _) in enumerate(self.rows):
            if work[pivot]:
                f = work[pivot] / kept[pivot]
                work = [w - f * v for w, v in zip(work, kept)]
                used.append((k, f))
        pivot = next((j for j, w in enumerate(work) if w), None)
        if pivot is None:
            return False
        self.rows.append((pivot, work, used))
        return True

    def solve(self, rhs):
        """The x with A x = rhs, A the kept rows, which must be square."""
        reduced = []
        for b, (_, _, used) in zip(rhs, self.rows):
            reduced.append(Fraction(b) - sum(f * reduced[k] for k, f in used))
        x = [Fraction(0)] * len(self.rows)
        # each kept row vanishes at the pivots of the rows kept before it
        for (pivot, row, _), b in reversed(list(zip(self.rows, reduced))):
            x[pivot] = (b - sum(v * x[j] for j, v in enumerate(row)
                                if j != pivot)) / row[pivot]
        return x


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


@dataclass(frozen=True)
class InversionResult:
    g: int
    h: int
    brackets: dict
    grid: tuple          # profiles used for interpolation
    samples: dict        # profile -> engine value, for every profile queried


#: How far past its initial radius the candidate pool may grow before a
#: rank-deficient grid counts as a singular interpolation system.
_MAX_RADIUS_GROWTH = 20


def elsv_inversion(g, h, hurwitz_engine=None, dp_max_d=DP_MAX_D):
    """Recover all (g, h) brackets by exact interpolation against an engine.

    Samples the normalized count on a grid of profiles, solves for the
    monomial-symmetric coefficients in the degree band
    [2g-3+h, 3g-3+h], and reads brackets off the band.  The engine
    ``hurwitz_engine(g, mu)`` defaults to ``connected_via_transform`` over
    the character sums.  Every grid point is re-derived by the cut-and-join
    count of transitive factorizations on cycle types
    (``connected_dp(g, mu, max_d=dp_max_d)``), which uses no characters and
    no transform; a disagreement raises ConsistencyError.
    """
    # looked up per call, so a wrapper installed on the module name applies
    engine = connected_via_transform if hurwitz_engine is None else hurwitz_engine
    unknowns = required_brackets(g, h)
    radius = max(3 * g - 1 + h, 1) + _MAX_RADIUS_GROWTH
    pool = islice(sample_candidates(g, h), comb(radius + h - 1, h))
    elimination = _Elimination()
    grid = []
    for mu in pool:
        if elimination.add([monomial_symmetric(b.psi, mu.parts) for b in unknowns]):
            grid.append(mu)
            if len(grid) == len(unknowns):
                break
    else:
        raise DomainError(
            f"singular interpolation system for (g, h) = ({g}, {h}): "
            f"rank {len(grid)} of {len(unknowns)} after grid {grid}"
        )
    samples = {mu: engine(g, mu) for mu in grid}
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


def invert_into(table, g, h, hurwitz_engine=None, dp_max_d=DP_MAX_D):
    """Replace the (g, h) block of ``table`` by a fresh ``elsv_inversion``
    and return its ``InversionResult``; other blocks and the seed stay."""
    result = elsv_inversion(g, h, hurwitz_engine=hurwitz_engine,
                            dp_max_d=dp_max_d)
    table.drop(g, h)
    for bracket, value in result.brackets.items():
        table.add(bracket, value)
    return result


# ---------------------------------------------------------------------------
# string equation (consistency check only, never a source of values)

@dataclass(frozen=True)
class StringCheck:
    lhs: HodgeBracket
    rhs: tuple
    expected: Fraction
    actual: Fraction

    @property
    def passed(self):
        return self.expected == self.actual


@dataclass
class StringEquationReport:
    checks: list
    skipped: list

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
    """Deterministic versioned document: one line per bracket, sorted."""
    lines = [_TABLE_HEADER]
    for bracket, value, provenance in table.items():
        lines.append(f"{bracket} {value} {provenance}")
    return "\n".join(lines) + "\n"


def hodge_import(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _TABLE_HEADER:
        raise DomainError("unrecognized Hodge table format")
    table = HodgeTable()
    for ln in lines[1:]:
        try:
            key, value, provenance = ln.split()
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed Hodge table line {ln!r}") from exc
        table.add(HodgeBracket.from_string(key), value, provenance)
    return table
