"""Exact irreducible characters of symmetric groups.

``column(mu)`` gives chi_nu(mu) for every irreducible nu at once, by the
Murnaghan-Nakayama rule on beta-sets: p_mu is one border-strip step for mu_1
on the Schur expansion of the other parts, which is kept for the process
since columns share their tails, and a strip of size k moves a bead b to an
empty b + k, with sign (-1)^(beads jumped over).  Each column is checked by
exact relations before it is returned; full tables are assembled from
columns on demand.  Dimensions come from the hook length formula.  All is
exact integer arithmetic, and nothing is read from or written to disk.
"""

from collections import namedtuple
from functools import cached_property, lru_cache
from math import factorial, prod
from operator import mul

from .errors import ConsistencyError, DomainError, ResourceLimitError
from .partitions import Partition, class_size, kappa, partitions_of, z

#: Default ceiling on the degree of the character-sum engine and of a full
#: table, also the CLI default of ``--budget-burnside-max-d``.  All columns of
#: one degree take 0.3 ms each at d = 14 and 1 ms at d = 20, 6 ms for one with
#: no tail memoized (one core); the row check is O(p(d)^3), 11 s at d = 20.
BURNSIDE_MAX_D = 20

_TEXT_HEADER = "hurwitzlab-chartable v1"


def dim_irrep(nu):
    """Dimension of the irreducible representation labelled by ``nu``: the
    number of standard Young tableaux of that shape, by the hook length
    formula."""
    cols = nu.transpose()
    hooks = prod(
        p - j + cols[j] - i - 1
        for i, p in enumerate(nu)
        for j in range(p)
    )
    return factorial(nu.size) // hooks


@lru_cache(maxsize=None)
def irreps(d):
    """The irreducible labels of S_d in ``partitions_of(d)`` order, as
    (nu, dim_irrep(nu), kappa(nu)) triples."""
    return tuple((nu, dim_irrep(nu), kappa(nu)) for nu in partitions_of(d))


@lru_cache(maxsize=None)
def _bead_masks(d):
    """Each nu in ``partitions_of(d)`` as a beta-set on d beads: the bitmask
    with bead nu_i + d - i for i = 1..d, the parts padded with zeros."""
    return tuple(
        sum(1 << (p + d - 1 - i)
            for i, p in enumerate(nu + (0,) * (d - nu.length)))
        for nu in partitions_of(d)
    )


def _strip_step(shapes, k):
    """p_k times sum coef * s_shape: each beta-set on n beads gains beads
    0..k-1 (the others move up k), then a bead b moves to an empty b + k
    with sign (-1)^(beads strictly between)."""
    pad, between, step = (1 << k) - 1, (1 << (k - 1)) - 1, {}
    for mask, coef in shapes.items():
        mask = (mask << k) | pad
        movable = mask & ~(mask >> k)
        while movable:
            low = movable & -movable
            movable ^= low
            shape = mask ^ low ^ (low << k)
            jumped = (mask & ((between * low) << 1)).bit_count()
            step[shape] = step.get(shape, 0) + (-coef if jumped & 1 else coef)
    return {mask: coef for mask, coef in step.items() if coef}


@lru_cache(maxsize=None)
def _tail_expansion(parts):
    """p_nu in the Schur basis for nu = ``parts``, as {beta-set on |nu|
    beads: coefficient}; kept for the process and shared, so read-only."""
    return _strip_step(_tail_expansion(parts[1:]), parts[0]) if parts else {0: 1}


def _schur_coefficients(mu):
    """The coefficients of p_mu in the Schur basis, in ``partitions_of``
    order: one strip step for mu_1 on the memoized expansion of the rest."""
    shapes = _strip_step(_tail_expansion(mu[1:]), mu[0]) if mu else {0: 1}
    return tuple(shapes.get(mask, 0) for mask in _bead_masks(mu.size))


def column(mu):
    """chi_nu(mu) for every nu of size d = |mu|, in ``partitions_of(d)``
    order: p_mu = sum over nu of chi_nu(mu) s_nu (Murnaghan-Nakayama).

    Before it is returned the column must satisfy, exactly,
    sum chi_nu(mu)^2 = z(mu), sum dim_nu chi_nu(mu) = d! [mu = 1^d], and
    sum dim_nu kappa(nu) chi_nu(mu) = d(d-1) z(mu) [mu = (2, 1^(d-2))].  The
    first, like row orthogonality, holds for any order of the values; the
    other two tie each value to its label."""
    values = _schur_coefficients(mu)
    d, length, z_mu = mu.size, mu.length, z(mu)
    labels = irreps(d)
    relations = (
        ("sum of squares", sum(c * c for c in values), z_mu),
        ("dimension", sum(dim * c for (_, dim, _), c in zip(labels, values)),
         factorial(d) if length == d else 0),
        ("transposition",
         sum(dim * k * c for (_, dim, k), c in zip(labels, values)),
         d * (d - 1) * z_mu if length == d - 1 else 0),
    )
    for name, got, want in relations:
        if got != want:
            raise ConsistencyError(
                f"character column {mu} fails the {name} relation: "
                f"{got} != {want}"
            )
    return values


def character(nu, mu):
    """Exact character value of the irreducible labelled ``nu`` on the
    conjugacy class of cycle type ``mu``.  Both partitions must have the same
    size."""
    if nu.size != mu.size:
        raise DomainError(
            f"dimension mismatch: |nu| = {nu.size} but |mu| = {mu.size}"
        )
    return column(mu)[partitions_of(mu.size).index(nu)]


class CharacterTable(namedtuple("CharacterTable", "d partitions entries")):
    """Full character table of the symmetric group on ``d`` points.

    Rows are indexed by the irreducible label nu, columns by the class cycle
    type mu, both in the canonical reverse-lexicographic order of
    ``partitions_of(d)``.  No ``__slots__``: the cached properties below
    keep their values in the instance ``__dict__``.
    """

    @cached_property
    def _positions(self):
        return {p: i for i, p in enumerate(self.partitions)}

    @cached_property
    def _dim_column(self):
        return self._index(Partition([1] * self.d))

    def _index(self, p):
        try:
            return self._positions[p]
        except KeyError:
            raise DomainError(f"{p} is not a partition of {self.d}") from None

    def chi(self, nu, mu):
        return self.entries[self._index(nu)][self._index(mu)]

    def dim(self, nu):
        return self.entries[self._index(nu)][self._dim_column]

    def verify(self):
        """Check the row orthogonality relations exactly; raise on failure."""
        sizes = [class_size(mu) for mu in self.partitions]
        d_fact = factorial(self.d)
        n = len(self.partitions)
        for i in range(n):
            weighted = list(map(mul, sizes, self.entries[i]))
            for j in range(i, n):
                inner = sum(map(mul, weighted, self.entries[j]))
                expected = d_fact if i == j else 0
                if inner != expected:
                    raise ConsistencyError(
                        f"row orthogonality fails for d={self.d} at rows "
                        f"{self.partitions[i]} and {self.partitions[j]}: "
                        f"{inner} != {expected}"
                    )

    def to_text(self):
        lines = [
            _TEXT_HEADER,
            f"d={self.d}",
            "partitions=" + ";".join(str(p) for p in self.partitions),
        ]
        lines.extend(" ".join(str(v) for v in row) for row in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != _TEXT_HEADER:
            raise DomainError("unrecognized character-table format")
        if not lines[1].startswith("d=") or not lines[2].startswith("partitions="):
            raise DomainError("malformed character-table text")
        d = int(lines[1][2:])
        parts = tuple(
            Partition.from_string(tok)
            for tok in lines[2][len("partitions="):].split(";")
        )
        rows = tuple(
            tuple(int(tok) for tok in ln.split()) for ln in lines[3 : 3 + len(parts)]
        )
        if len(rows) != len(parts) or any(len(r) != len(parts) for r in rows):
            raise DomainError("malformed character-table text: bad matrix shape")
        return cls(d=d, partitions=parts, entries=rows)


def build_table(d, max_d=BURNSIDE_MAX_D):
    """The full character table for degree ``d``, assembled from ``column``
    and verified by the row orthogonality relations; it reads no file.  The
    tails its columns memoized are dropped once it is checked: nothing reads
    most of them again, and at d = 18 they hold about 2 MB."""
    if d < 1:
        raise DomainError(f"character tables need d >= 1, got {d}")
    if d > max_d:
        raise ResourceLimitError(
            f"character table budget is d <= {max_d}, got d = {d}"
        )
    parts = tuple(partitions_of(d))
    entries = tuple(zip(*(column(mu) for mu in parts)))
    table = CharacterTable(d=d, partitions=parts, entries=entries)
    table.verify()
    _tail_expansion.cache_clear()
    return table
