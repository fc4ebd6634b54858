"""Exact irreducible characters of symmetric groups.

Character values come from the Murnaghan-Nakayama recursion, implemented on
beta-sets (first-column hook lengths): removing a border strip of size t from
a shape is replacing a beta number b by b - t, and the strip height is the
number of beta numbers jumped over.  Dimensions come from the hook length
formula.  Everything is an exact integer; there is no floating point in this
module.
"""

import os
import tempfile
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, prod
from operator import mul

from .errors import ConsistencyError, DomainError, ResourceLimitError
from .partitions import Partition, class_size, kappa, partitions_of

#: Practical ceiling on the symmetric group degree.  Tables beyond this are
#: rejected rather than attempted; override per call if you know better.
MAX_TABLE_D = 14

_CACHE_HEADER = "hurwitzlab-chartable v1"

_table_memo = {}
_files_checked = set()  # (d, cache_dir) pairs whose cache file is known to exist


def dim_irrep(nu):
    """Dimension of the irreducible representation labelled by ``nu``: the
    number of standard Young tableaux of that shape, by the hook length
    formula."""
    if not nu.parts:
        return 1
    cols = nu.transpose().parts
    hooks = prod(
        nu.parts[i] - j + cols[j] - i - 1
        for i in range(len(nu.parts))
        for j in range(nu.parts[i])
    )
    return factorial(nu.size) // hooks


@lru_cache(maxsize=None)
def _mn_character(shape, cycles):
    # shape: weakly decreasing tuple without zeros; cycles: remaining cycle
    # lengths to absorb, largest first.  Invariant: sum(shape) == sum(cycles).
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    m = len(shape)
    beta = [shape[i] + m - 1 - i for i in range(m)]
    taken = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in taken:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_shape = tuple(c - (m - 1 - i) for i, c in enumerate(new_beta))
        while new_shape and new_shape[-1] == 0:
            new_shape = new_shape[:-1]
        total += (-1) ** height * _mn_character(new_shape, rest)
    return total


def character(nu, mu):
    """Exact character value of the irreducible labelled ``nu`` on the
    conjugacy class of cycle type ``mu``.  Both partitions must have the same
    size."""
    if nu.size != mu.size:
        raise DomainError(
            f"dimension mismatch: |nu| = {nu.size} but |mu| = {mu.size}"
        )
    return _mn_character(nu.parts, mu.parts)


@dataclass(frozen=True)
class CharacterTable:
    """Full character table of the symmetric group on ``d`` points.

    Rows are indexed by the irreducible label nu, columns by the class cycle
    type mu, both in the canonical reverse-lexicographic order of
    ``partitions_of(d)``.
    """

    d: int
    partitions: tuple
    entries: tuple

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
            _CACHE_HEADER,
            f"d={self.d}",
            "partitions=" + ";".join(str(p) for p in self.partitions),
        ]
        lines.extend(" ".join(str(v) for v in row) for row in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != _CACHE_HEADER:
            raise DomainError("unrecognized character-table cache format")
        if not lines[1].startswith("d=") or not lines[2].startswith("partitions="):
            raise DomainError("malformed character-table cache")
        d = int(lines[1][2:])
        parts = tuple(
            Partition.from_string(tok)
            for tok in lines[2][len("partitions="):].split(";")
        )
        rows = tuple(
            tuple(int(tok) for tok in ln.split()) for ln in lines[3 : 3 + len(parts)]
        )
        if len(rows) != len(parts) or any(len(r) != len(parts) for r in rows):
            raise DomainError("malformed character-table cache: bad matrix shape")
        return cls(d=d, partitions=parts, entries=rows)


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and ``os.replace``, so a reader sees the old file or the new
    one, never a partial write."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_path(cache_dir, d):
    return os.path.join(cache_dir, f"chartable-{d:02d}.txt")


def _check_degree(d, max_d):
    if d < 1:
        raise DomainError(f"character tables need d >= 1, got {d}")
    if d > max_d:
        raise ResourceLimitError(
            f"character table budget is d <= {max_d}, got d = {d}"
        )


def compute_table(d, max_d=MAX_TABLE_D):
    """The character table for degree ``d``, computed by Murnaghan-Nakayama
    and verified by the orthogonality relations; it reads no memo and no
    cache file."""
    _check_degree(d, max_d)
    parts = tuple(partitions_of(d))
    entries = tuple(tuple(character(nu, mu) for mu in parts) for nu in parts)
    table = CharacterTable(d=d, partitions=parts, entries=entries)
    table.verify()
    return table


def build_table(d, cache_dir=None, max_d=MAX_TABLE_D):
    """Build (or load from cache) the full character table for degree ``d``.

    Idempotent; the orthogonality relations are verified before the table is
    returned or written, and a cached table must match its identity and
    transposition columns (``_check_known_columns``) too."""
    _check_degree(d, max_d)
    if d in _table_memo:
        table = _table_memo[d]
        if cache_dir and (d, cache_dir) not in _files_checked:
            if not os.path.exists(_cache_path(cache_dir, d)):
                write_atomic(_cache_path(cache_dir, d), table.to_text())
            _files_checked.add((d, cache_dir))
        return table

    table = None
    parts = tuple(partitions_of(d))
    if cache_dir:
        path = _cache_path(cache_dir, d)
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    candidate = CharacterTable.from_text(fh.read())
                if candidate.d == d and candidate.partitions == parts:
                    _check_known_columns(candidate)
                    candidate.verify()
                    table = candidate
            except (DomainError, ConsistencyError, ValueError):
                table = None  # stale or corrupt cache: rebuild below

    if table is None:
        table = compute_table(d, max_d)
        if cache_dir:
            write_atomic(_cache_path(cache_dir, d), table.to_text())

    _table_memo[d] = table
    if cache_dir:
        _files_checked.add((d, cache_dir))
    return table


def _check_known_columns(table):
    """Permuting the rows keeps the orthogonality relations, so pin each row to
    its label: dim_irrep(nu) at the identity and dim * kappa(nu) / (d(d-1)) at
    a transposition (the second-last class; the identity again for d = 1).
    Labels sharing (dim, kappa) can still be swapped unnoticed."""
    d, ident = table.d, table.partitions[-1]
    trans = table.partitions[-2] if d > 1 else ident
    for nu in table.partitions:
        dim = dim_irrep(nu)
        if (table.chi(nu, ident) != dim
                or d * (d - 1) * table.chi(nu, trans) != dim * kappa(nu)):
            raise ConsistencyError(f"cached row {nu} does not match its label")
