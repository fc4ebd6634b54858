"""Integer partitions and the cycle-type statistics built on them.

A partition both labels a ramification profile over infinity (its parts are
the sheet multiplicities) and, elsewhere in the package, an irreducible
representation of the symmetric group.  A ``Partition`` is its part tuple: a
checked ``tuple`` subclass, so it equals, hashes and orders as the plain tuple
of its parts, and the engines' memos, keyed on part tuples, take it as it is.
Everything here is exact integer arithmetic.
"""

from collections import Counter
from functools import lru_cache
from math import factorial, prod

from .errors import DomainError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Every part must be an ``int`` (not a bool): a float or a string part is
    rejected, never truncated.  The empty tuple is the valid empty partition.
    A partition equals the plain tuple of its parts and hashes like it.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool):
                raise DomainError(f"parts must be integers, got {p!r}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise DomainError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise DomainError(f"parts must be positive, got {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def from_string(cls, text):
        """Parse the serialized form "3,2,1"; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        try:
            return cls(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse partition {text!r}") from exc

    @property
    def size(self):
        return sum(self)

    @property
    def length(self):
        return len(self)

    def transpose(self):
        """The conjugate partition (columns of the diagram read as rows)."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def __repr__(self):
        return f"Partition({list(self)})"

    def __str__(self):
        return ",".join(str(p) for p in self)


@lru_cache(maxsize=None)
def _partitions_of(d):
    out = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(cap, remaining), 0, -1):
            descend(remaining - p, p, prefix + (p,))

    descend(d, d, ())
    return tuple(out)


def partitions_of(d):
    """All partitions of ``d`` in reverse-lexicographic order.

    The order is fixed so that cached tables index identically across runs.
    ``partitions_of(0)`` is ``[Partition()]``.
    """
    if d < 0:
        raise DomainError(f"cannot partition a negative integer: {d}")
    return list(_partitions_of(d))


def aut_size(mu):
    """Order of the symmetry group of the part sequence: product of m_j! over
    the multiplicities m_j of the distinct part values."""
    return prod(factorial(m) for m in Counter(mu).values())


def z(mu):
    """Centralizer order of a permutation of cycle type ``mu``:
    mu_1 * ... * mu_h * aut_size(mu)."""
    return prod(mu) * aut_size(mu)


def kappa(nu):
    """The statistic sum_i nu_i * (nu_i - 2i + 1) over 1-based rows.

    Twice the sum of the contents of the diagram; in particular always even.
    """
    return sum(p * (p - 2 * i + 1) for i, p in enumerate(nu, start=1))


def class_size(mu):
    """Number of permutations of cycle type ``mu`` in the symmetric group on
    ``|mu|`` points: |mu|! / z(mu)."""
    return factorial(mu.size) // z(mu)
