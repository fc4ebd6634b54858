"""Sparse polynomials as dicts from monomial to coefficient, and the one
arithmetic of the package's exact algebras.

``add``, ``scale`` and ``mul`` are the one add / scale / multiply loop over
such dicts.  A dict here never stores a zero coefficient.  Monomials are any
hashable keys; coefficients are anything with +, * and truth (ints,
Fractions, Laurent polynomials).

``Element`` is the base of every exact algebra of the package: the Hurwitz
series, Laurent polynomials in u, the weight multisets, the equivariant ring
of ``eqcoh.RingElement`` and the truncated psi/lambda algebra.  It writes
their sums, differences, products, powers and comparisons once; a subclass
declares only its frame, its scalars and its monomial product.  The integer
polynomials in q of the GRR check run on the bare dict loops.
"""

from .errors import DomainError


def add(a, b):
    """a + b."""
    out = dict(a)
    for key, c in b.items():
        new = out[key] + c if key in out else c
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def scale(a, c):
    """a * c, coefficient by coefficient: each coefficient's own product
    runs, not c's fallback for a type it does not know."""
    return {key: vc for key, v in a.items() if (vc := v * c)}


def mul(a, b, key_mul):
    """a * b.  ``key_mul(k1, k2)`` returns the product monomial, or None
    when the truncation drops it."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = key_mul(k1, k2)
            if key is None:
                continue
            new = out[key] + c1 * c2 if key in out else c1 * c2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


class Element:
    """An element of a commutative exact algebra: ``terms`` maps monomial to
    nonzero coefficient.  A subclass declares

    * ``_frame``: the attributes that fix the algebra (a ring, a truncation),
      which both operands of +, -, * and == must share, or DomainError;
    * ``_scalars``: the types that act by scaling each coefficient, and
      ``_constant(c)``, the terms of such a c as an element;
    * ``_product(a, b)``: the product of two term dicts, truncated or
      reduced as the algebra requires.

    Its public constructor validates outside input.  Every result of the
    algebra itself goes through ``_like``, which does not."""

    __slots__ = ("terms",)
    _frame = ()
    _scalars = ()

    def _like(self, terms):
        """An element of self's algebra on terms that are already clean."""
        out = object.__new__(type(self))
        for name in self._frame:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _operand(self, other):
        """other in self's algebra: an element of the same frame as it is, a
        scalar lifted; NotImplemented for any other type."""
        if isinstance(other, type(self)):
            for name in self._frame:
                if getattr(self, name) != getattr(other, name):
                    raise DomainError(f"cannot combine {type(self).__name__} "
                                      f"values with different {name}")
            return other
        if isinstance(other, self._scalars):
            return self._like(self._constant(other))
        return NotImplemented

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._like(add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._like(add(self.terms, scale(other.terms, -1)))

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._like(add(other.terms, scale(self.terms, -1)))

    def __neg__(self):
        return self._like(scale(self.terms, -1))

    def __mul__(self, other):
        # the type test first: Fraction's isinstance is an ABC check
        if type(other) is not type(self) and isinstance(other, self._scalars):
            return self._like(scale(self.terms, other))
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._like(self._product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError(f"negative power {n} of {type(self).__name__}")
        out = self._like(self._constant(1))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self.terms == other.terms

    def scaled(self, c):
        if not isinstance(c, self._scalars):
            raise DomainError(f"cannot scale {type(self).__name__} by {c!r}")
        return self._like(scale(self.terms, c))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        return sorted(self.terms.items())
