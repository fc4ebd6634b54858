"""Sparse polynomials as dicts from monomial to coefficient.

The one add / scale / multiply loop behind every exact algebra of the
package: the Hurwitz series, Laurent polynomials in u, the weight multisets,
the truncated psi/lambda algebra and the equivariant ring of
``eqcoh.RingElement``.  A dict here never stores a zero coefficient.
Monomials are any hashable keys; coefficients are anything with +, * and
truth (ints, Fractions, Laurent polynomials).
"""


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
    """c * a, coefficient by coefficient."""
    return {key: cv for key, v in a.items() if (cv := c * v)}


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
