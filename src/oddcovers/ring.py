"""The operator plumbing shared by the exact ring classes.

A subclass sets its slots past the `__setattr__` guard in its constructor and
supplies `_wrap(other)` (the operand as an element of its own ring, or None
when the operand is foreign), `__add__`, `__neg__`, `__mul__` and `_one()`.
Immutability, subtraction as a + (-b) and nonnegative integer powers are
derived here. `SparseElement` is the dict of nonzero int terms over a shared
context `n` that `SchubertVector` (n of G(2,n)) and `poly.IntPoly` (n
variables) both are: it supplies their construction, addition, negation and
equality. Its `_wrap` and `==` take exactly their own type, so a subclass
that builds its results through `_make` stays closed: the quotient rings
`weier.WeierExpr` and `quadratic.form_ring(d)` never mix with plain
`IntPoly`s (whose own `==` compares constants by value across classes).
"""


class RingElement:
    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __sub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o + (-self)

    def __pow__(self, n: int):
        """Binary square-and-multiply (Knuth, TAOCP vol. 2, section 4.6.3)."""
        if n < 0:
            raise ValueError("negative power of a %s" % type(self).__name__)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return self._one() if result is None else result
            base = base * base


class SparseElement(RingElement):
    """`terms` maps keys to nonzero ints, over a context `n` that two operands
    must share. A subclass validates in its own `__new__`, builds with `_make`,
    and supplies `__mul__`, `_one`, `__hash__`, `__repr__` and `_mismatch`, the
    message (formatted with both n) for operands over different n."""

    __slots__ = ("n", "terms")

    @classmethod
    def _make(cls, n: int, terms: dict):
        """Unchecked constructor for valid keys and int values; drops zeros.
        It keeps `terms` itself, so callers pass a dict they do not keep."""
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        self = object.__new__(cls)
        _SET_N(self, n)
        _SET_TERMS(self, terms)
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def _wrap(self, other):
        if type(other) is not type(self):
            return None
        if other.n != self.n:
            raise ValueError(self._mismatch % (self.n, other.n))
        return other

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for k, c in o.terms.items():
            terms[k] = terms.get(k, 0) + c
        return self._make(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.n, {k: -c for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is type(self) and other.n != self.n:
            return False
        o = self._wrap(other)
        return NotImplemented if o is None else self.terms == o.terms


# Slot setters that bypass RingElement's immutability guard.
_SET_N, _SET_TERMS = (SparseElement.__dict__[k].__set__ for k in SparseElement.__slots__)
