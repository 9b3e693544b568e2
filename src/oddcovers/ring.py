"""The operator plumbing shared by the exact ring classes.

A subclass sets its slots through object.__setattr__ in __init__ and
supplies `_wrap(other)` (the operand as an element of its own ring, or None
when the operand is foreign), `__add__`, `__neg__`, `__mul__` and `_one()`.
Immutability, subtraction and nonnegative integer powers are derived here.
"""


class RingElement:
    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return (-self) + o

    def __pow__(self, n: int):
        """Binary square-and-multiply (Knuth, TAOCP vol. 2, section 4.6.3)."""
        if n < 0:
            raise ValueError("negative power of a %s" % type(self).__name__)
        result = self._one()
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base
