"""Sparse integer polynomials in a fixed number of variables, and their
quotient rings by one square.

An `IntPoly` in n variables is a `ring.SparseElement`: a dict {exponents: c}
of its nonzero int terms, added and multiplied term by term (Johnson,
"Sparse polynomial arithmetic", SIGSAM Bull. 8(3), 1974). `covers` computes
in (t, b) and (x, z). Operands in different numbers of variables raise
ValueError, ints coerce to constants, and an operand of another class is
foreign: every method builds its result through `_make` of its own class.

A subclass that sets `_square = (var, s)`, for an `IntPoly` s free of x_var,
is the quotient ring by x_var^2 - s: each element is its remainder, of
degree at most 1 in x_var (Cox, Little & O'Shea, Ideals, Varieties, and
Algorithms, ch. 2). The one reduction, `_reduced`, runs where a square can
appear: on a constructor's dict and a product, through which a substitution
reduces too; sums, negations, int coercions, derivatives and coefficients
need none.
`weier.WeierExpr` reduces D^2 to the Weierstrass cubic and
`quadratic.form_ring(d)` r^2 to d. A constant equals an int, or a constant of
any `IntPoly` class or variable count, iff their values agree, and hashes as
that int; non-constants of different classes or variable counts are unequal.
"""

import functools
from operator import add

from .ring import SparseElement


class IntPoly(SparseElement):
    __slots__ = ()
    _mismatch = "mismatched variable counts %d vs %d"
    # (var, s) in a quotient ring by x_var^2 - s; None in the polynomial ring
    _square = None

    def __new__(cls, n: int, terms=None):
        if cls._square is not None and n != cls._square[1].n:
            raise ValueError("a %s is in %d variables, not %d"
                             % (cls.__name__, cls._square[1].n, n))
        terms = dict(terms or {})
        for key, c in terms.items():
            if not isinstance(c, int):
                raise TypeError("%s coefficients are ints, not %s"
                                % (cls.__name__, type(c).__name__))
            for e in key:
                if not isinstance(e, int):
                    raise TypeError("%s exponents are ints, not %s"
                                    % (cls.__name__, type(e).__name__))
            if len(key) != n or min(key, default=0) < 0:
                raise ValueError("invalid exponents %r" % (key,))
        return cls._make(n, terms if cls._square is None else cls._reduced(terms))

    @classmethod
    def _reduced(cls, terms: dict) -> dict:
        """terms, a dict no caller keeps, with each x_var^k, k >= 2, rewritten
        in place as x_var^(k-2) * s until none is left."""
        var, square = cls._square
        todo = [k for k in terms if k[var] > 1]
        if not todo:
            return terms
        shifted = [(m[:var] + (-2,) + m[var + 1:], e) for m, e in square.terms.items()]
        while todo:
            k = todo.pop()
            c = terms.pop(k, 0)
            for m, e in shifted:
                key = tuple(map(add, k, m))
                # a key already held is already queued (or of degree <= 1)
                if key[var] > 1 and key not in terms:
                    todo.append(key)
                terms[key] = terms.get(key, 0) + c * e
        return terms

    @classmethod
    @functools.cache
    def variables(cls, n: int) -> tuple:
        """The n generators x_0, ..., x_{n-1}, built once per class and n."""
        return tuple(cls(n, {tuple(int(i == v) for i in range(n)): 1}) for v in range(n))

    def _wrap(self, other):
        if type(other) is type(self) and other.n == self.n:
            return other
        if isinstance(other, int):
            return self._make(self.n, {(0,) * self.n: other})
        return super()._wrap(other)

    def __mul__(self, other):
        if type(other) is int:
            # a scalar multiple of a reduced element is reduced
            return self._make(self.n, {k: c * other for k, c in self.terms.items()})
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        out = {}
        other_terms = o.terms.items()
        for k, c in self.terms.items():
            for m, e in other_terms:
                key = tuple(map(add, k, m))
                out[key] = out.get(key, 0) + c * e
        if self._square is not None:
            out = self._reduced(out)
        return self._make(self.n, out)

    __rmul__ = __mul__

    def _one(self):
        return self._make(self.n, {(0,) * self.n: 1})

    def _constant(self):
        """The int value of a constant, None for a non-constant."""
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1:
            (key, c), = terms.items()
            if not any(key):
                return c
        return None

    def __eq__(self, other):
        # constants compare by value, whatever their class or n; anything
        # else only within one class and n (SparseElement's equality)
        value = self._constant()
        if value is not None and isinstance(other, IntPoly):
            return value == other._constant()
        if value is not None and type(other) is int:
            return value == other
        return super().__eq__(other)

    def __hash__(self):
        # a constant hashes as its int (zero as 0), as equal values must
        value = self._constant()
        if value is not None:
            return hash(value)
        return hash(frozenset(self.terms.items()))

    def derivative(self, var: int):
        """The partial derivative in variable `var`."""
        return self._make(self.n, {k[:var] + (k[var] - 1,) + k[var + 1:]: k[var] * c
                                   for k, c in self.terms.items() if k[var]})

    def coefficient(self, var: int, e: int):
        """The coefficient of x_var^e, a polynomial in the other variables."""
        return self._make(self.n, {k[:var] + (0,) + k[var + 1:]: c
                                   for k, c in self.terms.items() if k[var] == e})

    def substitute(self, images):
        """The value with each x_v replaced by images[v], an int or an element
        of this ring: the sum over the terms of c * prod images[v]**e."""
        images = [x if type(x) is int else self._wrap(x) for x in images]
        if len(images) != self.n or any(x is None for x in images):
            raise TypeError("substitute needs %d ints or %s values" % (self.n, type(self).__name__))
        out = self._make(self.n, {})
        for key, c in self.terms.items():
            term = c
            for x, e in zip(images, key):
                if e:
                    term = term * x ** e
            out = out + term
        return out

    def format(self, names) -> str:
        """Terms by decreasing exponents, as in 10*E1^2 + E1*E2 for names
        (P, E1, E2)."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = [name if e == 1 else "%s^%d" % (name, e)
                       for name, e in zip(names, key) if e]
            if not factors or c != 1:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "%s(%s; n=%d)" % (type(self).__name__,
                                 self.format(["x%d" % i for i in range(self.n)]), self.n)


def discriminant(q: IntPoly, var: int) -> IntPoly:
    """b^2 - 4ac for q = a x^2 + b x + c of degree exactly 2 in x = x_var;
    no division."""
    if max((k[var] for k in q.terms), default=None) != 2:
        raise ValueError("discriminant requires degree exactly 2 in x_%d" % var)
    c, b, a = (q.coefficient(var, e) for e in range(3))
    return b * b - 4 * a * c
