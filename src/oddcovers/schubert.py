"""Cohomology of the Grassmannian of lines G(2,n) in the Schubert basis.

Classes are integer combinations of basis elements sigma_{a,b} with
n-2 >= a >= b >= 0 (the 2 x (n-2) box). Multiplication is the two-row Pieri
rule for special classes, extended to arbitrary classes through Giambelli's
identity sigma_{a,b} = sigma_a sigma_b - sigma_{a+1} sigma_{b-1}; this is a
complete rule set for lines, so no general Littlewood-Richardson machinery
is needed. Anything leaving the box is annihilated at insertion time, which
is the cohomological truth and makes small-n vanishing automatic.

Pieri is a sliding-window sum: with the degree-d terms laid out as a row
r_b, sigma_c sends it to sum_{b'} sigma_{d+c-b',b'} times the sum of r_b over
max(b'-c, 0) <= b <= min(b', d-b'), so one prefix-sum pass per degree gives
each output term by one subtraction, in time linear in the terms, not c.

The inclusion G(2,n) in G(2,N), n <= N, pulls sigma_{a,b} back to
sigma_{a,b} when a <= n-2 and to 0 otherwise, and this pullback is a ring map
(Fulton, Young Tableaux, section 9.4). So a power v^g computed once in a large
G(2,N) restricts to v^g in every smaller G(2,n), and its top evaluation there
is the sigma_{n-2,n-2} coefficient; `top_power_prefix` reads the top
evaluations for every g off one chain of products this way, for v of any even
degree (sigma_1^2 gives deg G(2,n) = Catalan(n-2)).

Coefficients are Python ints, hence arbitrary precision throughout. A class
is a `ring.SparseElement` with n the ambient G(2,n): `terms` maps each
partition (a, b) to its coefficient, and sums, negation and equality (False
across ambients) come from there. The sigma_1, sigma_2 rows and the
`schubert` command live in `sigma12`, so a `table` job compiles neither.
"""

from itertools import accumulate, repeat

from .ring import SparseElement


class SchubertVector(SparseElement):
    __slots__ = ()
    _mismatch = "mismatched ambient Grassmannians G(2,%d) vs G(2,%d)"

    def __new__(cls, n: int, terms=None):
        if n < 2:
            raise ValueError("ambient G(2,n) needs n >= 2")
        terms = terms or {}
        for (a, b), c in terms.items():
            if not isinstance(c, int):
                raise TypeError("Schubert coefficients are ints, not %s" % type(c).__name__)
            for part in (a, b):
                if not isinstance(part, int):
                    raise TypeError("Schubert partition parts are ints, not %s"
                                    % type(part).__name__)
            if b < 0 or a < b:
                raise ValueError("invalid partition (%d,%d)" % (a, b))
        return cls._make(n, {(a, b): c for (a, b), c in terms.items() if a <= n - 2})

    @staticmethod
    def unit(n: int):
        return SchubertVector(n, {(0, 0): 1})

    def degrees(self):
        return {a + b for a, b in self.terms}

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def pieri(self, c: int):
        """Multiply by the special class sigma_c (horizontal strips, summed as windows)."""
        if c < 0:
            raise ValueError("pieri requires c >= 0")
        if c == 0:
            return self
        box = self.n - 2
        rows = {}
        for (a, b), coeff in self.terms.items():
            rows.setdefault(a + b, {})[b] = coeff
        out = {}
        for d, row in rows.items():
            lo, hi = min(row), max(row)
            # below[x - lo + c] = sum of r_b over b < x, for lo - c <= x <= hi + c + 1
            below = [0] * c
            below += accumulate(map(row.get, range(lo, hi + 1), repeat(0)), initial=0)
            below += [below[-1]] * c
            e = d + c  # b' >= e - box keeps a' in the box, b' <= e // 2 keeps a' >= b'
            for nb in range(max(lo, e - box), min(e // 2, d - lo, hi + c) + 1):
                top = nb if 2 * nb <= d else d - nb
                out[(e - nb, nb)] = below[top + 1 - lo + c] - below[nb - lo]
        return SchubertVector._make(self.n, out)

    def __mul__(self, other):
        """Giambelli, with the weight of each sigma_k sigma_j summed first: Pieri
        runs for nonzero weights only (once per k, as k fixes j in a homogeneous class).
        An int scales the class, from either side."""
        if isinstance(other, int):
            return SchubertVector._make(self.n, {k: other * v for k, v in self.terms.items()})
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        weights = {}  # weights[k, j] = weight of sigma_k sigma_j
        for (a, b), coeff in self.terms.items():
            weights[a, b] = weights.get((a, b), 0) + coeff
            if b:
                weights[a + 1, b - 1] = weights.get((a + 1, b - 1), 0) - coeff
        out = {}
        for (k, j), weight in weights.items():
            if weight:
                part = o.pieri(k)
                for key, c in (part.pieri(j) if j else part).terms.items():
                    out[key] = out.get(key, 0) + weight * c
        return SchubertVector._make(self.n, out)

    __rmul__ = __mul__

    def _one(self):
        return SchubertVector.unit(self.n)

    def __repr__(self):
        if self.is_zero():
            return "SchubertVector(0; n=%d)" % self.n
        body = " + ".join(
            "%d*s[%d,%d]" % (c, a, b) for (a, b), c in sorted(self.terms.items())
        )
        return "SchubertVector(%s; n=%d)" % (body, self.n)


def top_power_prefix(terms, max_g: int) -> list:
    """[top(v^0), ..., top(v^max_g)], each in its own G(2,e*g+2), from one chain.

    `terms` maps partitions (a, b) to integer weights; v = sum c*sigma_{a,b}
    must be zero or homogeneous of one even degree 2e, read off its nonzero
    terms. The chain r <- v * r runs once in G(2, e*max_g+2), and step g reads
    the sigma_{eg,eg} coefficient of v^g, which by the restriction map is the
    top evaluation of v^g in G(2,e*g+2). The zero class gives [1, 0, 0, ...].
    """
    if max_g < 0:
        raise ValueError("max_g must be nonnegative")
    degrees = {a + b for (a, b), c in terms.items() if c != 0}
    if len(degrees) > 1 or sum(degrees) % 2:
        raise ValueError("top_power_prefix needs a class of one even degree, not %s"
                         % sorted(degrees))
    e = sum(degrees) // 2
    v = SchubertVector(e * max_g + 2, terms)
    r = SchubertVector.unit(v.n)
    tops = []
    for g in range(max_g + 1):
        if not r.degrees() <= {2 * e * g}:
            raise ValueError("v^%d is not homogeneous of degree %d" % (g, 2 * e * g))
        tops.append(r.terms.get((e * g, e * g), 0))
        if g < max_g:
            r = v * r
    return tops
