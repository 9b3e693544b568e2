"""Helpers shared by the Schubert tests of `test_schubert.py` and `test_ring.py`,
and a Pieri-free oracle for top intersections in G(2,n).

The oracle takes sigma_{a,b} as the Schur polynomial s_(a,b) in the two Chern
roots x1, x2 (Fulton, Young Tableaux, section 9.4) and integrates through the
maximal torus: for f symmetric and homogeneous of degree 2(n-2),

    integral over G(2,n) of f = -1/2 [x1^(n-1) x2^(n-1)] f (x1 - x2)^2,

the k = 2 case of the integration formula over G(k,n) (Martin, "Symplectic
quotients by a nonabelian group and by its maximal torus", 2000; Zielenkiewicz,
"Integration over homogeneous spaces for classical groups using iterated
residues at infinity", 2014); the sign is fixed by integral sigma_{n-2,n-2} = 1.
f (x1 - x2)^2 is homogeneous of degree 2n - 2, so setting x2 = 1 loses nothing:
the coefficient is [t^(n-1)] of (t - 1)^2 f(t, 1), and s_(a,b)(t, 1) is
t^b (1 + t + ... + t^(a-b)). Products of classes are products of univariate
int polynomials, with no ambient box, no Pieri rule and no Giambelli identity;
the oracle functions below use nothing from `oddcovers`.
"""

from oddcovers.schubert import SchubertVector


def sigma(a, b, n):
    """The basis class sigma_{a,b} of G(2,n); zero if it falls outside the box."""
    return SchubertVector(n, {(a, b): 1})


def poly_mul(p, q):
    """The product of two int coefficient lists, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def schur_at_t(terms):
    """v(t, 1) as a coefficient list for v = sum c sigma_{a,b} over `terms`."""
    out = [0] * (max((a for a, _ in terms), default=0) + 1)
    for (a, b), c in terms.items():
        for k in range(b, a + 1):
            out[k] += c
    return out


def torus_top(f, n):
    """The integral over G(2,n) of the class of degree 2(n-2) whose Schur form
    at (t, 1) is the coefficient list `f`: -1/2 [t^(n-1)] (t^2 - 2t + 1) f."""
    at = lambda k: f[k] if 0 <= k < len(f) else 0
    twice = -(at(n - 3) - 2 * at(n - 2) + at(n - 1))
    if twice % 2:
        raise ArithmeticError("odd torus coefficient %d in G(2,%d)" % (twice, n))
    return twice // 2


def torus_top_powers(terms, max_g):
    """[top(v^0), ..., top(v^max_g)], top(v^g) in G(2, e*g+2) for v of degree
    2e, the degree of the nonzero terms (e = 0 for the zero class)."""
    e = max((a + b for (a, b), c in terms.items() if c), default=0) // 2
    v, power, tops = schur_at_t(terms), [1], []
    for g in range(max_g + 1):
        tops.append(torus_top(power, e * g + 2))
        power = poly_mul(power, v)
    return tops
