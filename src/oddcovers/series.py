"""Integer series kernels of the Lagrange route: a truncated product and
binomial powers.

A series here is a plain list of int coefficients, constant term first; a list
of N+1 ints is a series known modulo w^(N+1). `product` truncates to the
shorter operand. `binomial_series` raises 1 + f to the power p/q by J.C.P.
Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7) in `_scaled_power`,
which costs O(n nnz(f)) coefficient operations at order n: O(n^2) for a dense
f, O(n) for an f of one term. Reciprocals 1/(1 + f) and square roots are
binomial powers too. Every step divides exactly or raises ArithmeticError;
nothing rounds or floors. Only the Lagrange route (`routes`) runs on these;
the `Series` class the tests check them against lives in
`tests/series_oracles.py`.
"""


def _scaled_power(p: int, q: int, f, d: int, scale: int, order: int) -> list:
    """[G_0..G_order], G_n = scale^n [w^n] (1 + f/d)^(p/q) for int f, from
    n q d G_n = sum_{k=1..n} ((p+q)k - nq) f_k scale^k G_(n-k); a step that
    leaves a remainder (G_n no integer) raises ArithmeticError."""
    support = [(k, f[k] * scale ** k) for k in range(1, order + 1) if f[k]]
    g = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        for k, fk in support:
            if k > n:
                break
            if g[n - k]:
                total += ((p + q) * k - n * q) * fk * g[n - k]
        g[n], rest = divmod(total, n * q * d)
        if rest:
            raise ArithmeticError("binomial step %d is not integral at scale %d" % (n, scale))
    return g


def product(a: list, b: list) -> list:
    """The product of two coefficient lists, truncated to the shorter one."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return out


def binomial_series(a: tuple, f: list) -> list:
    """The coefficients of (1 + f)^(p/q), to the order of f, for the int pair
    a = (p, q), q > 0, and the int list f with f[0] = 0.

    Each coefficient must be an integer: a step that leaves a remainder raises
    ArithmeticError. For an integral f, 1/(1 + f) and every integer power are
    integral, and so is (1 + 4f)^(+-1/2), since 4^k binom(+-1/2, k) is an
    integer: the powers the Lagrange route takes are all of these forms.
    """
    pair = a if type(a) is tuple and len(a) == 2 else (a,)
    for c in pair:
        if len(pair) != 2 or not isinstance(c, int):
            raise TypeError("binomial_series takes an int pair (p, q), not %s"
                            % type(c).__name__)
    for c in f:
        if not isinstance(c, int):
            raise TypeError("binomial_series takes int coefficients, not %s"
                            % type(c).__name__)
    p, q = a
    if q <= 0:
        raise ValueError("binomial_series needs q > 0")
    if f[0] != 0:
        raise ValueError("binomial_series requires f(0) = 0")
    return _scaled_power(p, q, f, 1, 1, len(f) - 1)
