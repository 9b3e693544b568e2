"""Alternating Catalan numbers and the exact identities behind them.

The central sequence A_g (1, 0, 512, 32768, ...) counts minimal-degree odd
covers of a general genus-g curve. This package computes it by independent
exact routes (closed sum, coefficient extraction, Schubert calculus, series
expansion, Lagrange inversion) and certifies every polynomial, Weierstrass
and ramification identity feeding the two local counts of 16 that the
Schubert route consumes. All arithmetic is exact; nothing is floating point.
"""


def __getattr__(name):
    """Import the submodule `name` on first access (PEP 562)."""
    try:
        __import__("%s.%s" % (__name__, name))
    except ModuleNotFoundError as err:
        if err.name != "%s.%s" % (__name__, name):
            raise
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    return globals()[name]
