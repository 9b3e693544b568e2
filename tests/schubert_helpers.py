"""Helpers shared by the Schubert tests of `test_schubert.py` and `test_ring.py`."""

from oddcovers.schubert import SchubertVector


def sigma(a, b, n):
    """The basis class sigma_{a,b} of G(2,n); zero if it falls outside the box."""
    return SchubertVector(n, {(a, b): 1})
