"""The sigma_1, sigma_2 rows of top intersections and the `schubert` command,
on the classes of `schubert`. Only `cli`'s `schubert` branch and `checks`
import this module, so a `table` job that runs the Schubert route skips it."""

import sys

from .schubert import SchubertVector, top_power_prefix


def sigma12_rows(gs) -> list:
    """For each g in `gs`, the row [sigma_1^(2m) sigma_2^(2g-m) for m = 0..2g]
    of top intersections in G(2,2g+2).

    One sigma_1 chain (4G steps) and one sigma_2 chain (2G steps) in
    G(2,2G+2), G = max(gs), serve every row: they restrict to the same powers
    in G(2,2g+2), where Poincare duality pairs them: sigma_{a,b} sigma_{c,d}
    is the point class when (c, d) = (2g-b, 2g-a) and 0 otherwise (Fulton,
    Young Tableaux, section 9.4). A term with a > 2g restricts to 0 and finds
    no partner, since 2g-a < 0.
    """
    gs = list(gs)
    if any(g < 0 for g in gs):
        raise ValueError("g must be nonnegative")
    box = 2 * max(gs, default=0)
    ones = [SchubertVector.unit(box + 2)]  # ones[m] = sigma_1^(2m)
    twos = [ones[0]]  # twos[k] = sigma_2^k
    for _ in range(box):
        ones.append(ones[-1].pieri(1).pieri(1))
        twos.append(twos[-1].pieri(2))
    return [[sum(c * twos[2 * g - m].terms.get((2 * g - b, 2 * g - a), 0)
                 for (a, b), c in ones[m].terms.items())
             for m in range(2 * g + 1)]
            for g in gs]


def cmd_schubert(args):
    """(text, payload, exit code) of `schubert`: the sigma12 row and route value at g."""
    if args.g < 0:
        return "--g must be nonnegative", None, 2
    if args.g > args.cap:
        return "capped at g = %d (raise with --cap)" % args.cap, None, 3
    if 2 * args.g + 2 > sys.maxsize:  # the sigma_1 chain holds 2g + 1 classes
        return "--g is too large: a sequence holds at most %d items" % sys.maxsize, None, 2
    value = top_power_prefix({(4, 0): args.n4, (3, 1): args.n5}, args.g)[args.g]
    matrix = dict(enumerate(sigma12_rows([args.g])[0]))
    lines = ["top intersections sigma_1^(2m) sigma_2^(2g-m) in G(2,%d), g=%d"
             % (2 * args.g + 2, args.g)]
    lines.extend("m=%d\t%d" % (m, v) for m, v in matrix.items())
    lines.append("(%d*sigma_{4,0} + %d*sigma_{3,1})^%d -> %d"
                 % (args.n4, args.n5, args.g, value))
    rows = [{"g": args.g, "values": {"schubert": str(value)}, "agree": True}]
    payload = {"command": "schubert", "rows": rows,
               "matrix": {str(m): str(v) for m, v in matrix.items()}, "checks": []}
    return "\n".join(lines) + "\n", payload, 0
