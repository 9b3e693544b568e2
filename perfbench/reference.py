"""Fixed reference work that measures how fast the machine runs right now.

`run.py` runs this file as its own process between CLI jobs and divides the
job times by its median wall time. It never imports `oddcovers` and never
changes, so a slow phase of a shared machine scales both alike and cancels,
while a change to the program does not. The work is exact rational
arithmetic in the interpreter, the same kind the CLI jobs spend their time
on: a truncated product of two series with Fraction coefficients.
"""

from fractions import Fraction

TERMS = 60
ROUNDS = 30


def main() -> None:
    a = [Fraction(1, k + 1) for k in range(TERMS)]
    for _ in range(ROUNDS):
        out = [Fraction(0)] * TERMS
        for i in range(TERMS):
            for j in range(TERMS - i):
                out[i + j] += a[i] * a[j]
    if out[0] != 1:
        raise SystemExit("reference arithmetic is wrong")


if __name__ == "__main__":
    main()
