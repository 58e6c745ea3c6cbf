"""In-place Gauss-Jordan elimination, kept as the oracle for `fields.rref`.

The library builds a reduced row echelon basis by inserting one vector at
a time (`fields.Subspace.insert`: reduce, scale to a unit pivot, clear that
column and insert by pivot).  This is the textbook elimination it
replaced: column by column, swap a pivot row up, scale it to a unit pivot
and clear its column in every other row.  Both must give the same pivots,
the same rows and the same entry types (over QQ an `int` where an entry is
integral, a `Fraction` otherwise).
"""

from fractions import Fraction


def _exact(q):
    return q.numerator if q.denominator == 1 else q


def rref(rows, field):
    """In-place reduced row echelon form; returns (pivot column list, rows).

    Rows that become zero are dropped.
    """
    pivots = []
    if not rows:
        return pivots, rows
    char, ncols = field.characteristic, len(rows[0])
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        prow = [a * inv % char for a in rows[r]] if char else [a * inv for a in rows[r]]
        # over QQ, arithmetic with a Fraction can give an integral Fraction: make those ints
        exact = not char and any(type(a) is Fraction for a in prow)
        if exact:
            prow = [_exact(a) for a in prow]
        rows[r] = prow
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                row = [a - f * b for a, b in zip(rows[i], prow)]
                if char or exact or type(f) is Fraction:
                    row = [a % char for a in row] if char else [_exact(a) for a in row]
                rows[i] = row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows[:r]
