"""Exact linear algebra over the rationals or a prime field.

Everything downstream (homomorphism spaces, the degree witness, the DTr
oracle) reduces to rank/kernel/echelon computations on small dense
matrices.  One elimination does them all: `Subspace.insert` reduces a
vector against RREF rows (`reduce`), scales it to a unit pivot, clears that
column and inserts it by pivot, and `rref` is the basis of a `Subspace`
its vectors are inserted into.  `Mat` is only the dense matrix that
elimination reads; maps and modules are kept as their nonzeros (see
`modules`).  In characteristic 0 an entry is a Python `int`
when it is integral and a `fractions.Fraction` otherwise; mod p it is an
`int` in [0, p), and each accumulated row is reduced with `% p` once,
inline on `field.characteristic`.  Division is the exception (`int / int`
is a float), so nothing divides directly: a pivot is inverted by
`field.inv`.  Plain ints do not know their field, so a `MorphismMatrix`
refuses to mix two, and `Mat`s or `Subspace`s over two fields are never equal.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction


def _exact(q):
    """The Fraction q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def scaled_row(row, c, char):
    """c * row over the field of characteristic char; over QQ ints where integral."""
    if char:
        return [a * c % char for a in row]
    if type(c) is Fraction or type(sum(row)) is Fraction:  # the sum is one iff an entry is
        return [_exact(a * c) for a in row]
    return [a * c for a in row]


class _Field:
    """What both descriptors share: 0 and 1 are ints, an element prints as `str`."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def to_str(self, x):
        return str(x)


class Rationals(_Field):
    """Field descriptor for exact rational arithmetic.

    An element is an `int` when it is integral and a `Fraction` otherwise,
    so the integer matrices of string modules never reach `Fraction` code.
    Sums and products of Fractions may still be integral Fractions; they
    compare, hash and print like the equal int.  Divide only through `inv`.
    """

    characteristic = 0

    def of(self, n):
        return n if type(n) is int else _exact(Fraction(n))

    def parse(self, s):
        return _exact(Fraction(s))

    def inv(self, x):
        if x == 1 or x == -1:
            return x
        return _exact(1 / Fraction(x))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(_Field):
    """Field descriptor for Z/pZ, p prime; an element is an `int` in [0, p)."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = self.characteristic = p

    def of(self, n):
        return n % self.p

    def parse(self, s):
        return int(s) % self.p

    def inv(self, x):
        if not x % self.p:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(x, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def field_for_characteristic(char):
    return QQ if char == 0 else PrimeField(char)


class Mat:
    """Dense matrix over an exact field; treated as immutable after construction.

    It holds what elimination reads: the matrices `nullspace` and `solve`
    take, and the arrow maps and blocks that a representation and a
    morphism write out for output and the DTr oracle.  There is no matrix
    arithmetic.  The constructor copies and shape-checks its rows.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged matrix")
        else:
            if ncols is None:
                raise ValueError("0-row matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def zeros(cls, field, nrows, ncols):
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols = field, nrows, ncols
        m.rows = [[field.zero()] * ncols for _ in range(nrows)]
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.rows == other.rows
            and (self.field is other.field or self.field == other.field)
        )

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def pivot(v):
    """The index of v's first nonzero entry; None for the zero vector."""
    for i, a in enumerate(v):
        if a:
            return i
    return None


def reduce(pivots, rows, vec, char):
    """The residue of vec against RREF rows with those pivots: each row is
    subtracted at its pivot, where the others are zero, so the residue is
    zero exactly when vec lies in their span.  In characteristic char > 0
    each pivot entry is reduced on the way and the residue once."""
    v = list(vec)
    for p, row in zip(pivots, rows):
        c = v[p] % char if char else v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return [a % char for a in v] if char else v


def rref(vectors, field):
    """(pivot columns, rows) of the RREF basis of the span of vectors: those of
    a `Subspace` they are inserted into; a row may be one of them.

    Given entries in the field's form, the rows are in it too: over QQ a row
    is made exact where a Fraction enters it.
    """
    if len(vectors) == 1:  # one vector needs no elimination, only a unit pivot
        v = vectors[0]
        p = pivot(v)
        if p is not None and type(v[p]) is int:  # its inverse is +-1 or a Fraction: v stays exact
            return [p], [v if v[p] == 1 else scaled_row(v, field.inv(v[p]), field.characteristic)]
    space = Subspace(field, len(vectors[0]) if vectors else 0, vectors)
    return space.pivots, space.rows


def entry_rank(field, entries):
    """The rank of a matrix given by its nonzeros (row key, column key, coefficient).

    When no row holds two nonzeros, the nonzero columns have disjoint row
    supports, so they are independent and the rank is their number.  Dually,
    when no column holds two, the rank is the number of nonzero rows.  Else
    `rref` ranks the nonzero rows, cut to the nonzero columns: zero rows and
    columns do not change a rank.
    """
    rows = {i for i, _, _ in entries}
    cols = {j for _, j, _ in entries}
    if len(rows) == len(entries):
        return len(cols)
    if len(cols) == len(entries):
        return len(rows)
    col_of = {j: k for k, j in enumerate(cols)}
    dense = {i: [0] * len(cols) for i in rows}
    for i, j, a in entries:
        dense[i][col_of[j]] = a
    return len(rref(list(dense.values()), field)[0])


def nullspace(mat):
    """Canonical kernel basis of a Mat (unit value at each free column)."""
    field = mat.field
    pivots, rows = rref(mat.rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(mat.ncols) if c not in pivot_set]
    char, z, o = field.characteristic, field.zero(), field.one()
    basis = []
    for fc in free:
        v = [z] * mat.ncols
        v[fc] = o
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc] % char if char else -rows[i][fc]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution x of mat * x = rhs, or None if inconsistent."""
    field = mat.field
    aug = [list(r) + [rhs[i]] for i, r in enumerate(mat.rows)]
    pivots, rows = rref(aug, field)
    if mat.ncols in pivots:
        return None
    z = field.zero()
    x = [z] * mat.ncols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][-1]
    return x


class Subspace:
    """A subspace of field^n kept as a reduced row echelon basis.

    RREF is unique per subspace, so equality of `rows` is equality of
    subspaces and every basis below is canonical no matter the insertion
    order.  `insert` is the one way rows are made, here and in `rref`.
    """

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field, n, vectors=()):
        self.field, self.n, self.pivots, self.rows = field, n, [], []
        for v in vectors:
            self.insert(v)

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, vec):
        return not any(reduce(self.pivots, self.rows, vec, self.field.characteristic))

    def insert(self, vec):
        """Add a vector; returns True if the dimension grew.  Its residue is zero
        at every pivot: scaled to a unit pivot p, it clears column p of the rows
        (only those above p can be nonzero there) and goes in by p.  Over QQ a
        row is made exact where a Fraction enters it."""
        char = self.field.characteristic
        v = reduce(self.pivots, self.rows, vec, char)
        p = pivot(v)
        if p is None:
            return False
        row = scaled_row(v, self.field.inv(v[p]), char)
        exact = not char and type(sum(row)) is Fraction
        for i, other in enumerate(self.rows):
            f = other[p]
            if f:
                other = [a - f * b for a, b in zip(other, row)]
                if char or exact or type(f) is Fraction:
                    other = [a % char for a in other] if char else [_exact(a) for a in other]
                self.rows[i] = other
        k = bisect(self.pivots, p)
        self.pivots.insert(k, p)
        self.rows.insert(k, row)
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.rows == other.rows
            and (self.field is other.field or self.field == other.field)
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.n})"
