"""Exact linear algebra over the rationals or a prime field.

Everything downstream (homomorphism spaces, radical layers, the DTr
oracle) reduces to rank/kernel/echelon computations on small dense
matrices.  In characteristic 0 an entry is a Python `int` when it is
integral and a `fractions.Fraction` otherwise; mod p it is an
`FpElement`.  All of these support +, -, * and == exactly, so the code
below is generic.  Division is the one exception (`int / int` is a
float), so nothing divides directly: a pivot is inverted by `field.inv`.
"""

from __future__ import annotations

from fractions import Fraction


class FpElement:
    """An element of the prime field Z/pZ."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        return FpElement(self.p, self.v + other.v)

    def __sub__(self, other):
        return FpElement(self.p, self.v - other.v)

    def __mul__(self, other):
        return FpElement(self.p, self.v * other.v)

    def __truediv__(self, other):
        if other.v % other.p == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.p, self.v * pow(other.v, -1, other.p))

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


def _exact(q):
    """The Fraction q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    """Field descriptor for exact rational arithmetic.

    An element is an `int` when it is integral and a `Fraction` otherwise,
    so the integer matrices of string modules never reach `Fraction` code.
    Sums and products of Fractions may still be integral Fractions; they
    compare, hash and print like the equal int.  Divide only through `inv`.
    """

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n):
        return n if type(n) is int else _exact(Fraction(n))

    def parse(self, s):
        return _exact(Fraction(s))

    def inv(self, x):
        if x == 1 or x == -1:
            return x
        return _exact(1 / Fraction(x))

    def to_str(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Field descriptor for Z/pZ, p prime."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self._zero = FpElement(p, 0)
        self._one = FpElement(p, 1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def of(self, n):
        return FpElement(self.p, n)

    def parse(self, s):
        return FpElement(self.p, int(s))

    def inv(self, x):
        return self._one / x

    def to_str(self, x):
        return str(x.v)

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

    The constructor copies and shape-checks its rows.  Arithmetic adopts the
    rows it has just built through `_adopt`, which does neither.
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
    def _adopt(cls, field, rows, ncols):
        """Wrap fresh, rectangular rows of width ncols without copying or checking."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls._adopt(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_int_rows(cls, field, rows, ncols=None):
        return cls(field, [[field.of(x) for x in r] for r in rows], ncols)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        z = self.field.zero()
        out = [[z] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            srow = self.rows[i]
            orow = out[i]
            for k in range(self.ncols):
                a = srow[k]
                if not a:
                    continue
                brow = other.rows[k]
                for j in range(other.ncols):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
        return Mat._adopt(self.field, out, other.ncols)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Mat._adopt(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat._adopt(self.field, [[-a for a in r] for r in self.rows], self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def scale(self, c):
        return Mat._adopt(self.field, [[c * a for a in r] for r in self.rows], self.ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        return Mat(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def rank(self):
        return len(rref([list(r) for r in self.rows], self.field)[0])

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def rref(rows, field):
    """In-place reduced row echelon form; returns (pivot column list, rows).

    Rows that become zero are dropped.  The result is the canonical RREF
    basis of the row space.
    """
    pivots = []
    if not rows:
        return pivots, rows
    ncols = len(rows[0])
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
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, [row for row in rows[:r]]


def nullspace(mat):
    """Canonical kernel basis of a Mat (unit value at each free column)."""
    field = mat.field
    rows = [list(r) for r in mat.rows]
    pivots, rows = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(mat.ncols) if c not in pivot_set]
    z, o = field.zero(), field.one()
    basis = []
    for fc in free:
        v = [z] * mat.ncols
        v[fc] = o
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
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
    order.
    """

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field, n, vectors=()):
        self.field = field
        self.n = n
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.insert(v)

    def copy(self):
        s = Subspace(self.field, self.n)
        s.rows = [list(r) for r in self.rows]
        s.pivots = list(self.pivots)
        return s

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def reduce(self, vec):
        """Residue of vec modulo the subspace."""
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return not any(self.reduce(vec))

    def insert(self, vec):
        """Add a vector; returns True if the dimension grew."""
        v = self.reduce(vec)
        p = next((i for i, a in enumerate(v) if a), None)
        if p is None:
            return False
        inv = self.field.inv(v[p])
        v = [a * inv for a in v]
        for i in range(len(self.rows)):
            if self.rows[i][p]:
                f = self.rows[i][p]
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], v)]
        pos = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, p)
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.n})"
