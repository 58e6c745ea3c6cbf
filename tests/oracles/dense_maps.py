"""Dense matrix oracles for maps between representations.

Each oracle reads a map's blocks through `dense`, a function that gives
{vertex: rows} for every vertex of the quiver.  The tests pass their own
reader (from the block views, or from the nonzeros), so the oracle checks
the view that test is about.
"""

from tests.oracles.gauss_jordan import rref


def mul(field, a, b, inner, ncols):
    """The matrix product a b, each entry reduced by `field.of`."""
    return [
        [field.of(sum(r[k] * b[k][j] for k in range(inner))) for j in range(ncols)]
        for r in a
    ]


def compose(g, f, dense):
    """{vertex: rows} of g o f, vertex by vertex."""
    field, dg, df = f.source.field, dense(g), dense(f)
    return {v: mul(field, dg[v], df[v], f.target.dims[v], f.source.dims[v]) for v in df}


def intertwines(f, dense):
    """Does f commute with every arrow's action: f_t M(a) = N(a) f_s?"""
    field, d = f.source.field, dense(f)
    for a in f.source.p.quiver.arrows:
        s, t = a.source, a.target
        lhs = mul(field, d[t], f.source.maps[a.label].rows, f.source.dims[t], f.source.dims[s])
        rhs = mul(field, f.target.maps[a.label].rows, d[s], f.target.dims[s], f.source.dims[s])
        if lhs != rhs:
            return False
    return True


def rank(field, rows):
    return len(rref([list(r) for r in rows], field)[0]) if rows else 0
