"""The per-level fold the radical table once ran, kept as the oracle for its rows.

The table keeps each pair's runs with their deepest level, and
`tests.conftest.pair_rows` writes them as unit vectors, with no
elimination.  This is the computation it replaced: build every level T_m(x, .), the runs of the
composites of m arrow maps, from the source end; write each level's runs
as flat unit vectors, take their RREF, and fold the levels, deepest first,
into one echelon basis with `append`, the identity last on the
diagonal.  A row (m, pivot, row) then carries the level m of the deepest
T_m that adds it.  `depth` reduces a flat vector against those rows.
The tagged `reduce` and `append` are the echelon primitives `fields` once
had; the library now inserts into a `Subspace` only.
"""

from stringar.errors import MeshInconsistencyError
from stringar.fields import pivot, rref, scaled_row
from stringar.modules import compose_runs, flat_offsets


def reduce(rows, vec, char):
    """Subtract each echelon row (tag, pivot, row) at its pivot, in order.

    Returns the residue and the tag of the last row used (None if none was).
    Each row is zero at the pivots of the rows before it, so the residue is
    zero exactly when vec lies in the span of the rows.  In characteristic
    char > 0 each pivot entry is reduced on the way and the residue once.
    """
    v = list(vec)
    tag = None
    for t, p, row in rows:
        c = v[p] % char if char else v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
            tag = t
    return ([a % char for a in v] if char else v), tag


def append(field, rows, vec, tag):
    """Add vec to the echelon rows as (tag, pivot, row), scaled to a unit pivot;
    False if vec is spanned."""
    char = field.characteristic
    v, _ = reduce(rows, vec, char)
    p = pivot(v)
    if p is None:
        return False
    rows.append((tag, p, scaled_row(v, field.inv(v[p]), char)))
    return True


def _flat_runs(M, N, flat, runs, c):
    """`flatten()` of the graph map M -> N of each run, with coefficient c;
    flat is `flat_offsets(M.rep, N.rep)`."""
    (offsets, size), dims, out = flat, M.rep.dims, []
    for s, t, d, k in runs:
        out.append([0] * size)
        for i in range(k):
            (v, j), (_, r) = M.basis[s + i], N.basis[t + d * i]
            out[-1][offsets[v] + r * dims[v] + j] = c
    return out


def levels(quiver, xi):
    """{target index: {m: the runs of T_m(x, y)}} for the node x of index xi:
    T_1 the runs of the arrow maps out of x, T_{m+1}(x, y) those of a o r
    over r in T_m(x, z) and the arrows a: z -> y."""
    out, runs = {}, {}
    for a in quiver.arrows:
        out.setdefault(a.source, []).append((a.target, next(iter(a.morphism.terms))))
    for yi, a in out.get(xi, ()):
        runs.setdefault(yi, set()).add(a)
    got, m = {}, 0
    while runs:
        m += 1
        nxt = {}
        for zi, level in runs.items():
            got.setdefault(zi, {})[m] = level
            for yi, a in out.get(zi, ()):
                for r in level:
                    c = compose_runs(r, a)
                    if c:
                        nxt.setdefault(yi, set()).add(c)
        runs = nxt
    return got


def fold(quiver, xi, yi, levels):
    """The rows (m, pivot, row) of the pair (xi, yi) from its levels {m: runs}."""
    field = quiver.field
    M, N = quiver.nodes[xi].module, quiver.nodes[yi].module
    flat, one = flat_offsets(M.rep, N.rep), field.one()
    rows = []
    for m in sorted(levels, reverse=True):
        pivots, level = rref(_flat_runs(M, N, flat, levels[m], one), field)
        if not rows:  # the deepest level: RREF with unit pivots, as `append` keeps it
            rows = [(m, p, r) for p, r in zip(pivots, level)]
        else:
            for r in level:
                append(field, rows, r, m)
    identity = xi == yi and _flat_runs(M, N, flat, [(0, 0, 1, M.total_dim)], one)
    if identity and not append(field, rows, *identity, 0):
        raise MeshInconsistencyError(f"the identity of {quiver.nodes[xi].text} lies in the radical")
    return rows


def table(quiver):
    """{(source index, target index): rows} of every pair with a nonzero level,
    and of every diagonal pair."""
    out = {}
    for x in quiver.nodes:
        got = levels(quiver, x.index)
        got.setdefault(x.index, {})
        for yi, pair in got.items():
            out[x.index, yi] = fold(quiver, x.index, yi, pair)
    return out


def depth(rows, f, char):
    """The tag of the last row that reducing f's flat vector against rows uses:
    f's depth; None for the zero map; raises ValueError off their span."""
    vec = f.flatten()
    if not any(vec):
        return None
    rest, tag = reduce(rows, vec, char)
    if any(rest):
        raise ValueError("not in the span of the rows")
    return tag
