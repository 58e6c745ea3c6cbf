"""The numeric mesh check, kept as the oracle for `AlmostSplitSequence.verify`.

The library checks a mesh from its pieces' positions and letters.  This is
the check it replaced, on the maps themselves: compose and add the mesh
composite, run the intertwining equations (`_intertwines`, not the verdict
a graph map carries), and rank [l_1; l_2] and [r_1 r_2] from their
nonzeros.  It raises the same messages in the same order, and negates
`right_maps[1]` in place when r_1 l_1 = r_2 l_2.
"""

from stringar.errors import MeshInconsistencyError
from stringar.fields import entry_rank


def verify(left_term, middle, right_term, left_maps, right_maps):
    if not 1 <= len(middle) <= 2:
        raise MeshInconsistencyError(f"{len(middle)} middle terms")
    lt, rt = left_term.rep, right_term.rep
    for v in lt.p.quiver.vertices:
        if lt.dims[v] + rt.dims[v] != sum(m.rep.dims[v] for m in middle):
            raise MeshInconsistencyError("middle dimension mismatch")
    # r_1 l_1 + r_2 l_2 must vanish; with two middles it may instead vanish
    # once r_2 is negated, that is when r_1 l_1 == r_2 l_2.
    rls = [r.compose(l) for l, r in zip(left_maps, right_maps)]
    if rls and not (rls[0] if len(rls) == 1 else rls[0].add(rls[1])).is_zero():
        if len(middle) != 2 or rls[0] != rls[1]:
            raise MeshInconsistencyError("mesh composite is not zero")
        right_maps[1] = right_maps[1].neg()
    for f in left_maps + right_maps:
        if not f._intertwines():
            raise MeshInconsistencyError("mesh map is not a morphism")
    # left map is a monomorphism into the sum, right map an epimorphism out of it:
    # [l_1; l_2] and [r_1 r_2] are block diagonal over the vertices, so each must
    # have the end term's dimension as rank (entry_rank counts it from the
    # nonzeros; middle term k's coordinates are keyed by k).
    field = lt.field
    left = [((k, v, i), (v, j), a)
            for k, f in enumerate(left_maps) for v, i, j, a in f.nonzeros]
    if entry_rank(field, left) != lt.total_dim:
        raise MeshInconsistencyError("left mesh map not mono")
    right = [((v, i), (k, v, j), a)
             for k, f in enumerate(right_maps) for v, i, j, a in f.nonzeros]
    if entry_rank(field, right) != rt.total_dim:
        raise MeshInconsistencyError("right mesh map not epi")
    # an exact sequence splits iff its middle is the sum of its ends (Miyata)
    ends = [left_term.word, right_term.word]
    if [m.word for m in middle] in (ends, ends[::-1]):
        raise MeshInconsistencyError("almost split sequence splits")


def message(check):
    """The MeshInconsistencyError message check() raises, or None."""
    try:
        check()
    except MeshInconsistencyError as exc:
        return str(exc)
    return None
