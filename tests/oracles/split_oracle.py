"""The dense retraction solve, kept as the oracle for the non-split word test.

A short exact sequence 0 -> L -> M_1 (+) M_2 -> R -> 0 splits iff some
morphism h = (h_1, h_2) out of the middle term retracts the left map:
sum h_i o l_i = id_L.  Each h_i ranges over Hom(M_i, L), so this is one
linear system over the bases of those Hom spaces.
"""

from stringar.fields import Mat, solve
from stringar.modules import hom_basis
from tests.morphisms import identity_morphism


def splits(left_term, middle, left_maps):
    """Is there a retraction of the left map, a morphism, with sum h_i o l_i = id?"""
    lt = left_term.rep
    columns = [
        e.compose(l).flatten()
        for l, m in zip(left_maps, middle)
        for e in hom_basis(m.rep, lt).basis
    ]
    target = identity_morphism(lt).flatten()
    if not columns:
        return not any(target)
    mat = Mat(lt.field, [list(row) for row in zip(*columns)], len(columns))
    return solve(mat, target) is not None
