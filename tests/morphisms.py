"""The zero and identity morphisms, which only tests build."""

from stringar.modules import MorphismMatrix


def zero_morphism(M, N):
    return MorphismMatrix._adopt(M, N, [])


def identity_morphism(M):
    one = M.field.one()
    return MorphismMatrix._adopt(M, M, [(v, i, i, one) for v, d in M.dims.items() for i in range(d)])
