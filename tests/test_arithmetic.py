"""Morphism arithmetic against the checked public constructor.

Compositions and sums adopt the nonzeros they build without checking
them; here every result is compared with the map the checked constructor
builds from schoolbook blocks, over QQ and GF(3).  The schoolbook results
are plain Python arithmetic, each entry then reduced into the field by
`field.of`.
"""

import random

import pytest

from stringar import (
    QQ,
    audit_theorems,
    compose_chain,
    field_for_characteristic,
    knit,
    witness,
)
from stringar.errors import CompositionError
from stringar.families import make_family
from stringar.fields import Mat
from stringar.modules import MorphismMatrix


def _product(field, a, b):
    rows = [
        [field.of(sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)))
         for j in range(b.ncols)]
        for i in range(a.nrows)
    ]
    return Mat(field, rows, b.ncols)


@pytest.mark.parametrize("char", [0, 3])
def test_morphism_arithmetic_equals_the_checked_constructor(char):
    field = field_for_characteristic(char)
    G = knit(make_family("U", m=2, n=2).presentation, field)
    rng = random.Random(f"morphism:{char}")
    pairs = [(a, b) for a in G.arrows for b in G.arrows_from(a.target)]
    for a, b in pairs:
        f, g = a.morphism, b.morphism
        c = field.of(rng.randint(-2, 2))
        gf = g.compose(f)
        want = MorphismMatrix(
            f.source, g.target, {v: _product(field, g.block(v), f.block(v)) for v in f.blocks}
        )
        assert gf == want and gf.flatten() == want.flatten()
        assert list(gf.blocks) == list(want.blocks)
        total = gf.add(compose_chain([f, g]).scale(c))
        want_total = MorphismMatrix(
            f.source, g.target,
            {v: Mat(field, [[field.of(x + c * x) for x in row] for row in want.blocks[v].rows],
                    want.blocks[v].ncols) for v in want.blocks},
        )
        assert total == want_total
        assert total.check_intertwining()
    for _ in range(60):  # Mat.zeros: fresh rows of the shape asked for
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        zeros, other = Mat.zeros(field, r, c), Mat.zeros(field, r, c)
        want = Mat(field, [[field.zero()] * c for _ in range(r)], c)
        assert (zeros.shape, zeros.rows) == (want.shape, want.rows) and zeros == want
        assert not any(row is u for row in zeros.rows for u in other.rows)


def test_shared_constants_stay_zero_and_one():
    witness(make_family("W", n=5))
    gf3 = field_for_characteristic(3)
    audit_theorems(make_family("U", m=2, n=2).presentation, samples=4, field=gf3)
    assert QQ.zero() == 0 and QQ.one() == 1
    assert QQ.zero() is QQ.zero()
    assert (gf3.zero(), gf3.one()) == (gf3.of(0), gf3.of(1))
    assert (gf3.zero(), gf3.one()) == (0, 1)
    gf2 = field_for_characteristic(2)
    assert (gf2.zero(), gf2.one()) == (0, 1)


@pytest.mark.parametrize("chars", [(3, 5), (0, 3)], ids=["GF3xGF5", "QQxGF3"])
def test_operands_over_two_fields_are_refused(chars):
    """Plain-int scalars cannot tell the fields apart, so the containers must."""
    one, other = (knit(make_family("W", n=3).presentation, field_for_characteristic(char))
                  for char in chars)
    for G, H in ((one, other), (other, one)):
        # arrow i then arrow j, composable; the same arrows of H over the other field
        pairs = [(i, G.arrows.index(b)) for i, a in enumerate(G.arrows)
                 for b in G.arrows_from(a.target)]
        assert pairs
        for i, j in pairs:
            f = G.arrows[i].morphism
            with pytest.raises(CompositionError, match="cannot combine"):
                H.arrows[j].morphism.compose(f)
            with pytest.raises(CompositionError, match="cannot combine"):
                f.add(H.arrows[i].morphism)
            mixed = MorphismMatrix(f.source, H.arrows[i].morphism.target, f.blocks)
            with pytest.raises(CompositionError, match="cannot combine"):
                mixed.check_intertwining()
    a, b = (Mat(field_for_characteristic(char), [[1, 2], [0, 1]], 2) for char in chars)
    for x, y in ((a, b), (b, a)):
        assert x != y
    assert a == Mat(field_for_characteristic(chars[0]), [[1, 2], [0, 1]], 2)
