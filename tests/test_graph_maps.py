"""Maps kept as their nonzeros, against dense oracles.

`knit` makes every arrow and mesh map as its nonzeros: a graph map, with
one ±1 in each nonzero row and column.  The arithmetic joins nonzeros, and
ranks are counted from them (`fields.entry_rank`) unless a row and a column
both hold two, when `rref` decides.  Here every result is recomputed on
dense blocks: schoolbook products, `rref` ranks, and the intertwining
equations entry by entry.
"""

import functools
from collections import Counter

import pytest

from stringar import field_for_characteristic, knit
from stringar import fields
from stringar.errors import CompositionError
from stringar.families import make_family
from stringar.fields import entry_rank
from stringar.modules import MorphismMatrix, morphism_from_flat
from stringar.radical import RadicalTable
from tests.conftest import LADDER, layer_space
from tests.oracles import dense_maps, mesh_maps
from tests.test_artheory import _bumped_right_maps
from tests.test_stress import _band_free_algebras

STRESS = [f"S{i}" for i in range(8)]
SIZES = {**LADDER, "W12": ("W", None, 12), "U5_5": ("U", 5, 5), "V4_5": ("V", 4, 5)}


def _presentation(name):
    if name.startswith("S"):
        return _band_free_algebras()[int(name[1:])]
    family, m, n = SIZES[name]
    return make_family(family, m=m, n=n).presentation


@functools.lru_cache(maxsize=None)
def _quiver(name, char):
    return knit(_presentation(name), field_for_characteristic(char))


def _knit_maps(G):
    """Every map knit made: the arrow maps and both sides of every mesh."""
    maps = [a.morphism for a in G.arrows]
    for seq in G.meshes.values():
        maps += seq.left_maps + seq.right_maps
    return maps


def _dense(f):
    """{vertex: rows} over every vertex of the quiver, built from the nonzeros."""
    out = {v: [[0] * f.source.dims[v] for _ in range(f.target.dims[v])]
           for v in f.source.p.quiver.vertices}
    for v, i, j, a in f.nonzeros:
        out[v][i][j] = a
    return out


def _flat(field, dense, f):
    """The flat vector of dense blocks: the common support's blocks in vertex order."""
    return [field.of(x) for v in f.source.p.quiver.vertices
            if f.source.dims[v] and f.target.dims[v] for r in dense[v] for x in r]


def _oracle_ranks(f):
    field, d = f.source.field, _dense(f)
    return {v: dense_maps.rank(field, d[v]) for v in d}


# --- knit makes graph maps, as nonzeros ---------------------------------------


@pytest.mark.parametrize("name", [*LADDER, "W12", "U5_5", "V4_5", *STRESS])
def test_knit_makes_every_map_as_its_nonzeros(name):
    """Each map has at most one nonzero, ±1, per row and column, and the checked
    constructor gives back the same nonzeros from the map's blocks."""
    G = knit(_presentation(name))
    maps = _knit_maps(G)
    assert maps
    for f in maps:
        copy = MorphismMatrix(f.source, f.target, f.blocks)
        assert copy == f and Counter(copy.nonzeros) == Counter(f.nonzeros)
        rows = [(v, i) for v, i, _, _ in f.nonzeros]
        cols = [(v, j) for v, _, j, _ in f.nonzeros]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        assert {a for *_, a in f.nonzeros} <= {1, -1}


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("name", [*LADDER, *STRESS])
def test_arithmetic_on_nonzeros_matches_the_dense_oracle(name, char):
    """compose, neg, is_zero, check_intertwining, flatten and the blocks of every
    knit map (and of each map with its first nonzero's sign flipped) equal the
    dense results; compose over every arrow pair and every mesh's r_k o l_k."""
    G = _quiver(name, char)
    field = G.field
    maps = _knit_maps(G)
    flipped = [MorphismMatrix._adopt(f.source, f.target, [
        (v, i, j, field.of(-a)) if n == 0 else (v, i, j, a)
        for n, (v, i, j, a) in enumerate(f.nonzeros)]) for f in maps if f.nonzeros]
    for f in maps + flipped:
        dense = _dense(f)
        flat = _flat(field, dense, f)
        assert f.flatten() == flat
        assert f.neg().flatten() == [field.of(-x) for x in flat]
        assert f.is_zero() == (not any(flat)) and f.add(f.neg()).is_zero()
        assert f.check_intertwining() == dense_maps.intertwines(f, _dense)
        copy = MorphismMatrix(f.source, f.target, f.blocks)
        assert copy == f and Counter(copy.nonzeros) == Counter(f.nonzeros)
    verdicts = {f.check_intertwining() for f in flipped}
    assert verdicts == {True} if char == 2 else False in verdicts  # -1 == 1 mod 2
    pairs = [(b.morphism, a.morphism) for a in G.arrows for b in G.arrows_from(a.target)]
    pairs += [(r, l) for seq in G.meshes.values() for l, r in zip(seq.left_maps, seq.right_maps)]
    assert pairs
    for g, f in pairs:
        gf = g.compose(f)
        assert gf.flatten() == _flat(field, dense_maps.compose(g, f, _dense), gf)
        assert gf.is_zero() == (not any(gf.flatten()))


def test_add_refuses_maps_with_other_ends():
    """Two arrow maps of W(3) with other ends: a sum with other dimensions is a
    CompositionError, dense or not; with the same dimensions it is the sum."""
    G = knit(make_family("W", n=3).presentation)
    refused = summed = 0
    for a in G.arrows:
        for b in G.arrows:
            if (a.source, a.target) == (b.source, b.target):
                continue
            f, g = a.morphism, b.morphism
            for other in (g, MorphismMatrix(g.source, g.target, g.blocks)):
                if (f.source.dims, f.target.dims) != (g.source.dims, g.target.dims):
                    with pytest.raises(CompositionError, match="different modules"):
                        f.add(other)
                    refused += 1
                else:
                    assert f.add(other).flatten() == [x + y for x, y in zip(f.flatten(), g.flatten())]
                    summed += 1
    assert refused > 400 and summed > 0


# --- one rank helper -----------------------------------------------------------


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", [*LADDER, *STRESS])
def test_ranks_agree_with_rref(name, char):
    """is_mono, is_epi and rank of every arrow, and the rank of each mesh's
    stacked [l_1; l_2] and side-by-side [r_1 r_2], as verify keys them."""
    G = _quiver(name, char)
    field = G.field
    for a in G.arrows:
        f = a.morphism
        ranks = _oracle_ranks(f)
        assert f.rank() == sum(ranks.values())
        assert f.is_mono() == all(ranks[v] == d for v, d in f.source.dims.items())
        assert f.is_epi() == all(ranks[v] == d for v, d in f.target.dims.items())
    for seq in G.meshes.values():
        lefts, rights = [_dense(f) for f in seq.left_maps], [_dense(f) for f in seq.right_maps]
        vertices = list(lefts[0])
        stacked = sum(dense_maps.rank(field, [r for d in lefts for r in d[v]]) for v in vertices)
        side = sum(dense_maps.rank(field, [[x for d in rights for x in d[v][i]]
                                 for i in range(seq.right_term.rep.dims[v])]) for v in vertices)
        left = [((k, v, i), (v, j), x)
                for k, f in enumerate(seq.left_maps) for v, i, j, x in f.nonzeros]
        right = [((v, i), (k, v, j), x)
                 for k, f in enumerate(seq.right_maps) for v, i, j, x in f.nonzeros]
        assert entry_rank(field, left) == stacked == seq.left_term.rep.total_dim
        assert entry_rank(field, right) == side == seq.right_term.rep.total_dim


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    real = fields.rref

    def counted(rows, field):
        calls.append(len(rows))
        return real(rows, field)

    monkeypatch.setattr(fields, "rref", counted)
    return calls


@pytest.mark.parametrize("char", [0, 3])
def test_ranks_of_non_graph_maps_fall_back_to_rref(char, rref_calls):
    """Arrows of W(5) and U(3,3) perturbed by rad^2 rows have rows and columns
    with two nonzeros; their ranks still agree with the dense oracle."""
    checked = 0
    for name in ("W5", "U3_3"):
        G = _quiver(name, char)
        table, field = RadicalTable(G), G.field
        for a in G.arrows:
            x, y = G.nodes[a.source], G.nodes[a.target]
            for row in layer_space(table, x, y, 2).rows:
                f = a.morphism.add(morphism_from_flat(x.module.rep, y.module.rep, row))
                ranks = _oracle_ranks(f)
                before = len(rref_calls)
                assert f.rank() == sum(ranks.values())
                assert f.is_mono() == all(ranks[v] == d for v, d in f.source.dims.items())
                assert f.is_epi() == all(ranks[v] == d for v, d in f.target.dims.items())
                checked += len(rref_calls) > before
    assert checked > 0


def test_verify_ranks_a_bumped_right_map_by_rref(rref_calls):
    """A right map of W(3) or S0 bumped by one entry that still makes a zero
    composite and a morphism reaches the epi test; the numeric mesh check
    accepts it exactly when the dense [r_1 r_2] has full row rank.  Some
    reach it with a row and a column of two nonzeros, so rref decides."""
    reached = 0
    for seq in [*_quiver("W3", 0).meshes.values(), *_quiver("S0", 0).meshes.values()]:
        field, R = seq.left_term.rep.field, seq.right_term.rep
        for _, right_maps in _bumped_right_maps(seq):
            before = len(rref_calls)
            message = mesh_maps.message(lambda: mesh_maps.verify(
                seq.left_term, seq.middle, seq.right_term, list(seq.left_maps), list(right_maps)))
            if message in ("mesh composite is not zero", "mesh map is not a morphism"):
                continue
            dense = [_dense(f) for f in right_maps]
            epi = all(
                dense_maps.rank(field, [[x for d in dense for x in d[v][i]] for i in range(R.dims[v])])
                == R.dims[v] for v in R.dims
            )
            assert message == (None if epi else "right mesh map not epi")
            reached += len(rref_calls) > before
    assert reached > 0
