"""What the engine builds only when it is read, against eager oracles.

A radical-table build keeps each pair's run levels and folds only its
diagonal; `_rows` folds a pair on its first read, and `reaches` answers from
the levels.  A graph map of `knit` keeps its run and builds its nonzeros on
first read, two graph maps compose by intersecting their runs, and a string
module builds its letter nonzeros on first read.  Each is compared here
with the eager form: a table folded in full, the nonzeros `_graph_map` and
`realize` wrote when they made a map or a module, and the composite that
joins nonzeros (`MorphismMatrix._adopt` maps, which carry no run).
"""

import functools

import pytest

from stringar import artheory, field_for_characteristic, knit, radical, witness
from stringar.families import make_family
from stringar.modules import GraphMap, MorphismMatrix, Representation
from stringar.radical import RadicalTable
from tests.conftest import LADDER
from tests.oracles import dense_maps
from tests.test_stress import _ladder_or_stress

NAMES = [*LADDER, *(f"S{i}" for i in range(8))]
CHARS = [0, 2, 3, 5]


@functools.lru_cache(maxsize=None)
def _quiver(name, char):
    [p] = _ladder_or_stress(name)
    return knit(p, field_for_characteristic(char))


def _built(f):
    """Has the map's `nonzeros` slot been set, without reading it?"""
    try:
        MorphismMatrix.nonzeros.__get__(f)
    except AttributeError:
        return False
    return True


def _dense(f):
    """{vertex: rows} over every vertex of the quiver, from the nonzeros."""
    out = {v: [[0] * f.source.dims[v] for _ in range(f.target.dims[v])]
           for v in f.source.p.quiver.vertices}
    for v, i, j, a in f.nonzeros:
        out[v][i][j] = a
    return out


def _joined(f):
    """f as a map with no run, so `compose` joins its nonzeros."""
    return MorphismMatrix._adopt(f.source, f.target, list(f.nonzeros))


# --- the radical table: a pair is folded when it is first read -------------


@pytest.mark.parametrize("name", NAMES)
def test_a_build_folds_only_its_diagonal(name, monkeypatch):
    """Building a source, or a column, folds the pair (c, c) and keeps every
    other pair it finds as its levels {m: runs}."""
    G = _quiver(name, 0)
    folded, fold = [], RadicalTable._fold
    monkeypatch.setattr(RadicalTable, "_fold", lambda T, key, levels: folded.append(key) or fold(T, key, levels))
    for side in ("source", "target"):
        T = RadicalTable(G)
        for c in G.nodes:
            folded.clear()
            T._level(c.index) if side == "source" else T._column(c.index)
            assert folded == [(c.index, c.index)]
        assert all((type(kept) is list) == (x == y) for (x, y), kept in T._pairs.items())
        assert any(type(kept) is dict for kept in T._pairs.values())


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("name", NAMES)
def test_reaches_reads_the_levels_as_the_folded_rows(name, char):
    """For every pair and every n, `reaches` on the levels answers as the first
    row of the table folded in full, and it folds nothing."""
    G = _quiver(name, char)
    complete = RadicalTable(G)._tagged
    T = RadicalTable(G)
    top = max(rows[0][0] for rows in complete.values()) + 1
    for x in G.nodes:
        for y in G.nodes:
            rows = complete.get((x.index, y.index), ())
            for n in range(top + 1):
                assert T.reaches(x.index, y.index, n) == (bool(rows) and rows[0][0] >= n)
    assert all(type(kept) is dict for (x, y), kept in T._pairs.items() if x != y)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_a_witness_folds_at_most_the_pairs_that_depth_reads(name, monkeypatch):
    """A ladder witness folds the diagonals its builds fold and the pairs that
    `depth` reads, no other; each fold runs `rref` once per level, so the
    `rref` calls are the levels of those pairs, fewer than a full fold makes."""
    family, m, n = LADDER[name]
    read, folds, rrefs = set(), [], [0]
    depth, fold, rref = RadicalTable.depth, RadicalTable._fold, radical.rref

    def counted(vectors, field):
        rrefs[0] += 1
        return rref(vectors, field)

    monkeypatch.setattr(radical, "rref", counted)
    monkeypatch.setattr(RadicalTable, "depth", lambda T, f, x, y: read.add((x.index, y.index)) or depth(T, f, x, y))
    monkeypatch.setattr(RadicalTable, "_fold", lambda T, key, levels: folds.append((key, len(levels))) or fold(T, key, levels))
    w = witness(make_family(family, m=m, n=n))
    off_diagonal = {key for key, _ in folds if key[0] != key[1]}
    assert read and off_diagonal <= read
    assert rrefs[0] == sum(levels for _, levels in folds)
    assert {key for key, kept in w.table._pairs.items() if type(kept) is list} == {key for key, _ in folds}
    lazy, rrefs[0] = rrefs[0], 0
    RadicalTable(w.quiver)._tagged
    assert lazy < rrefs[0]


# --- graph maps and string modules: built on first read ----------------------


def _eager_nonzeros(src, dst):
    """The nonzeros `_graph_map` wrote when it made the map: each shared
    position of the pieces, in src's piece order, a 1 from src to dst."""
    off = src.start - dst.start
    a, b = (src.coord, dst.coord[off:]) if off >= 0 else (src.coord[-off:], dst.coord)
    one = src.module.rep.field.one()
    return [(v, row, col, one) for (v, col), (_, row) in zip(a, b)]


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("name", NAMES)
def test_lazy_graph_maps_equal_the_eager_ones(name, char, monkeypatch):
    """knit reads no map's nonzeros and no module's letter nonzeros; read
    later, each map's equal those written when it was made, in that order,
    with r_2's sign, and each module's equal those `realize` wrote, with the
    same actions and dense maps."""
    made, graph_map = [], artheory._graph_map

    def recorded(src, dst):
        f = graph_map(src, dst)
        made.append((f, _eager_nonzeros(src, dst)))
        return f

    monkeypatch.setattr(artheory, "_graph_map", recorded)
    [p] = _ladder_or_stress(name)
    field = field_for_characteristic(char)
    G = knit(p, field)
    assert made and not any(_built(f) for f, _ in made)
    assert not any("nonzeros" in vars(x.module.rep) for x in G.nodes)
    negated = {id(seq.right_maps[1]) for seq in G.meshes.values() if seq.verify()}
    for f, eager in made:
        c = field.of(-1) if id(f) in negated else field.one()
        assert isinstance(f, GraphMap) and f.nonzeros == [(v, i, j, c) for v, i, j, _ in eager]
    for x in G.nodes:
        rep, walk = x.module.rep, x.module.word.walk
        coord, one = x.module.basis, field.one()
        eager = []
        for i, letter in enumerate(walk.letters, start=1):
            (_, col), (_, row) = (coord[i], coord[i - 1]) if letter.inverse else (coord[i - 1], coord[i])
            eager.append((letter.arrow, row, col, one))
        adopted = Representation._adopt(rep.p, field, rep.dims, eager)
        assert rep.nonzeros == eager and rep == adopted
        assert rep.actions == adopted.actions and rep.maps == adopted.maps


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("name", NAMES)
def test_run_composed_composites_equal_the_joined_ones(name, char):
    """Along every path of 2-4 arrow maps, and r_k l_k through each mesh
    middle, `compose` intersects runs: the composite is a graph map or the
    zero map, its nonzeros are those that joining the nonzeros gives, in the
    same order, and they equal the dense product; no compose index is built."""
    G = _quiver(name, char)
    composites = nonzero = 0

    def check(g, f):
        nonlocal composites, nonzero
        h, joined = g.compose(f), _joined(g).compose(_joined(f))
        assert h.nonzeros == joined.nonzeros
        assert _dense(h) == dense_maps.compose(g, f, _dense)
        assert isinstance(h, GraphMap) != h.is_zero()
        composites += 1
        nonzero += not h.is_zero()
        return h

    for seq in G.meshes.values():
        for l, r in zip(seq.left_maps, seq.right_maps):
            check(r, l)
    for a in G.arrows:
        paths = [(a.target, a.morphism)]
        for _ in range(3):
            paths = [(b.target, check(b.morphism, f)) for z, f in paths for b in G.arrows_from(z)]
            paths = [(z, h) for z, h in paths if not h.is_zero()]
    assert composites and nonzero
    assert all(a.morphism._by_middle is None for a in G.arrows)
