"""What the engine builds only when it is read, against eager oracles.

A radical-table build keeps each pair's runs with their levels and writes
no row; `tags`, `profile`, `depth` and the `reaches` helper read the levels,
and no query eliminates.  A graph map of `knit` keeps its run and builds its
nonzeros on first read, two graph maps compose by intersecting their runs,
and a string module builds its letter nonzeros on first read.  Each is
compared here with the eager form: the old per-level fold of a table, the
nonzeros `_graph_map` and `realize` wrote when they made a map or a module,
and the composite that joins nonzeros (`MorphismMatrix._adopt` maps, which
carry no run).
"""

import functools

import pytest

from stringar import artheory, field_for_characteristic, fields, knit, witness
from stringar.families import make_family
from stringar.modules import GraphMap, MorphismMatrix, Representation
from stringar.radical import ZERO_DEPTH, RadicalTable
from tests.conftest import LADDER, reaches
from tests.oracles import dense_maps, fold
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


# --- the radical table: runs and levels, no elimination ----------------------


@pytest.fixture
def no_elimination(monkeypatch):
    """Make every call of `fields.rref` or `reduce` fail; `Subspace`,
    `nullspace` and `entry_rank` reach them there."""
    for name in ("rref", "reduce"):
        monkeypatch.setattr(fields, name, lambda *args, name=name: pytest.fail(f"{name} called"))


def no_owner(*_):
    """Stands in for `RadicalTable._owner`, which only a map made outside the
    engine needs."""
    raise AssertionError("an entry owner map was made")


@pytest.mark.parametrize("name", NAMES)
def test_a_build_keeps_each_pair_as_its_run_levels(name, no_elimination, monkeypatch):
    """Building a source, or a column, keeps every pair it finds as a dict
    {run: level}, the identity at level 0 on the diagonal alone; it writes no
    row and makes no entry owner map."""
    monkeypatch.setattr(RadicalTable, "_owner", no_owner)
    G = _quiver(name, 0)
    for side in ("source", "target"):
        T = RadicalTable(G)
        for c in G.nodes:
            T._level(c.index) if side == "source" else T._column(c.index)
            assert T._pairs[c.index, c.index][0, 0, 1, c.module.total_dim] == 0
        for (x, y), kept in T._pairs.items():
            assert type(kept) is dict and all(type(m) is int for m in kept.values())
            assert (0 in kept.values()) == (x == y) and list(kept.values()).count(0) <= 1


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("name", NAMES)
def test_reaches_reads_the_levels_as_the_oracle_rows(name, char, monkeypatch):
    """For every pair and every n, `reaches` answers as the first row of the
    old per-level fold, and it writes no row and makes no owner map."""
    G = _quiver(name, char)
    complete = fold.table(G)
    T = RadicalTable(G)
    monkeypatch.setattr(RadicalTable, "_owner", no_owner)
    top = max(rows[0][0] for rows in complete.values()) + 1
    for x in G.nodes:
        for y in G.nodes:
            rows = complete.get((x.index, y.index), ())
            for n in range(top + 1):
                assert reaches(T, x.index, y.index, n) == (bool(rows) and rows[0][0] >= n)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_a_witness_and_the_level_queries_eliminate_nothing(name, no_elimination):
    """A ladder witness calls no `rref` or `reduce`, and makes no
    owner map: every map `depth` reads is a graph-map sum.  On its quiver,
    `depth` of each arrow map and of its `MorphismMatrix._adopt` copy, and
    `tags`, `reaches` and `profile` of every pair, call none either."""
    family, m, n = LADDER[name]
    read, depth = set(), RadicalTable.depth
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RadicalTable, "depth", lambda T, f, x, y: read.add((x.index, y.index)) or depth(T, f, x, y))
        patch.setattr(RadicalTable, "_owner", no_owner)
        w = witness(make_family(family, m=m, n=n))
    assert read
    G, T = w.quiver, RadicalTable(w.quiver)
    for a in G.arrows:
        x, y = G.nodes[a.source], G.nodes[a.target]
        assert T.depth(a.morphism, x, y) == T.depth(_joined(a.morphism), x, y) == 1
    for x in G.nodes:
        for y in G.nodes:
            T.tags(x.index, y.index, (4, 5, 6)), reaches(T, x.index, y.index, 2), T.profile(x, y)


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


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("name", NAMES)
def test_depth_reads_a_graph_map_at_its_run(name, char, monkeypatch):
    """`depth` reads a graph map's level at its run and builds no nonzeros:
    every map it is passed (by the witness on the ladder, then on
    every input each arrow map and each nonzero composite of two) gets the
    depth that reducing it against the old fold's rows gives, and that of
    its `MorphismMatrix._adopt` copy; a run-composed composite stays unbuilt."""
    depth, calls = RadicalTable.depth, []

    def recorded(T, f, x, y):
        built = _built(f)
        d = depth(T, f, x, y)
        calls.append((T, f, x, y, d))
        assert _built(f) == built
        return d

    monkeypatch.setattr(RadicalTable, "depth", recorded)
    field = field_for_characteristic(char)
    if name in LADDER:
        family, m, n = LADDER[name]
        w = witness(make_family(family, m=m, n=n), field)
        G, T = w.quiver, w.table
    else:
        [p] = _ladder_or_stress(name)
        G = knit(p, field)
        T = RadicalTable(G)
    composites = []
    for a in G.arrows:
        T.depth(a.morphism, G.nodes[a.source], G.nodes[a.target])
        for b in G.arrows_from(a.target):
            h = b.morphism.compose(a.morphism)
            if not h.is_zero():
                composites.append(h)
                T.depth(h, G.nodes[a.source], G.nodes[b.target])
    assert composites and not any(_built(h) for h in composites)
    rows = fold.table(G)
    for T, f, x, y, d in calls:
        assert fold.depth(rows.get((x.index, y.index), []), f, char) == (None if d == ZERO_DEPTH else d)
        assert depth(T, _joined(f), x, y) == d
