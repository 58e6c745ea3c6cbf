"""The depth-tagged radical engine against independent computations.

Depths and layer dimensions are checked against the definitional recursion
(`RadicalTable._recursion_layers`, built on solved Hom spaces), and the
answers over GF(2) and GF(3) against those over QQ.  Algebras are named by
their `make_family` parameters.
"""

import functools
import itertools
import random
import re

import pytest

from stringar import (
    audit_theorems,
    compose_chain,
    field_for_characteristic,
    has_band,
    hom_basis,
    knit,
    validate_string_algebra,
    witness,
)
from stringar import radical
from stringar.errors import MeshInconsistencyError
from stringar.families import make_family
from stringar.modules import MorphismMatrix
from stringar.radical import ZERO_DEPTH, RadicalTable
from tests.conftest import LADDER, layer_space, pair_rows, table_rows
from tests.morphisms import identity_morphism
from tests.oracles import dense_maps, fold, gauss_jordan
from tests.test_stress import _band_free_algebras, _ladder_or_stress, random_presentations

FAMILIES = {"W3": ("W", None, 3), "U2_2": ("U", 2, 2), "V2_3": ("V", 2, 3)}


def _spec(name):
    family, m, n = FAMILIES[name]
    return make_family(family, m=m, n=n)


@functools.lru_cache(maxsize=None)
def _table(name, char):
    return RadicalTable(knit(_spec(name).presentation, field_for_characteristic(char)))


def _profiles(table):
    return {
        (x.text, y.text): table.profile(x, y).dims for x in table.nodes for y in table.nodes
    }


def test_witness_w3_over_gf2():
    w = witness(_spec("W3"), field_for_characteristic(2))
    assert (len(w.quiver.nodes), len(w.quiver.arrows)) == (12, 16)
    assert w.depths["total"] == 6


def test_audit_u22_over_gf2():
    report = audit_theorems(_spec("U2_2").presentation, field=field_for_characteristic(2))
    assert report.passed


@pytest.mark.parametrize("char", [2, 3])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_profiles_agree_with_char_zero(name, char):
    assert _profiles(_table(name, char)) == _profiles(_table(name, 0))


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_layer_zero_is_the_solved_hom_space(name, char):
    T = _table(name, char)
    for x in T.nodes:
        for y in T.nodes:
            dim = hom_basis(x.module.rep, y.module.rep).dimension
            assert layer_space(T, x, y, 0).dim == T.profile(x, y).dims[0] == dim


def _composites(quiver):
    """(source, target, composite) for every path of one to three arrows."""
    out = []
    paths = [(a,) for a in quiver.arrows]
    for _ in range(3):
        out += [
            (quiver.nodes[p[0].source], quiver.nodes[p[-1].target],
             compose_chain([a.morphism for a in p]))
            for p in paths
        ]
        paths = [p + (b,) for p in paths for b in quiver.arrows_from(p[-1].target)]
    return out


@pytest.mark.parametrize("name", ["W3", "U2_2"])
def test_depth_matches_the_recursion(name):
    """Composites, and seeded sums of them and of a solved Hom basis.

    The Hom basis mixes deep and shallow layers (composites of at most three
    arrows reach neither the identity nor the deepest rows).
    """
    T = _table(name, 0)
    layers = list(itertools.islice(T._recursion_layers(), T.nilpotency + 1))
    rng = random.Random(f"depth:{name}")
    by_pair = {}
    for x, y, f in _composites(T.quiver):
        by_pair.setdefault((x, y), []).append(f)
    checked = 0
    for (x, y), fs in by_pair.items():
        terms = fs + hom_basis(x.module.rep, y.module.rep).basis
        sums = []
        for _ in range(4):
            g = terms[0].scale(T.field.of(rng.randint(-2, 2)))
            for f in terms[1:]:
                g = g.add(f.scale(T.field.of(rng.randint(-2, 2))))
            sums.append(g)
        for f in fs + sums:
            vec = f.flatten()
            inside = [n for n, spaces in enumerate(layers)
                      if spaces[(x.index, y.index)].contains(vec)]
            want = ZERO_DEPTH if not any(vec) else max(inside)
            assert T.depth(f, x, y) == want
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", ["W3", "U2_2"])
def test_profile_counts_the_layers(name):
    T = _table(name, 0)
    for x in T.nodes:
        for y in T.nodes:
            dims = T.profile(x, y).dims
            assert len(dims) == T.nilpotency + 1
            assert dims == [layer_space(T, x, y, n).dim for n in range(len(dims))]
    # the nilpotency index is the first layer that is 0 for every pair
    assert any(T.profile(x, y).dims[-2] for x in T.nodes for y in T.nodes)


def test_engine_solves_no_hom_space(monkeypatch):
    def refuse(*_):
        raise AssertionError("the engine must not solve Hom spaces")

    monkeypatch.setattr(radical, "hom_basis", refuse)
    monkeypatch.setattr(radical, "end_radical", refuse)
    G = knit(_spec("U2_2").presentation)
    T = RadicalTable(G)
    a = G.arrows[0]
    x, y = G.nodes[a.source], G.nodes[a.target]
    assert T.depth(a.morphism, x, y) == 1
    assert T.profile(x, y).dims[1] == layer_space(T, x, y, 1).dim
    for side in ("left", "right"):
        T.degree(a.morphism, side, source=x, target=y)


@pytest.mark.parametrize("char", [0, 3])
def test_table_build_builds_no_composite_morphism(monkeypatch, char):
    """The table composes the arrow maps' runs: no MorphismMatrix.compose, no
    morphism_from_flat and no MorphismMatrix.flatten while its sources and
    columns are built; flat vectors are written when a pair's rows are.  What
    it builds is pinned by the digests of test_pinned_outputs."""
    G = knit(_spec("V2_3").presentation, field_for_characteristic(char))

    def refuse(*_):
        raise AssertionError("the build made a morphism or a flat vector of one")

    with monkeypatch.context() as m:
        m.setattr(MorphismMatrix, "compose", refuse)
        m.setattr(MorphismMatrix, "flatten", refuse)
        m.setattr(radical, "morphism_from_flat", refuse)
        T = RadicalTable(G)
        for y in G.nodes:
            T._column(y.index)
        table_rows(T)  # builds every source
        assert len(T._levels) == len(T._columns) == len(G.nodes) and T.nilpotency > 2


@pytest.mark.parametrize("char", [2, 3])
@pytest.mark.parametrize("name", [*LADDER, "S0", "S1", "S3", "S6", "S7"])
def test_recursion_equals_span_over_prime_fields(name, char):
    """The recursion's end_radical is exact in every characteristic, also
    where p divides dim M; S2, S4 and S5 take longer and run outside tier-1."""
    [p] = _ladder_or_stress(name)
    quiver = knit(p, field_for_characteristic(char))
    assert RadicalTable(quiver).layers_equal_to_span()


def test_cross_check_sees_a_wrong_tag():
    T = RadicalTable(knit(_spec("W3").presentation))
    assert T.layers_equal_to_span()
    levels = next(levels for levels in T._pairs.values() if max(levels.values()) > 1)
    run = max(levels, key=levels.get)
    levels[run] -= 1
    assert not T.layers_equal_to_span()


def _non_morphism(f):
    """f with its nonzeros at one vertex doubled, if that breaks intertwining; else None."""
    field = f.source.field
    for v in dict.fromkeys(w for w, *_ in f.nonzeros):
        g = MorphismMatrix._adopt(f.source, f.target, [
            (w, i, j, field.of(2 * a) if w == v else a) for w, i, j, a in f.nonzeros])
        if not g.check_intertwining():
            return g
    return None


def test_depth_runs_the_intertwining_body_on_a_map_with_no_verdict(monkeypatch):
    """A map made outside knit carries no verdict, so `depth` rejects a
    non-morphism through `_intertwines`, which builds the action indexes it
    reads on first read."""
    T = _table("W3", 3)
    field, arrows = T.field, T.quiver.arrows

    def dense(f):
        return {v: f.block(v).rows for v in f.source.p.quiver.vertices}

    def doubled(f, v):
        return MorphismMatrix._adopt(f.source, f.target, [
            (w, i, j, field.of(2 * c) if w == v else c) for w, i, j, c in f.nonzeros])

    a, bad = next((a, g) for a in arrows for v, *_ in a.morphism.nonzeros
                  for g in [doubled(a.morphism, v)] if not dense_maps.intertwines(g, dense))
    assert not any("actions" in vars(r) for r in (bad.source, bad.target))
    checked, body = [], MorphismMatrix._intertwines
    monkeypatch.setattr(MorphismMatrix, "_intertwines", lambda f: checked.append(f) or body(f))
    with pytest.raises(MeshInconsistencyError, match="depth of a non-morphism"):
        T.depth(bad, T.nodes[a.source], T.nodes[a.target])
    assert checked == [bad] and bad._verdict is False
    assert "actions" in vars(bad.source) and "actions" in vars(bad.target)


def test_depth_rejects_a_non_morphism():
    T = _table("W3", 0)
    a = next(a for a in T.quiver.arrows if _non_morphism(a.morphism) is not None)
    bad = _non_morphism(a.morphism)
    assert not bad.is_zero()
    x, y = T.nodes[a.source], T.nodes[a.target]
    with pytest.raises(MeshInconsistencyError, match="depth of a non-morphism"):
        T.depth(bad, x, y)


def test_depth_rejects_the_nodes_of_another_pair(monkeypatch):
    """Each arrow map of W(3) read with the nodes of another arrow raises
    ValueError before the table is read, from `depth` and from `degree`
    through it."""
    T = _table("W3", 0)
    monkeypatch.setattr(RadicalTable, "_terms", None)  # any read fails with TypeError
    arrows = T.quiver.arrows
    pairs = [(a, b) for a in arrows for b in arrows if (a.source, a.target) != (b.source, b.target)]
    assert len(pairs) == 240
    for a, b in pairs:
        x, y = T.nodes[b.source], T.nodes[b.target]
        with pytest.raises(ValueError, match="not a map"):
            T.depth(a.morphism, x, y)
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="not a map"):
                T.degree(a.morphism, side, source=x, target=y)


def test_a_corrupted_arrow_map_fails_at_build():
    """A non-morphism, and a morphism that knit did not make, which has no run."""
    for corrupt, error in [(_non_morphism, "is not a morphism"),
                           (lambda f: f.scale(1), "has no run")]:
        G = knit(_spec("U2_2").presentation)
        arrow = next(a for a in G.arrows if _non_morphism(a.morphism) is not None)
        arrow.morphism = corrupt(arrow.morphism)
        name = f"arrow {G.nodes[arrow.source].text} -> {G.nodes[arrow.target].text}"
        with pytest.raises(MeshInconsistencyError, match=re.escape(f"{name} {error}")):
            RadicalTable(G)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_first_row_carries_the_largest_tag(name):
    """`reaches` reads one row per pair; that is sound only under this invariant."""
    family, m, n = LADDER[name]
    table = RadicalTable(knit(make_family(family, m=m, n=n).presentation))
    for rows in table_rows(table).values():
        assert rows and rows[0][0] == max(t for t, _, _ in rows)
    for x in table.nodes:
        for y in table.nodes:
            dims = table.profile(x, y).dims
            assert [table.reaches(x.index, y.index, k) for k in range(len(dims))] == [
                d > 0 for d in dims
            ]


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_sources_built_in_any_order_give_the_complete_table(name, char):
    """Queries read some sources in a shuffled order; each builds its source
    only, keeps every pair of it, and the rows `_rows` reads for each pair of
    a built source equal those of a table built in full."""
    family, m, n = LADDER[name]
    quiver = knit(make_family(family, m=m, n=n).presentation, field_for_characteristic(char))
    complete = table_rows(RadicalTable(quiver))
    T = RadicalTable(quiver)
    assert T._levels == {} and T._pairs == {}
    rng = random.Random(f"lazy:{name}:{char}")
    order = [x.index for x in T.nodes]
    rng.shuffle(order)
    queried = order[: max(2, len(order) // 3)]
    for k, xi in enumerate(queried):
        x, y = T.nodes[xi], rng.choice(T.nodes)
        if k % 3 == 0:
            T.reaches(xi, y.index, 1)
        elif k % 3 == 1:
            T.layer(x, y, 1)
        else:
            T.depth(identity_morphism(x.module.rep), x, x)
        assert set(T._levels) == set(queried[: k + 1])
        assert set(T._pairs) == {key for key in complete if key[0] in T._levels}
        for key in list(T._pairs):
            assert pair_rows(T, *key) == complete[key]
    assert table_rows(T) == complete
    assert set(T._levels) == {x.index for x in T.nodes}


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", [*LADDER, *(f"S{i}" for i in range(8))])
def test_columns_equal_the_source_build(name, char):
    """T_m(x, y) is the span of the composites of m arrows from either end and
    is kept in RREF, so building every column keeps the pairs of building
    every source, and `_rows` reads the same rows, entry types included."""
    [p] = _ladder_or_stress(name)
    quiver = knit(p, field_for_characteristic(char))
    complete = table_rows(RadicalTable(quiver))
    T = RadicalTable(quiver)
    for y in T.nodes:
        T._column(y.index)
    assert T._levels == {} and T._columns == {y.index for y in T.nodes}
    assert set(T._pairs) == set(complete)
    assert {k: repr(pair_rows(T, *k)) for k in complete} == {k: repr(rows) for k, rows in complete.items()}


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_sources_and_columns_built_in_any_order_give_the_complete_table(name, char):
    """Half of all sources and columns, built shuffled and interleaved, keep
    exactly their pairs, and `_rows` reads the complete table's rows of each."""
    [p] = _ladder_or_stress(name)
    quiver = knit(p, field_for_characteristic(char))
    complete = table_rows(RadicalTable(quiver))
    T = RadicalTable(quiver)
    builds = [(x.index, side) for x in T.nodes for side in ("source", "target")]
    random.Random(f"ends:{name}:{char}").shuffle(builds)
    for xi, side in builds[: len(builds) // 2]:
        T._level(xi) if side == "source" else T._column(xi)
        built = {k for k in complete if k[0] in T._levels or k[1] in T._columns}
        assert set(T._pairs) == built
        assert all(pair_rows(T, *k) == complete[k] for k in built)
    assert T._columns and table_rows(T) == complete


@pytest.mark.parametrize("char", [0, 2])
def test_a_left_degree_builds_the_columns_of_its_ends(monkeypatch, char):
    """A left degree of f: x -> y reads the pairs (z, x) and (z, y), so it
    builds the columns x and y, the source x (depth) and the projective sources
    (nilpotency), each once, and answers as a table built in full, which
    builds no column for it."""
    built, build = [], RadicalTable._build

    def recorded(self, xi, side):
        built.append((xi, side))
        return build(self, xi, side)

    field = field_for_characteristic(char)
    for p in _ladder_and_stress():
        G = knit(p, field)
        projective = {(x.index, "source") for x in G.nodes if x.projective}
        complete = RadicalTable(G)
        table_rows(complete)
        for a in G.arrows[:3]:
            x, y = G.nodes[a.source], G.nodes[a.target]
            T = RadicalTable(G)
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(RadicalTable, "_build", recorded)
                d = T.degree(a.morphism, "left", source=x, target=y)
                want = projective | {(a.source, "source"), (a.source, "target"), (a.target, "target")}
                assert len(built) == len(want) and set(built) == want
                e = complete.degree(a.morphism, "left", source=x, target=y)
                assert len(built) == len(want)
            assert (d.value, d.witness_node, d.witness) == (e.value, e.witness_node, e.witness)


def test_errors_of_a_source_raise_from_the_query_that_builds_it():
    """The filtration limit and the identity check run per source and per
    column: a query that reads one raises them, and it stays unbuilt.  A left
    degree builds its columns after the sources that depth and nilpotency read.
    A loop arrow on x whose run fixes x's first position puts the identity in
    the radical."""
    G = knit(_spec("W3").presentation)
    T = RadicalTable(G)
    a = G.arrows[0]
    f, x, y = a.morphism, G.nodes[a.source], G.nodes[a.target]
    limit, T._limit = T._limit, 0
    with pytest.raises(MeshInconsistencyError, match="radical filtration does not terminate"):
        T.reaches(x.index, x.index)
    assert x.index not in T._levels and T._pairs == {}
    message = re.escape(f"the identity of {x.text} lies in the radical")
    loop = (x.index, (0, 0, 1, 1))
    for cut, looped, error in ((0, False, "radical filtration does not terminate"),
                               (limit, True, message)):
        T = RadicalTable(G)
        T.depth(f, x, y), T.nilpotency
        T._limit, kept = cut, dict(T._pairs)
        if looped:
            T._in[x.index].append(loop)  # read by the column x only
        with pytest.raises(MeshInconsistencyError, match=error):
            T.degree(f, "left", source=x, target=y)
        assert T._columns == set() and T._pairs == kept
    T = RadicalTable(G)
    T._out[x.index].append(loop)
    with pytest.raises(MeshInconsistencyError, match=message):
        T.depth(f, x, y)
    assert T._levels == {} and T._pairs == {}


def test_the_table_checks_only_the_arrows_that_knit_left_unchecked(monkeypatch):
    """Every knitted arrow is a graph map that carries its verdict, the mesh
    right maps and the standard arrows at projectives alike; so the table
    runs the intertwining body for no arrow, and reads a verdict for each."""
    G = knit(make_family("W", n=12).presentation)
    checked = []
    body = MorphismMatrix._intertwines

    def recorded(f):
        checked.append(f)
        return body(f)

    monkeypatch.setattr(MorphismMatrix, "_intertwines", recorded)
    RadicalTable(G)
    at_projectives = [a.morphism for a in G.arrows if G.nodes[a.target].projective]
    assert 0 < len(at_projectives) < len(G.arrows)
    assert checked == [] and all(a.morphism._verdict is True for a in G.arrows)


@pytest.mark.parametrize("char", [0, 3])
def test_level_rows_are_the_rref_of_their_span(char):
    """Two independent vectors leave two echelon rows that are not yet reduced,
    so the old fold's level `rref` (`tests/oracles/fold.py`) must clear above
    each pivot to give the Gauss-Jordan RREF; one vector is only scaled."""
    field = field_for_characteristic(char)
    vecs = [[2, 4, 1, 0], [1, 1, 1, 1]]
    cases = [vecs, vecs + [[3, 5, 2, 1]], [[0, 2, 0, 0], [0, 1, 0, 0]], [[0, 2, 1, 0]],
             [[0, 0, 0, 0]]]
    spans = [fold.rref(case, field) for case in cases]
    assert spans == [gauss_jordan.rref([list(v) for v in case], field) for case in cases]
    assert spans[1] == spans[0] and spans[2] == ([1], [[0, 1, 0, 0]]) and spans[4] == ([], [])


@pytest.mark.parametrize("char", [0, 2, 3])
def test_knitted_levels_of_two_rows_are_rref(monkeypatch, char):
    """S3 has levels T_m(x, y) of dimension 2: each level the old fold
    (`tests/oracles/fold.py`) puts in RREF is the RREF basis of its span, as
    Gauss-Jordan gives it."""
    field = field_for_characteristic(char)
    span = fold.rref
    dims = []

    def checked(vecs, field):
        pivots, rows = span(vecs, field)
        assert (pivots, rows) == gauss_jordan.rref([list(v) for v in vecs], field)
        dims.append(len(rows))
        return pivots, rows

    monkeypatch.setattr(fold, "rref", checked)
    assert fold.table(knit(_band_free_algebras()[3], field))
    assert max(dims) >= 2


def _ladder_and_stress():
    """The ladder's presentations, then S0-S7."""
    ladder = [make_family(f, m=m, n=n).presentation for f, m, n in LADDER.values()]
    return ladder + list(_band_free_algebras())


@functools.lru_cache(maxsize=None)
def _shortcut_algebras():
    """The ladder, S0-S7 and the band-free string algebras among the first 300
    seeded presentations."""
    generated = [
        p for p in random_presentations(20261018, 300)
        if validate_string_algebra(p).is_string_algebra and not has_band(p)
    ]
    return tuple(_ladder_and_stress() + generated)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_queries_build_only_the_projective_sources_and_their_own(char):
    """rad^m is an ideal and a projective cover is onto, so the deepest level
    sits at a projective source: `nilpotency` builds those alone and equals
    1 + the deepest level of every source.  `profile(x, y)` adds x, and a
    right degree of f: x -> y adds y and x."""
    field = field_for_characteristic(char)
    algebras = _shortcut_algebras()
    assert len(algebras) == 98
    for p in algebras:
        G = knit(p, field)
        projective = {x.index for x in G.nodes if x.projective}
        assert len(projective) == len(p.quiver.vertices)
        T = RadicalTable(G)
        nilpotency = T.nilpotency
        assert set(T._levels) == projective
        table_rows(T)  # builds every source
        assert nilpotency == 1 + max(T._levels.values())
        for x, y in ((G.nodes[0], G.nodes[-1]), (G.nodes[-1], G.nodes[0])):
            T = RadicalTable(G)
            assert T.profile(x, y).dims[nilpotency] == 0
            assert set(T._levels) == projective | {x.index}
        for a in G.arrows[:3]:
            T = RadicalTable(G)
            T.degree(a.morphism, "right", source=G.nodes[a.source], target=G.nodes[a.target])
            assert set(T._levels) == projective | {a.source, a.target}


def _sectional_paths(quiver, longest):
    """Every path of 2..longest arrows with tau(X_{i+2}) != X_i, as arrow lists."""
    paths = [[a] for a in quiver.arrows]
    for _ in range(longest - 1):
        paths = [
            path + [b]
            for path in paths
            for b in quiver.arrows_from(path[-1].target)
            if quiver.tau_of(b.target) != path[-1].source
        ]
        yield from paths


@pytest.mark.parametrize("char", [0, 2, 3])
def test_sectional_paths_have_their_length_as_depth(char):
    """A composite of irreducible maps along a sectional path of k arrows lies
    in rad^k and not in rad^{k+1} (Igusa-Todorov, J. Algebra 89, 1984)."""
    field = field_for_characteristic(char)
    seen = 0
    for p in _ladder_and_stress():
        G = knit(p, field)
        T = RadicalTable(G)
        for path in _sectional_paths(G, 6):
            f = compose_chain([a.morphism for a in path])
            depth = T.depth(f, G.nodes[path[0].source], G.nodes[path[-1].target])
            assert depth == len(path), [G.nodes[a.source].text for a in path]
            seen += 1
    assert seen == 1965


def _path_lengths(quiver, xi, longest):
    """node index -> the lengths 0..longest of the AR-quiver paths to it from
    the node xi, walked over `quiver.arrows_from`."""
    lengths, ends = {}, {xi}
    for m in range(longest + 1):
        for yi in ends:
            lengths.setdefault(yi, set()).add(m)
        ends = {a.target for zi in ends for a in quiver.arrows_from(zi)}
    return lengths


@pytest.mark.parametrize("char", [0, 2, 3])
def test_tags_are_path_lengths_and_the_path_test_keeps_them(char):
    """Every tag of a pair (x, y) is 0 with x = y or the length of an AR-quiver
    path from x to y, so `tags(x, y, among)`, which builds nothing for a pair
    that ends no path of a length in among, is the pair's tags in among."""
    field = field_for_characteristic(char)
    skipped = 0
    for p in _shortcut_algebras():
        G = knit(p, field)
        T = RadicalTable(G)
        stored = table_rows(T)
        longest = max(t for rows in stored.values() for t, _, _ in rows)
        for x in G.nodes:
            lengths = _path_lengths(G, x.index, longest)
            for y in G.nodes:
                tags = {t for t, _, _ in stored.get((x.index, y.index), ())}
                paths = lengths.get(y.index, set())
                assert tags <= paths, (p.name, x.text, y.text, tags, paths)
                for among in ((4, 5, 6), tuple(range(8))):
                    assert T.tags(x.index, y.index, among) == tags & set(among)
                    skipped += paths.isdisjoint(among)
    assert skipped > 0
