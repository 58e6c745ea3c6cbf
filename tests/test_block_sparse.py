"""Morphisms kept as their nonzeros against a dense per-vertex schoolbook oracle.

A morphism keeps only its nonzeros; `blocks` writes out the blocks of the
common support of source and target, `block(v)` any vertex's.  Here every
operation is recomputed on dense blocks, one per vertex of the quiver,
empty ones included, and compared with the result.
"""

import random
import re
import pytest

from stringar import audit_theorems, field_for_characteristic, knit, witness
from stringar.errors import CompositionError
from stringar.families import make_family
from stringar.fields import Mat
from stringar.radical import RadicalTable
from stringar.modules import MorphismMatrix, compose_runs, flat_offsets, morphism_from_flat
from tests.conftest import LADDER, layer_space
from tests.morphisms import identity_morphism
from tests.oracles import dense_maps
from tests.test_stress import _ladder_or_stress

ALGEBRAS = [("W", {"n": 3}), ("U", {"m": 2, "n": 2}), ("V", {"m": 2, "n": 3})]
CHARS = [0, 2, 3]


@pytest.fixture(scope="module", params=[(f, kw, c) for f, kw in ALGEBRAS for c in CHARS],
                ids=lambda a: f"{a[0]}{''.join(map(str, a[1].values()))}-char{a[2]}")
def quiver(request):
    fam, kw, char = request.param
    return knit(make_family(fam, **kw).presentation, field_for_characteristic(char))


def _vertices(f):
    return f.source.p.quiver.vertices


def _support(source, target):
    return [v for v in source.p.quiver.vertices if source.dims[v] and target.dims[v]]


def _dense(f):
    """{vertex: rows} for every vertex, with the shape the dims give."""
    out = {}
    for v in _vertices(f):
        b = f.block(v)
        assert b.shape == (f.target.dims[v], f.source.dims[v])
        if v not in f.blocks:
            assert 0 in b.shape
        out[v] = b.rows
    return out


def _oracle_flags(f):
    field, d = f.source.field, _dense(f)
    ranks = {v: dense_maps.rank(field, d[v]) for v in d}
    src, tgt = f.source.dims, f.target.dims
    return {
        "mono": all(ranks[v] == src[v] for v in d),
        "epi": all(ranks[v] == tgt[v] for v in d),
        "invertible": all(src[v] == tgt[v] == ranks[v] for v in d),
    }


def _check_against_oracle(f, dense, c):
    field = f.source.field
    assert list(f.blocks) == _support(f.source, f.target)
    assert _dense(f) == dense
    assert f.flatten() == [x for v in _vertices(f) for r in dense[v] for x in r]
    assert f.as_dict() == {v: [[field.to_str(x) for x in r] for r in dense[v]]
                           for v in _vertices(f)}
    flags = _oracle_flags(f)
    assert (f.is_mono(), f.is_epi(), f.is_invertible()) == (
        flags["mono"], flags["epi"], flags["invertible"]
    )
    assert f.check_intertwining() == dense_maps.intertwines(f, _dense)
    assert f.is_zero() == (not any(x for v in dense for r in dense[v] for x in r))
    pairs = [
        (f.add(f.scale(c)), {v: [[field.of(x + c * x) for x in r] for r in dense[v]] for v in dense}),
        (f.scale(c), {v: [[field.of(c * x) for x in r] for r in dense[v]] for v in dense}),
        (f.neg(), {v: [[field.of(-x) for x in r] for r in dense[v]] for v in dense}),
    ]
    for got, want in pairs:
        assert list(got.blocks) == list(f.blocks)
        assert _dense(got) == want
    assert f == MorphismMatrix(f.source, f.target, {v: Mat(field, dense[v], f.source.dims[v])
                                                     for v in dense})
    zero = f.add(f.neg())
    assert zero.is_zero() and (zero == f) == f.is_zero()


def test_arrow_pairs_and_triples_match_the_dense_oracle(quiver):
    field = quiver.field
    rng = random.Random(f"sparse:{field}")
    checked = 0
    for a in quiver.arrows:
        f = a.morphism
        _check_against_oracle(f, _dense(f), field.of(rng.randint(-2, 2)))
        for b in quiver.arrows_from(a.target):
            g = b.morphism
            gf = g.compose(f)
            _check_against_oracle(gf, dense_maps.compose(g, f, _dense), field.of(rng.randint(-2, 2)))
            for c in quiver.arrows_from(b.target):
                h = c.morphism
                want = dense_maps.compose(h, gf, _dense)
                _check_against_oracle(h.compose(gf), want, field.of(rng.randint(-2, 2)))
                assert h.compose(g).compose(f) == h.compose(gf)
                checked += 1
    assert checked > 0


def test_identities_are_invertible_and_compose_to_themselves(quiver):
    for x in quiver.nodes:
        ident = identity_morphism(x.module.rep)
        assert list(ident.blocks) == _support(ident.source, ident.target)
        assert ident.is_invertible() and ident.is_mono() and ident.is_epi()
        for a in quiver.arrows_from(x.index):
            assert a.morphism.compose(ident) == a.morphism
            assert a.morphism.is_invertible() is False


def test_flat_morphisms_store_the_common_support(quiver):
    field = quiver.field
    rng = random.Random(f"flat:{field}")
    for x in quiver.nodes:
        for y in quiver.nodes:
            M, N = x.module.rep, y.module.rep
            n = flat_offsets(M, N)[1]
            vec = [field.of(rng.randint(-2, 2)) for _ in range(n)]
            f = morphism_from_flat(M, N, vec)
            assert list(f.blocks) == _support(M, N)
            assert f.flatten() == vec
            # one-entry block maps: an arrow leaving the common support can break them
            for i in range(n):
                unit = morphism_from_flat(M, N, [field.one() if j == i else field.zero()
                                                 for j in range(n)])
                assert unit.check_intertwining() == dense_maps.intertwines(unit, _dense)


def test_constructor_checks_the_shape_off_the_support():
    G = knit(make_family("W", n=3).presentation)
    f = G.arrows[0].morphism
    absent = [v for v in _vertices(f) if v not in f.blocks]
    v = absent[0]
    r, c = f.target.dims[v], f.source.dims[v]
    wrong = Mat.zeros(f.source.field, r + 1, c) if c else Mat.zeros(f.source.field, r, c + 1)
    with pytest.raises(CompositionError):
        MorphismMatrix(f.source, f.target, {**f.blocks, v: wrong})
    kept = MorphismMatrix(f.source, f.target, {**f.blocks, v: f.block(v)})
    assert list(kept.blocks) == list(f.blocks) and kept == f


def test_constructor_refuses_a_block_at_an_unknown_vertex():
    G = knit(make_family("W", n=3).presentation)
    f = G.arrows[0].morphism
    assert "zz" not in f.source.dims
    with pytest.raises(CompositionError, match="unknown vertex 'zz'"):
        MorphismMatrix(f.source, f.target, {"zz": Mat(f.source.field, [[5]], 1)})
    with pytest.raises(CompositionError, match="unknown vertex 'zz'"):
        MorphismMatrix(f.source, f.target, {**f.blocks, "zz": Mat(f.source.field, [[5]], 1)})


@pytest.mark.parametrize("chars", [(0, 3), (3, 0), (3, 5)])
def test_constructor_refuses_a_block_over_another_field(chars):
    """A block over a field other than the source's would lose its field."""
    own, other = map(field_for_characteristic, chars)
    f = knit(make_family("W", n=3).presentation, own).arrows[0].morphism
    v = next(iter(f.blocks))
    foreign = Mat(other, f.block(v).rows, f.source.dims[v])
    with pytest.raises(CompositionError, match=re.escape(f"over {other!r}, not {own!r}")):
        MorphismMatrix(f.source, f.target, {**f.blocks, v: foreign})
    same = Mat(field_for_characteristic(chars[0]), f.block(v).rows, f.source.dims[v])
    assert MorphismMatrix(f.source, f.target, {**f.blocks, v: same}) == f


def test_compose_multiplies_no_block(monkeypatch):
    """compose, of graph-map sums or of nonzeros, builds no block in the witness
    search nor in an audit, whose perturbed maps are graph-map sums.  knit composes
    nothing, so every counted call is the search's (73) or the audit's (25)."""
    composed, made = [0], []
    zeros, init, compose = Mat.zeros.__func__, Mat.__init__, MorphismMatrix.compose

    def counted_zeros(cls, field, nrows, ncols):
        made.append(("zeros", nrows, ncols))
        return zeros(cls, field, nrows, ncols)

    def counted_init(self, field, rows, ncols=None):
        made.append(("init", ncols))
        init(self, field, rows, ncols)

    def watched_compose(self, first):
        composed[0] += 1
        with monkeypatch.context() as m:
            m.setattr(Mat, "zeros", classmethod(counted_zeros))
            m.setattr(Mat, "__init__", counted_init)
            return compose(self, first)

    monkeypatch.setattr(MorphismMatrix, "compose", watched_compose)
    w = witness(make_family("W", n=5))
    assert w.depths["total"] == 8 and composed[0] == 73
    assert audit_theorems(make_family("W", n=5).presentation, samples=8).passed
    assert composed[0] == 73 + 25 and made == []


def _run_support(X, Y, run):
    """{(vertex, row, column)} of the graph map of string modules X -> Y that
    run gives; empty for None."""
    if run is None:
        return set()
    s, t, d, k = run
    return {(v, Y.basis[t + d * i][1], j) for i in range(k) for v, j in [X.basis[s + i]]}


def _positions(f):
    return {(v, i, j) for v, i, j, _ in f.nonzeros}


def _run(f):
    """The run of a one-term graph map."""
    (run,) = f.terms
    return run


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_arrow_runs_compose_as_their_morphisms(name, char):
    """Each arrow map's one run, and each mesh's left map's, gives its nonzeros
    up to sign, and the run that `modules.compose_runs` makes for a path of 2-4
    arrows has the support of the path's composite morphism, the zero one
    included; many are nonzero.  The composite joins the maps' nonzeros
    (maps with no run), as `compose` of two graph maps reads runs itself."""
    field = field_for_characteristic(char)
    signs, arrows, composites = {field.one(), field.of(-1)}, 0, 0
    for p in _ladder_or_stress(name):
        quiver = knit(p, field)
        module = [x.module for x in quiver.nodes]
        for seq in quiver.meshes.values():
            for y, f in zip(seq.middle, seq.left_maps):
                assert _positions(f) == _run_support(seq.left_term, y, _run(f))
        for a in quiver.arrows:
            f, x = a.morphism, module[a.source]
            assert _positions(f) == _run_support(x, module[a.target], _run(f))
            assert {c for *_, c in f.nonzeros} <= signs
            arrows += 1
            paths = [(a.target, f, _run(f))]
            for _ in range(3):
                longer = []
                for zi, g, run in paths:
                    for b in quiver.arrows_from(zi):
                        c = b.morphism
                        h = MorphismMatrix._adopt(c.source, c.target, c.nonzeros).compose(g)
                        r = run and compose_runs(run, _run(b.morphism))
                        assert _positions(h) == _run_support(x, module[b.target], r)
                        longer.append((b.target, h, r))
                composites += sum(r is not None for *_, r in longer)
                paths = longer
    assert arrows and composites > arrows


def _maps_to_check(quiver, rng):
    """Arrow maps, mesh maps, and arrow maps perturbed by seeded rad^2 terms."""
    field, table = quiver.field, RadicalTable(quiver)
    maps = [a.morphism for a in quiver.arrows]
    for seq in quiver.meshes.values():
        maps += seq.left_maps + seq.right_maps
    for a in quiver.arrows:
        x, y = quiver.nodes[a.source], quiver.nodes[a.target]
        for row in layer_space(table, x, y, 2).rows:
            c = field.of(rng.choice([-1, 1, 2]))
            maps.append(a.morphism.add(morphism_from_flat(x.module.rep, y.module.rep, row).scale(c)))
    return maps


def test_check_intertwining_matches_the_dense_oracle(quiver):
    """On every map of `_maps_to_check` and on each of its one-entry corruptions
    (one flat entry moved by 1), morphisms and non-morphisms alike.  Over GF(p)
    an entry moved by p, left unreduced, names the same morphism."""
    field = quiver.field
    char = field.characteristic
    maps = _maps_to_check(quiver, random.Random(f"intertwine:{field}"))
    verdicts = set()
    for f in maps:
        assert f.check_intertwining() and dense_maps.intertwines(f, _dense)
        vec = f.flatten()
        for j in range(len(vec)):
            bumped = list(vec)
            bumped[j] = field.of(bumped[j] + 1)
            g = morphism_from_flat(f.source, f.target, bumped)
            verdict = g.check_intertwining()
            assert verdict == dense_maps.intertwines(g, _dense)
            verdicts.add(verdict)
            if char:
                bumped[j] = vec[j] + char
                assert morphism_from_flat(f.source, f.target, bumped).check_intertwining()
    assert len(maps) > len(quiver.arrows) and verdicts == {True, False}
