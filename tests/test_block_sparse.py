"""Morphisms kept as their nonzeros against a dense per-vertex schoolbook oracle.

A morphism keeps only its nonzeros; `blocks` writes out the blocks of the
common support of source and target, `block(v)` any vertex's.  Here every
operation is recomputed on dense blocks, one per vertex of the quiver,
empty ones included, and compared with the result.
"""

import random
import re
from fractions import Fraction
import pytest

from stringar import audit_theorems, field_for_characteristic, hom_basis, knit, witness
from stringar.errors import CompositionError
from stringar.families import make_family
from stringar.fields import Mat
from stringar.radical import RadicalTable, _flat_compose
from stringar.modules import (
    MorphismMatrix,
    flat_offsets,
    hom_flat_dim,
    morphism_from_flat,
)
from tests.morphisms import identity_morphism
from tests.oracles import dense_maps

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
            n = hom_flat_dim(M, N)
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
    """compose joins nonzeros: in the witness search and in an audit, whose
    perturbed maps come from flat vectors, it builds no block.  knit composes
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


def _maps_to_act_with(quiver, rng):
    """Per arrow map g: Z -> Y, g itself, a scaling, every Hom(Z, Y) basis element h
    and g + h, two sparse random block maps Z -> Y (morphisms or not), and maps whose
    nonzeros list a row's entries in a set order: a non-unit entry before a unit
    one, and two unit entries.  So rows hold two or more nonzeros, non-unit
    coefficients and repeated columns, on top of the graph maps' unit rows."""
    field = quiver.field
    out = []
    for a in quiver.arrows:
        g = a.morphism
        out += [g, g.scale(field.of(rng.choice([-1, 2, 3])))]
        for h in hom_basis(g.source, g.target).basis:
            out += [h, g.add(h)]
        for _ in range(2):
            n = hom_flat_dim(g.source, g.target)
            vec = [field.of(rng.choice([0, 0, 0, 1, 1, -1, 2])) for _ in range(n)]
            out.append(morphism_from_flat(g.source, g.target, vec))
        for v in _support(g.source, g.target):
            rows, cols = g.target.dims[v], g.source.dims[v]
            if cols < 2:
                continue
            i, (k0, k1) = rng.randrange(rows), rng.sample(range(cols), 2)
            for first in {field.of(rng.choice([2, -1, 3])), field.one()} - {0}:
                nonzeros = [(v, i, k0, first), (v, i, k1, field.one())]
                out.append(MorphismMatrix._adopt(g.source, g.target, nonzeros))
    return out


def _row_orders(g):
    """{(vertex, row): the coefficients of the row's nonzeros, in g.nonzeros order}."""
    rows = {}
    for v, i, _, a in g.nonzeros:
        rows.setdefault((v, i), []).append(a)
    return rows.values()


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("family, kw", [("W", {"n": 3}), ("U", {"m": 2, "n": 2})])
def test_flat_compose_is_compose_in_flat_coordinates(family, kw, char):
    """The table's flat composite is the flattened composite of morphisms, on
    both sides: source side flatten(g o morphism_from_flat(M, g.source, vec)),
    target side flatten(morphism_from_flat(g.target, M, vec) o g), the zero
    ones left out, for seeded random vectors, Fractions included over QQ.
    The maps g include rows of two nonzeros, rows whose unit entry is not
    their first nonzero and rows with two unit entries."""
    field = field_for_characteristic(char)
    quiver = knit(make_family(family, **kw).presentation, field)
    rng = random.Random(f"flat-compose:{family}:{char}")

    def entry():
        if char or rng.random() < 0.5:
            return field.of(rng.randint(-4, 4))
        return field.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    maps = _maps_to_act_with(quiver, rng)
    rows = [r for g in maps for r in _row_orders(g)]
    assert any(len(r) > 1 for r in rows), "no map with a row of two nonzeros"
    assert any(r[0] != 1 and 1 in r[1:] for r in rows) or char == 2, "no late unit entry"
    assert any(r.count(1) > 1 for r in rows), "no row with two unit entries"
    checked = {True: 0, False: 0}
    for g in maps:
        for x in quiver.nodes:
            M = x.module.rep
            for source in (True, False):
                near, far = (g.source, g.target) if source else (g.target, g.source)
                vecs = [[entry() for _ in range(hom_flat_dim(M, near))] for _ in range(3)]
                if source:
                    want = [g.compose(morphism_from_flat(M, near, v)).flatten() for v in vecs]
                else:
                    want = [morphism_from_flat(near, M, v).compose(g).flatten() for v in vecs]
                offsets = flat_offsets(M, near), flat_offsets(M, far)
                got = _flat_compose(g, M, vecs, *offsets, source)
                assert got == [w for w in want if any(w)]
                checked[source] += len(got)
    assert min(checked.values()) > 100


def _maps_to_check(quiver, rng):
    """Arrow maps, mesh maps, and arrow maps perturbed by seeded rad^2 terms."""
    field, table = quiver.field, RadicalTable(quiver)
    maps = [a.morphism for a in quiver.arrows]
    for seq in quiver.meshes.values():
        maps += seq.left_maps + seq.right_maps
    for a in quiver.arrows:
        x, y = quiver.nodes[a.source], quiver.nodes[a.target]
        for row in table.layer(x, y, 2).rows:
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
