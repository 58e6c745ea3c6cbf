"""Maps are graph-map sums: the engine composes and measures them in run
coordinates.

`GraphMap.compose` and `GraphMap.add` work on the terms {run: coefficient}
and reduce mod p.  Checked here against the arithmetic that joins the
nonzeros of `MorphismMatrix._adopt` copies, and `depth` of every sum against
the flat boundary reader (`RadicalTable._terms` on a map with no terms), on
the ladder and S0-S7 over QQ, GF(2), GF(3) and GF(5).  A tripwire then runs
the ladder witnesses, the benchmark's audits, degrees and CLI `depth` with
every flat writer and reader made to raise.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

from stringar import audit_theorems, cli, configurations, field_for_characteristic, modules, radical, witness
from stringar.errors import MeshInconsistencyError
from stringar.families import make_family
from stringar.modules import GraphMap, MorphismMatrix
from stringar.radical import ZERO_DEPTH, RadicalTable
from tests.conftest import LADDER, W3_SOURCE
from tests.test_first_read import CHARS, NAMES, _joined, _quiver, no_owner


def _drawn(T, a, rng):
    """A seeded sum of the rad^2 basis maps of the arrow a's pair, coefficients
    drawn from -3..3, or None if all are zero."""
    x, y, field = T.nodes[a.source], T.nodes[a.target], T.field
    drawn = {r: field.of(rng.randint(-3, 3)) for g in T.layer(x, y, 2) for r in g.terms}
    drawn = {r: c for r, c in drawn.items() if c}
    return GraphMap(x.module, y.module, drawn) if drawn else None


def _negated(f):
    return GraphMap(*f.modules, {r: f.source.field.of(-c) for r, c in f.terms.items()})


def _is_plain_zero(f):
    return type(f) is MorphismMatrix and f.is_zero()


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("name", NAMES)
def test_sum_arithmetic_is_the_nonzero_join(name, char):
    """Sums of arrow maps and rad^2 basis maps, their composites along
    two-arrow paths and each mesh's r_1 l_1 + r_2 l_2: each equals, by
    position, what joining the `_adopt`ed nonzeros gives, is a `GraphMap`
    or the plain zero map, and has the boundary reader's depth.  A sum plus
    its negative, and over GF(p) p copies of it, cancel to the plain zero map,
    whose depth is ZERO_DEPTH; a sum plus that zero map is the sum itself."""
    G = _quiver(name, char)
    T, p = RadicalTable(G), G.field.characteristic
    rng = random.Random(f"sums:{name}:{char}")
    sums, checked, multi, cancelled = {}, 0, 0, 0

    def check(h, joined, x, y):
        nonlocal checked
        assert h == joined and isinstance(h, GraphMap) != _is_plain_zero(h)
        assert T.depth(h, x, y) == T.depth(_joined(h), x, y)
        checked += 1

    for a in G.arrows:
        x, y, r = G.nodes[a.source], G.nodes[a.target], _drawn(T, a, rng)
        f = sums[id(a)] = a.morphism if r is None else a.morphism.add(r)
        if r is not None:
            check(f, _joined(a.morphism).add(_joined(r)), x, y)
            multi += 1
    for a in G.arrows:
        f, x, y = sums[id(a)], G.nodes[a.source], G.nodes[a.target]
        zero = f.add(_negated(f))
        assert _is_plain_zero(zero) and T.depth(zero, x, y) == ZERO_DEPTH
        assert f.add(zero) is f
        if p:
            total = f
            for _ in range(p - 1):
                total = total.add(f)
            assert _is_plain_zero(total)
        for b in G.arrows_from(a.target):
            g, z = sums[id(b)], G.nodes[b.target]
            check(g.compose(f), _joined(g).compose(_joined(f)), x, z)
    for seq in G.meshes.values():
        if seq.alpha == 2:
            (l1, l2), (r1, r2) = seq.left_maps, seq.right_maps
            s = r1.compose(l1).add(r2.compose(l2))
            assert s == _joined(r1.compose(l1)).add(_joined(r2.compose(l2)))
            assert _is_plain_zero(s)
            cancelled += 1
    assert checked and cancelled and (multi or name in ("S0", "S1"))


def _entries(f):
    """{(vertex, row, column): (coefficient, its type)} of f's nonzeros."""
    return {(v, i, j): (a, type(a)) for v, i, j, a in f.nonzeros}


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("name", NAMES)
def test_scaled_negated_and_zero_added_sums_stay_sums(name, char, monkeypatch):
    """For each arrow map g and each basis map g of rad^2 of every pair,
    `g.scale(c)`, `g.neg()` and the plain zero map plus g are `GraphMap`s
    equal entry by entry, types included, to the same arithmetic on g's
    `_adopt`ed nonzeros; `depth` reads them with no owner map, and a nonzero
    scalar keeps g's depth.  A zero scalar gives the plain zero map."""
    G = _quiver(name, char)
    T = RadicalTable(G)
    scalars = range(1, char) if char else (2, -1, Fraction(1, 2), Fraction(-3, 2))
    maps = [(a.morphism, G.nodes[a.source], G.nodes[a.target]) for a in G.arrows]
    maps += [(g, x, y) for x in G.nodes for y in G.nodes for g in T.layer(x, y, 2)]
    monkeypatch.setattr(RadicalTable, "_owner", no_owner)
    for g, x, y in maps:
        plain, zero, depth = _joined(g), MorphismMatrix._adopt(g.source, g.target, []), T.depth(g, x, y)
        made = [(g.scale(c), plain.scale(c)) for c in scalars]
        made += [(g.neg(), plain.neg()), (zero.add(g), zero.add(plain))]
        for h, want in made:
            assert isinstance(h, GraphMap) and _entries(h) == _entries(want)
            assert T.depth(h, x, y) == depth
        assert _is_plain_zero(g.scale(char or 0))
    assert len(maps) > len(G.arrows) or name in ("S0", "S1")


@pytest.mark.parametrize("char", [0, 3])
def test_a_sum_outside_the_table_is_read_by_the_boundary_reader(char):
    """A `GraphMap` with a run the pair does not hold goes to the flat reader,
    which refuses it as a non-morphism."""
    G = _quiver("W5", char)
    T = RadicalTable(G)
    a = next(a for a in G.arrows if next(iter(a.morphism.terms))[3] > 1)
    x, y = G.nodes[a.source], G.nodes[a.target]
    [(s, t, d, k)] = a.morphism.terms
    f = GraphMap(x.module, y.module, {(s, t, d, k - 1): G.field.one()})
    with pytest.raises(MeshInconsistencyError, match="non-morphism"):
        T.depth(f, x, y)


@pytest.fixture
def no_flat(monkeypatch):
    """Make every flat writer and reader raise: `MorphismMatrix.flatten`,
    `RadicalTable._owner`, `morphism_from_flat` and `flat_offsets`."""
    def refuse(*_):
        raise AssertionError("a flat vector was written or read")

    monkeypatch.setattr(MorphismMatrix, "flatten", refuse)
    monkeypatch.setattr(RadicalTable, "_owner", refuse)
    for name in ("morphism_from_flat", "flat_offsets"):
        monkeypatch.setattr(modules, name, refuse)
        monkeypatch.setattr(radical, name, refuse)
    assert not hasattr(configurations, "morphism_from_flat")


def test_the_engine_writes_and_reads_no_flat_vector(no_flat, tmp_path):
    """The ladder witnesses, the benchmark's three audits, left and right
    degrees of every arrow of W(5) and U(3,3), and CLI `depth` run with no
    flat vector; a zero composite gets ZERO_DEPTH."""
    for family, m, n in LADDER.values():
        w = witness(make_family(family, m=m, n=n))
        assert w.depths["total"] == w.expected_depth
    for name, char in (("U3_4", 0), ("W5", 3), ("V2_3", 3)):
        fam, nums = name[0], [int(v) for v in name[1:].split("_")]
        spec = make_family(fam, n=nums[0]) if fam == "W" else make_family(fam, m=nums[0], n=nums[1])
        assert audit_theorems(spec.presentation, samples=32, field=field_for_characteristic(char)).passed
    zeros = 0
    for name in ("W5", "U3_3"):
        G = _quiver(name, 0)
        T = RadicalTable(G)
        for a in G.arrows:
            x, y = G.nodes[a.source], G.nodes[a.target]
            for side in ("left", "right"):
                d = T.degree(a.morphism, side, source=x, target=y)
                assert d.witness is None or isinstance(d.witness, GraphMap)
            for b in G.arrows_from(a.target):
                h = b.morphism.compose(a.morphism)
                if h.is_zero():
                    assert T.depth(h, x, G.nodes[b.target]) == ZERO_DEPTH
                    zeros += 1
    assert zeros
    path = tmp_path / "w3.alg"
    path.write_text(W3_SOURCE, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["depth", str(path), "e(4)", "b3", "b2 b3"]) == 0
    assert out.getvalue() == "2\n"
