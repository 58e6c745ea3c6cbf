"""Seeded randomized cross-validation over generated string algebras.

Random quivers are trimmed to the two-arrow bounds and relations are added
greedily until the unique-continuation conditions hold; band-free instances
then get the full treatment: knitting (which itself verifies every mesh),
surgery-vs-DTr agreement on every non-projective node, and on the smaller
ones the radical-layer cross-check; over GF(2) and GF(3) the same
algebras get the surgery-vs-DTr check and their layer dimensions are
compared with those over QQ.
"""

import functools
import random

import pytest

from stringar import (
    RadicalTable,
    field_for_characteristic,
    find_bands,
    has_band,
    is_isomorphic,
    knit,
    make_family,
    tau,
    tau_oracle,
    validate_string_algebra,
)
from stringar.presentation import AlgebraPresentation, Arrow, Quiver, has_unbounded_paths
from tests.conftest import LADDER


def _random_string_algebra(rng, nv, na):
    verts = [str(i) for i in range(1, nv + 1)]
    arrows = []
    for i in range(na):
        s, t = rng.choice(verts), rng.choice(verts)
        if sum(1 for a in arrows if a.source == s) >= 2:
            continue
        if sum(1 for a in arrows if a.target == t) >= 2:
            continue
        arrows.append(Arrow(f"r{i}", s, t))
    q = Quiver(verts, arrows)
    rels = []

    def add(rel):
        # a relation listed twice means path_in_ideal missed it; the loop below would never end
        assert rel not in rels, f"path_in_ideal missed the relation {rel}"
        rels.append(rel)
        return AlgebraPresentation(q, rels)

    p = AlgebraPresentation(q, rels)
    changed = True
    while changed:
        changed = False
        for b in arrows:
            preds = [
                g for g in q.arrows_into(b.source)
                if not p.path_in_ideal((g.label, b.label))
            ]
            if len(preds) > 1:
                p = add((rng.choice(preds).label, b.label))
                changed = True
        for g in arrows:
            succs = [
                b for b in q.arrows_from(g.target)
                if not p.path_in_ideal((g.label, b.label))
            ]
            if len(succs) > 1:
                p = add((g.label, rng.choice(succs).label))
                changed = True
    for _ in range(rng.randint(0, 2)):
        cands = [
            (a.label, b.label)
            for a in arrows
            for b in q.arrows_from(a.target)
            if not p.path_in_ideal((a.label, b.label))
        ]
        if cands:
            p = add(rng.choice(cands))
    return p


def random_presentations(seed, count):
    """Small presentations, string algebras or not: 1-5 vertices, 2-6 arrows.

    Half come from the generator above; the other half keep up to four
    random relations of length 2 or 3 as drawn, so some fail a condition.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv, na = rng.randint(1, 5), rng.randint(2, 6)
        if rng.random() < 0.5:
            out.append(_random_string_algebra(rng, nv, na))
            continue
        verts = [str(i) for i in range(1, nv + 1)]
        q = Quiver(verts, [Arrow(f"a{i}", rng.choice(verts), rng.choice(verts)) for i in range(na)])
        rels = []
        for _ in range(rng.randint(0, 4)):
            path = [rng.choice(q.arrows)]
            for _ in range(rng.randint(1, 2)):
                nxt = q.arrows_from(path[-1].target)
                if nxt:
                    path.append(rng.choice(nxt))
            if len(path) > 1:
                rels.append(tuple(a.label for a in path))
        out.append(AlgebraPresentation(q, rels))
    return out


@functools.lru_cache(maxsize=None)
def _generated_string_algebras(count):
    """The string algebras among the first `count` presentations of the seeded generator."""
    return tuple(
        p for p in random_presentations(20261018, count) if validate_string_algebra(p).is_string_algebra
    )


def test_unbounded_paths_imply_a_band():
    """A string algebra with unbounded nonzero paths has a relation-free cycle,
    which is a band, so `knit` needs no finite-dimension check after `has_band`."""
    unbounded = [p for p in _generated_string_algebras(3000) if has_unbounded_paths(p)]
    assert len(unbounded) > 100
    assert all(has_band(p) for p in unbounded)


def test_window_graph_band_test_agrees_with_band_search():
    algebras = _generated_string_algebras(800)[:400]
    banded = [has_band(p) for p in algebras]
    assert 100 < sum(banded) < 300
    assert banded == [bool(find_bands(p, 8)) for p in algebras]


def _relation_free_paths(p, length):
    """Every relation-free direct path with `length` arrows, grown arrow by arrow."""
    paths = [(a.label,) for a in p.quiver.arrows]
    for _ in range(length - 1):
        paths = [
            path + (b.label,)
            for path in paths
            for b in p.quiver.arrows_from(p.quiver.arrow(path[-1]).target)
            if not p.path_in_ideal(path + (b.label,))
        ]
    return paths


def test_unbounded_paths_agree_with_a_long_path():
    """Paths are unbounded iff one is longer than the window graph can hold without
    a repeated window: (number of windows) + (window length) arrows."""
    algebras = _generated_string_algebras(800)
    found = []
    for p in algebras:
        w = max(p.max_relation_length, 2) - 1
        found.append(bool(_relation_free_paths(p, len(_relation_free_paths(p, w)) + w)))
    assert 50 < sum(found) < len(algebras)
    assert found == [has_unbounded_paths(p) for p in algebras]


@functools.lru_cache(maxsize=None)
def _band_free_algebras():
    """The first eight band-free string algebras of the seeded generator."""
    rng = random.Random(20260809)
    out = []
    trial = 0
    while len(out) < 8 and trial < 60:
        trial += 1
        p = _random_string_algebra(rng, rng.randint(3, 5), rng.randint(3, 6))
        if validate_string_algebra(p).is_string_algebra and not has_band(p):
            out.append(p)
    assert len(out) == 8
    return tuple(out)


def _ladder_or_stress(name):
    """The presentations a name stands for: a LADDER entry, Si (`_band_free_algebras()[i]`)
    or all of S0-S7."""
    if name in LADDER:
        family, m, n = LADDER[name]
        return [make_family(family, m=m, n=n).presentation]
    if name == "S0-S7":
        return _band_free_algebras()
    return [_band_free_algebras()[int(name[1:])]]


@functools.lru_cache(maxsize=None)
def _profiles_over_qq(i):
    T = RadicalTable(knit(_band_free_algebras()[i]))
    return {(x.text, y.text): T.profile(x, y).dims for x in T.nodes for y in T.nodes}


def test_random_band_free_algebras_agree_with_oracle():
    for p in _band_free_algebras():
        G = knit(p)  # every mesh is verified during knitting
        for n in G.nodes:
            if n.projective:
                continue
            assert is_isomorphic(tau(p, n.module).rep, tau_oracle(p, n.module)), n.text
        if len(G.nodes) <= 14:
            assert RadicalTable(G).layers_equal_to_span()


@pytest.mark.parametrize("char", [2, 3])
def test_random_band_free_algebras_over_prime_fields(char):
    """Surgery against DTr over GF(p), and layer dimensions equal to those over QQ.

    The span check over GF(p) is `test_recursion_equals_span_over_prime_fields`.
    """
    field = field_for_characteristic(char)
    for i, p in enumerate(_band_free_algebras()):
        G = knit(p, field)
        for n in G.nodes:
            if n.projective:
                continue
            translate = tau(p, n.module, field).rep
            assert is_isomorphic(translate, tau_oracle(p, n.module, field)), n.text
        T = RadicalTable(G)
        dims = {(x.text, y.text): T.profile(x, y).dims for x in T.nodes for y in T.nodes}
        assert dims == _profiles_over_qq(i)
