import json

import pytest

from stringar import (
    compose_chain,
    end_radical,
    enumerate_strings,
    hom_basis,
    is_isomorphic,
    realize,
    standard_module,
    walk_from_text,
    walk_to_text,
)
from stringar.families import make_family
from stringar.fields import Mat, field_for_characteristic
from stringar.modules import Representation, _maximal_path
from stringar.presentation import _first_factor
from stringar.strings import walk_vertices
from tests.conftest import LADDER
from tests.morphisms import identity_morphism, zero_morphism
from tests.test_boundary import _deadline
from tests.test_stress import _ladder_or_stress


def test_realize_trivial_simple(w3):
    M = realize(w3, walk_from_text("e(2)"))
    assert M.rep.dim_vector() == (0, 1, 0, 0)
    assert M.total_dim == 1


def test_realize_p2_path_basis(w3):
    M = realize(w3, walk_from_text("b2 b3"))
    assert M.rep.dim_vector() == (0, 1, 1, 1)
    P2 = standard_module(w3, "2", "projective")
    assert M.word == P2.word


def test_realize_p1_dims(w3):
    M = standard_module(w3, "1", "projective")
    assert M.rep.dim_vector() == (2, 2, 0, 0)
    assert walk_to_text(M.word.walk) == "b1^- a b1"


def _product(a, b, ncols):
    """The schoolbook product of two lists of rows, b's of length ncols."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(ncols)] for row in a]


def test_realize_total_dim_is_length_plus_one(w3, u22):
    for p in (w3, u22):
        for sw in enumerate_strings(p):
            M = realize(p, sw)
            assert M.total_dim == len(sw.walk) + 1
            for rel in p.relations:  # each relation acts as zero, first arrow first
                first = M.rep.maps[rel[0]]
                action = first.rows
                for label in rel[1:]:
                    action = _product(M.rep.maps[label].rows, action, first.ncols)
                assert not any(map(any, action))


def test_realize_inverse_word_isomorphic(w3):
    M = realize(w3, walk_from_text("b2 b3"))
    N = realize(w3, walk_from_text("b3^- b2^-"))
    assert M.word == N.word
    assert is_isomorphic(M.rep, N.rep)


def test_standard_modules_w3(w3):
    assert standard_module(w3, "4", "projective").word.walk.basepoint == "4"
    I4 = standard_module(w3, "4", "injective")
    P2 = standard_module(w3, "2", "projective")
    assert is_isomorphic(I4.rep, P2.rep)


def test_standard_injective_u21(u21):
    # I_x is the hook of the two maximal paths into x
    Ix = standard_module(u21, "x", "injective")
    assert walk_to_text(Ix.word.walk) in ("b1 g2^-", "g2 b1^-")
    assert Ix.rep.dims["x"] == 1 and Ix.total_dim == 3


def test_hom_dimensions(w3):
    P1 = standard_module(w3, "1", "projective")
    S1 = standard_module(w3, "1", "simple")
    assert hom_basis(P1.rep, S1.rep).dimension == 1
    S4 = standard_module(w3, "4", "simple")
    P3 = standard_module(w3, "3", "projective")
    assert hom_basis(S4.rep, P3.rep).dimension == 1
    for v in w3.quiver.vertices:
        for u in w3.quiver.vertices:
            Sv = standard_module(w3, v, "simple")
            Su = standard_module(w3, u, "simple")
            assert hom_basis(Sv.rep, Su.rep).dimension == (1 if u == v else 0)


def test_projective_adjunction(w3, u21):
    for p in (w3, u21):
        mods = [realize(p, sw) for sw in enumerate_strings(p)]
        for v in p.quiver.vertices:
            P = standard_module(p, v, "projective")
            for M in mods:
                assert hom_basis(P.rep, M.rep).dimension == M.rep.dims[v]


def test_hom_bases_are_intertwiners(w3):
    mods = [realize(w3, sw) for sw in enumerate_strings(w3)]
    for M in mods[:6]:
        for N in mods[6:]:
            for f in hom_basis(M.rep, N.rep).basis:
                assert f.check_intertwining()


def test_compose_chain_identity_and_zero(w3):
    M = standard_module(w3, "1", "projective")
    ident = identity_morphism(M.rep)
    assert compose_chain([ident]).blocks == ident.blocks
    z = zero_morphism(M.rep, M.rep)
    assert compose_chain([ident, z]).is_zero()


def test_mesh_triple_composes_to_zero(w3, w3_quiver):
    # the three-step composite through a single-middle mesh vanishes exactly
    G = w3_quiver

    def arrow(src, dst):
        s, d = G.node_of(walk_from_text(src)), G.node_of(walk_from_text(dst))
        return G.arrows_between(s.index, d.index)[0].morphism

    f1 = arrow("b2", "e(2)")
    f2 = arrow("e(2)", "b1^- a b1")
    f3 = arrow("b1^- a b1", "a b1")
    assert compose_chain([f1, f2, f3]).is_zero()
    assert not compose_chain([f1, f2]).is_zero()


def test_is_isomorphic_reflexive_and_p2_i4(w3):
    for sw in enumerate_strings(w3):
        M = realize(w3, sw)
        assert is_isomorphic(M.rep, M.rep)
    P2 = standard_module(w3, "2", "projective")
    I4 = standard_module(w3, "4", "injective")
    assert is_isomorphic(P2.rep, I4.rep)
    S1 = standard_module(w3, "1", "simple")
    assert not is_isomorphic(P2.rep, S1.rep)


def test_end_radical_simple_is_zero(w3):
    S2 = standard_module(w3, "2", "simple")
    assert end_radical(S2.rep) == []


def test_end_radical_p1(w3):
    P1 = standard_module(w3, "1", "projective")
    E = hom_basis(P1.rep, P1.rep)
    rad = end_radical(P1.rep)
    assert E.dimension == 2  # paths 1 -> 1 are the trivial one and the loop
    assert len(rad) == E.dimension - 1


def _string_modules(w3):
    """Every string module of W3 and of the ladder's algebras (the ladder's
    nodes), over QQ, GF(2) and GF(3)."""
    ladder = [make_family(f, m=m, n=n).presentation for f, m, n in LADDER.values()]
    return [
        realize(p, sw, field_for_characteristic(char))
        for char in (0, 2, 3) for p in [w3, *ladder] for sw in enumerate_strings(p)
    ]


def test_end_radical_codimension_one_everywhere(w3):
    """End(M) is local with residue field k, also where p divides dim M."""
    for M in _string_modules(w3):
        E = hom_basis(M.rep, M.rep)
        assert E.dimension - len(end_radical(M.rep)) == 1


def test_end_radical_nilpotency(w3):
    for M in _string_modules(w3):
        for f in end_radical(M.rep):
            power = f
            for _ in range(M.total_dim - 1):
                power = power.compose(f)
            assert power.is_zero()


def test_representation_json_dump(w3):
    M = standard_module(w3, "1", "projective")
    payload = M.rep.as_dict()
    assert payload["dims"] == {"1": 2, "2": 2, "3": 0, "4": 0}
    assert json.dumps(payload)  # serializable
    assert payload["maps"]["a"] == [["0", "0"], ["1", "0"]] or payload["maps"]["a"]


def _dense_realization(p, walk, field):
    """A string module as dense arrow matrices, one Mat per arrow, written letter by letter."""
    dims, coord = {v: 0 for v in p.quiver.vertices}, []
    for v in walk_vertices(p, walk):
        coord.append((v, dims[v]))
        dims[v] += 1
    maps = {a.label: Mat.zeros(field, dims[a.target], dims[a.source]) for a in p.quiver.arrows}
    for i, letter in enumerate(walk.letters, start=1):
        src, dst = (i, i - 1) if letter.inverse else (i - 1, i)
        maps[letter.arrow].rows[coord[dst][1]][coord[src][1]] = field.one()
    return dims, maps


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_the_dense_view_is_the_dense_realization(name, char):
    """A string module keeps one nonzero per letter; the matrices `maps`
    writes out are those of the dense realization, and the checked
    constructor given them makes an equal module."""
    field = field_for_characteristic(char)
    for p in _ladder_or_stress(name):
        for sw in enumerate_strings(p):
            M = realize(p, sw, field)
            dims, maps = _dense_realization(p, M.word.walk, field)
            assert M.rep.dims == dims and M.rep.maps == maps
            assert len(M.rep.nonzeros) == len(M.word.walk)
            assert Representation(p, field, dims, maps) == M.rep


def _whole_path_maximal_path(p, arrow, forward):
    """The maximal relation-free path as it was first built: each step tests
    the whole longer path for a relation factor."""
    path = (arrow.label,)
    while True:
        end = p.quiver.arrow(path[-1] if forward else path[0])
        pool = p.quiver.arrows_from(end.target) if forward else p.quiver.arrows_into(end.source)
        longer = [path + (b.label,) if forward else (b.label,) + path for b in pool]
        longer = [q for q in longer if _first_factor(p.relations, q) is None]
        if not longer:
            return path
        path = longer[0]


@pytest.mark.parametrize("name", [*LADDER, "S0-S7", "W96"])
def test_a_maximal_path_tests_only_the_labels_at_its_growing_end(name, monkeypatch):
    """`_maximal_path` asks `path_in_ideal` of at most max_relation_length
    labels and finds the path the whole-path search finds, out of and into
    every arrow.  It runs under a deadline: a window too short misses a
    relation, and the path then never ends."""
    presentations = [make_family("W", n=96).presentation] if name == "W96" else _ladder_or_stress(name)
    for p in presentations:
        asked, real = [], p.path_in_ideal
        monkeypatch.setattr(p, "path_in_ideal", lambda labels: asked.append(labels) or real(labels))
        with _deadline():
            for a in p.quiver.arrows:
                for forward in (True, False):
                    assert _maximal_path(p, a, forward) == _whole_path_maximal_path(p, a, forward)
        assert asked and max(map(len, asked)) <= max(p.max_relation_length, 1)
