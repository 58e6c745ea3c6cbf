import math
from collections import Counter

import pytest

from stringar import (
    ZERO_DEPTH,
    cg_quiver,
    compose_chain,
    hom_basis,
    iota_morphism,
    knit,
    parse_presentation,
    realize,
    theta_morphism,
    walk_from_text,
    walk_to_text,
)
from stringar.artheory import _Resolver
from stringar.errors import NotIrreducibleError
from stringar.fields import field_for_characteristic
from stringar.modules import standard_word
from stringar.radical import RadicalTable
from tests.conftest import LADDER, layer_space
from tests.morphisms import identity_morphism, zero_morphism
from tests.oracles import round_trip
from tests.test_stress import _ladder_or_stress


def _arrow(G, src, dst):
    s, d = G.node_of(walk_from_text(src)), G.node_of(walk_from_text(dst))
    arrows = G.arrows_between(s.index, d.index)
    assert len(arrows) == 1
    return arrows[0].morphism


def test_layer_zero_is_hom_and_identity_not_radical(w3_quiver, w3_table):
    G, T = w3_quiver, w3_table
    x = G.node_of(walk_from_text("b1^- a b1"))
    H = hom_basis(x.module.rep, x.module.rep)
    assert layer_space(T, x, x, 0).dim == H.dimension
    ident = identity_morphism(x.module.rep)
    assert not layer_space(T, x, x, 1).contains(ident.flatten())
    assert T.depth(ident, x, x) == 0


def test_every_arrow_has_depth_one(w3_quiver, w3_table):
    for a in w3_quiver.arrows:
        src = w3_quiver.nodes[a.source]
        dst = w3_quiver.nodes[a.target]
        assert w3_table.depth(a.morphism, src, dst) == 1


def test_zero_morphism_gets_zero_marker(w3_quiver, w3_table):
    x = w3_quiver.node_of(walk_from_text("e(2)"))
    y = w3_quiver.node_of(walk_from_text("e(3)"))
    z = zero_morphism(x.module.rep, y.module.rep)
    assert w3_table.depth(z, x, y) == ZERO_DEPTH == math.inf


def test_sectional_composite_depth_exact(w3_quiver, w3_table):
    comp = compose_chain([_arrow(w3_quiver, "e(4)", "b3"), _arrow(w3_quiver, "b3", "b2 b3")])
    src = w3_quiver.node_of(walk_from_text("e(4)"))
    dst = w3_quiver.node_of(walk_from_text("b2 b3"))
    assert w3_table.depth(comp, src, dst) == 2


def test_example_witness_depth_six(w3_quiver, w3_table):
    G, T = w3_quiver, w3_table
    f1 = _arrow(G, "b2", "e(2)")
    f2 = _arrow(G, "e(2)", "b1^- a b1")
    f3 = _arrow(G, "b1^- a b1", "a b1")
    g1 = _arrow(G, "b1^- a b1", "a^- b1")
    g2 = _arrow(G, "a^- b1", "b1")
    g3 = _arrow(G, "b1", "b1^- a b1")
    rho = compose_chain([g1, g2, g3])
    h2 = f2.add(rho.compose(f2))
    total = compose_chain([f1, h2, f3])
    src = G.node_of(walk_from_text("b2"))
    dst = G.node_of(walk_from_text("a b1"))
    assert T.depth(total, src, dst) == 6
    mid = G.node_of(walk_from_text("e(2)"))
    assert T.depth(f3.compose(h2), mid, dst) >= 3
    # the pair the composite lives in has a nonzero sixth and zero seventh layer
    prof = T.profile(src, dst)
    assert prof.dims[6] > 0
    assert prof.dims[7] == 0


def test_profiles_are_monotone_and_vanish(w3_quiver, w3_table):
    for x in w3_quiver.nodes:
        for y in w3_quiver.nodes:
            dims = w3_table.profile(x, y).dims
            assert all(a >= b for a, b in zip(dims, dims[1:]))
            assert dims[-1] == 0


def test_depth_superadditive_on_composites(w3_quiver, w3_table):
    G, T = w3_quiver, w3_table
    for a in G.arrows:
        for b in G.arrows_from(a.target):
            f, g = a.morphism, b.morphism
            comp = g.compose(f)
            dc = T.depth(comp, G.nodes[a.source], G.nodes[b.target])
            assert dc >= 2  # depth(f) + depth(g)


def test_recursion_equals_span_w3(w3_table):
    assert w3_table.layers_equal_to_span()


def test_recursion_equals_span_u21(u21_table):
    assert u21_table.layers_equal_to_span()


def test_degree_requires_irreducible(w3_quiver, w3_table):
    G, T = w3_quiver, w3_table
    f = compose_chain([_arrow(G, "e(4)", "b3"), _arrow(G, "b3", "b2 b3")])
    x, y = G.node_of(walk_from_text("e(4)")), G.node_of(walk_from_text("b2 b3"))
    with pytest.raises(NotIrreducibleError):
        T.degree(f, "left", x, y)


def test_degree_rejects_an_unknown_side_before_any_work(w3_quiver):
    T = RadicalTable(w3_quiver)
    with pytest.raises(ValueError, match="unknown side 'up'"):
        a = w3_quiver.arrows[0]
        T.degree(a.morphism, "up", T.nodes[a.source], T.nodes[a.target])
    assert not T._levels


def test_degree_formula_u21(u21_quiver, u21_table):
    th, s1, d1 = theta_morphism(u21_quiver, "a2")
    io, s2, d2 = iota_morphism(u21_quiver, "a2")
    left = u21_table.degree(th, "left", source=s1, target=d1)
    right = u21_table.degree(io, "right", source=s2, target=d2)
    assert left.value == 3 and right.value == 3  # m + n - 1 with m = n = 2
    assert left.witness is not None
    assert u21_table.depth(left.witness, left.witness_node, s1) == left.value


def test_theta_and_iota_are_the_oracles_standard_maps_up_to_sign():
    """On the ladder and S0-S7 over QQ, GF(2) and GF(3), at every vertex u:
    `iota_morphism` is the inclusion rad P(u) -> P(u) that the oracle makes
    from the standard word, and `theta_morphism` the projection
    I(u) -> I(u)/soc or its negative, as r_2 of the mesh ending at I(u)/soc
    (-1 is 1 in GF(2)).  Each raises NotIrreducibleError exactly when the
    node has other than one arrow on that side, as many as the oracle's maps."""
    seen = Counter()
    for char in (0, 2, 3):
        field = field_for_characteristic(char)
        minus_one = field.of(-1)
        for p in [p for name in [*LADDER, "S0-S7"] for p in _ladder_or_stress(name)]:
            G = knit(p, field)
            resolve = _Resolver(p, field, [n.module for n in G.nodes])
            for u in p.quiver.vertices:
                for projective, standard in ((True, iota_morphism), (False, theta_morphism)):
                    maps = round_trip.standard_maps(p, u, resolve, projective)
                    node = G.node_of(standard_word(p, u, projective)).index
                    arrows = G.arrows_into(node) if projective else G.arrows_from(node)
                    assert len(arrows) == len(maps)
                    if len(maps) != 1:
                        with pytest.raises(NotIrreducibleError, match=f"has {len(maps)} indecomposable"):
                            standard(G, u)
                        seen["not irreducible"] += 1
                        continue
                    f, src, dst = standard(G, u)
                    want_src, want_dst, want = maps[0]
                    assert (src.module, dst.module) == (want_src, want_dst)
                    got, want = sorted(f.nonzeros), sorted(want.nonzeros)
                    if got == want:
                        seen[standard.__name__] += 1
                    else:
                        assert got == [(v, i, j, minus_one) for v, i, j, _ in want]
                        seen[standard.__name__, "negated"] += 1
    assert seen == {"iota_morphism": 132, "theta_morphism": 164,
                    ("theta_morphism", "negated"): 28, "not irreducible": 186}


def test_degree_f_L_to_N_is_n_minus_one(u21_quiver, u21_table):
    L = u21_quiver.node_of(walk_from_text("g2 b1^- g1"))
    N = u21_quiver.node_of(walk_from_text("g1"))
    f = u21_quiver.arrows_between(L.index, N.index)[0].morphism
    assert f.is_epi()
    assert u21_table.degree(f, "left", source=L, target=N).value == 1


def test_finite_degrees_match_mono_epi(w3_quiver, w3_table):
    # finite left degree on epimorphisms, finite right degree on monomorphisms
    for a in w3_quiver.arrows:
        src, dst = w3_quiver.nodes[a.source], w3_quiver.nodes[a.target]
        dl = w3_table.degree(a.morphism, "left", source=src, target=dst)
        dr = w3_table.degree(a.morphism, "right", source=src, target=dst)
        assert dl.is_finite == a.morphism.is_epi()
        assert dr.is_finite == a.morphism.is_mono()


def test_degree_witness_jump(u21_quiver, u21_table):
    th, src, dst = theta_morphism(u21_quiver, "a2")
    deg = u21_table.degree(th, "left", source=src, target=dst)
    g = deg.witness
    z = deg.witness_node
    comp = th.compose(g)
    assert u21_table.depth(comp, z, dst) >= deg.value + 2


def test_cg_quiver_u21_cardinality(u21):
    qe = cg_quiver(u21, "a2", "ending")
    qs = cg_quiver(u21, "a2", "starting")
    assert qe.order == 4 and qs.order == 4  # m + n with m = n = 2
    texts = {walk_to_text(w) for w in qe.vertex_walks}
    assert "e(a2)" in texts


def test_cg_quiver_vertices_close_with_an_arrow(u22):
    qe = cg_quiver(u22, "a2", "ending")
    for w in qe.vertex_walks:
        assert w.is_trivial or not w.letters[-1].inverse
    qs = cg_quiver(u22, "a2", "starting")
    for w in qs.vertex_walks:
        assert w.is_trivial or not w.letters[0].inverse


def test_cg_degree_agreement(u21, u22, u31):
    for p, m, n in ((u21, 2, 2), (u22, 2, 3), (u31, 3, 2)):
        G = knit(p)
        T = RadicalTable(G)
        th, s1, d1 = theta_morphism(G, f"a{m}")
        io, s2, d2 = iota_morphism(G, f"a{m}")
        dl = T.degree(th, "left", source=s1, target=d1).value
        dr = T.degree(io, "right", source=s2, target=d2).value
        qe = cg_quiver(p, f"a{m}", "ending")
        qs = cg_quiver(p, f"a{m}", "starting")
        assert dl == qe.order - 1 == m + n - 1
        assert dr == qs.order - 1 == m + n - 1


def test_cg_quiver_isolated_vertex():
    p = parse_presentation("vertices 1 2\narrow a 1 -> 1\nrelation a a\n")
    q = cg_quiver(p, "2", "ending")
    assert q.order == 1
    assert walk_to_text(q.vertex_walks[0]) == "e(2)"
    assert q.arrows == []


def test_corollary_depth_four_implies_six(w3_quiver, w3_table):
    G, T = w3_quiver, w3_table
    for a1 in G.arrows:
        for a2 in G.arrows_from(a1.target):
            for a3 in G.arrows_from(a2.target):
                comp = compose_chain([a1.morphism, a2.morphism, a3.morphism])
                d = T.depth(comp, G.nodes[a1.source], G.nodes[a3.target])
                if d != ZERO_DEPTH and d >= 4:
                    assert d >= 6


def test_profile_of_a_node_pair(w3_quiver, w3_table):
    x, y = w3_quiver.node_of(walk_from_text("b2")), w3_quiver.node_of(walk_from_text("a b1"))
    prof = w3_table.profile(x, y)
    assert prof.dims[0] == 1
    basis6 = w3_table.layer(x, y, 6)
    assert len(basis6) == 1
    assert basis6[0].check_intertwining()
    assert w3_table.layer(x, y, len(prof.dims) + 3) == []


def test_cg_degree_agreement_u32_algebra():
    from stringar import knit as _knit, theta_morphism as _th, iota_morphism as _io
    from stringar.families import make_family

    p = make_family("U", m=3, n=3).presentation  # the algebra named U(3,2)
    G = _knit(p)
    T = RadicalTable(G)
    th, s1, d1 = _th(G, "a3")
    io, s2, d2 = _io(G, "a3")
    assert T.degree(th, "left", source=s1, target=d1).value == 5
    assert T.degree(io, "right", source=s2, target=d2).value == 5
    assert cg_quiver(p, "a3", "ending").order == 6
    assert cg_quiver(p, "a3", "starting").order == 6
