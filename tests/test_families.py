import pytest

from stringar import (
    is_isomorphic,
    parse_presentation,
    path_class,
    realize,
    standard_module,
    validate_string_algebra,
    walk_from_text,
    walk_to_text,
)
from stringar.families import make_family, witness
from stringar.radical import RadicalTable


def test_make_w3_structure(w3):
    spec = make_family("W", n=3)
    assert spec.presentation == w3
    assert validate_string_algebra(spec.presentation).is_string_algebra


def test_make_u22_structure():
    spec = make_family("U", m=2, n=2)
    p = spec.presentation
    assert p.quiver.vertices == ("1", "a2", "x")
    assert tuple(a.label for a in p.quiver.arrows) == ("g1", "g2", "b1")
    assert p.relations == (("g1", "g2"),)


def test_make_u23_has_b_vertex():
    p = make_family("U", m=2, n=3).presentation
    assert p.quiver.vertices == ("1", "a2", "b2", "x")


def test_make_v_theorem_parameters():
    # theorem parameters (m, n) = (2, 3) name the algebra with one beta arrow plus w
    p = make_family("V", m=2, n=3).presentation
    assert p.quiver.vertices == ("1", "a2", "x", "w")
    assert tuple(a.label for a in p.quiver.arrows) == ("g1", "g2", "b1", "al")
    assert p.relations == (("g1", "g2"),)


def test_family_parameter_ranges():
    with pytest.raises(ValueError):
        make_family("W", n=1)
    with pytest.raises(ValueError):
        make_family("U", m=1, n=2)
    with pytest.raises(ValueError):
        make_family("V", m=2, n=2)
    with pytest.raises(ValueError):
        make_family("Z", m=2, n=2)


def test_all_families_validate():
    for spec in (
        make_family("W", n=4),
        make_family("U", m=3, n=3),
        make_family("V", m=3, n=4),
    ):
        assert validate_string_algebra(spec.presentation).is_string_algebra


def test_w3_witness(w3):
    w = witness(make_family("W", n=3))
    assert w.expected_depth == 6
    assert w.depths["total"] == 6
    assert w.depths["suffix"] >= 3
    assert len(w.chain) == 3
    assert len(w.rho_nodes) == 4  # a three-cycle


def test_u21_witness_structure():
    spec = make_family("U", m=2, n=2)
    w = witness(spec)
    assert w.expected_depth == 6 and w.depths["total"] == 6
    assert len(w.chain) == 2
    # the cycle at L has length 2m = 4 and passes through the simple at a_m
    assert len(w.rho_nodes) == 5
    assert w.rho_nodes[0].text == w.rho_nodes[-1].text
    assert any(n.text == "e(a2)" for n in w.rho_nodes)
    # phi has length n-1 = 1
    assert len(w.phi_nodes) == 2
    assert w.depths["prefix"] <= 1 and w.depths["suffix"] <= 1


def test_u22_witness_is_the_minimum_seven():
    w = witness(make_family("U", m=2, n=3))
    assert w.expected_depth == 7 and w.depths["total"] == 7
    assert len(w.chain) == 3
    assert w.depths["prefix"] <= 2 and w.depths["suffix"] <= 2


def test_u31_witness_depth_eight():
    w = witness(make_family("U", m=3, n=2))
    assert w.expected_depth == 8 and w.depths["total"] == 8


def test_v21_witness_depth_eight():
    w = witness(make_family("V", m=2, n=3))
    assert w.expected_depth == 8 and w.depths["total"] == 8
    assert len(w.chain) == 3
    assert w.depths["prefix"] <= 2 and w.depths["suffix"] <= 2
    assert len(w.rho_nodes) == 6  # cycle of length 2m + 1


def test_u_witness_paths_sectional_and_md1_is_ix():
    spec = make_family("U", m=2, n=3)
    w = witness(spec)
    G = w.quiver
    # full witness path: phi then the cycle then the exit arrow
    full = (
        [n.index for n in w.phi_nodes]
        + [n.index for n in w.rho_nodes[1:]]
        + [w.node_path[-1].index]
    )
    assert path_class(G, full).is_sectional
    # M(D1) = I_x by canonical word equality
    p = spec.presentation
    D1 = realize(p, walk_from_text("g2 b2^- b1^-"))
    Ix = standard_module(p, "x", "injective")
    assert D1.word == Ix.word


def test_u21_md1_is_ix(u21):
    D1 = realize(u21, walk_from_text("g2 b1^-"))
    Ix = standard_module(u21, "x", "injective")
    assert D1.word == Ix.word
    assert is_isomorphic(D1.rep, Ix.rep)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_u_family_invariants(m, n):
    # cycle of length exactly 2m through the simple, approach of length n-1,
    # and the whole witness path is sectional
    w = witness(make_family("U", m=m, n=n))
    assert w.depths["total"] == n + 2 * m
    assert len(w.rho_nodes) - 1 == 2 * m
    assert len(w.phi_nodes) - 1 == n - 1
    assert any(x.text == f"e(a{m})" for x in w.rho_nodes)
    full = (
        [x.index for x in w.phi_nodes]
        + [x.index for x in w.rho_nodes[1:]]
        + [w.distinguished["N"].index]
    )
    assert path_class(w.quiver, full).is_sectional


def test_w_witness_needs_n_at_least_three():
    spec = make_family("W", n=2)  # the algebra itself is fine
    with pytest.raises(ValueError):
        witness(spec)


def test_v31_witness_depth_ten():
    w = witness(make_family("V", m=3, n=3))
    assert w.expected_depth == 10 and w.depths["total"] == 10
    assert w.depths["prefix"] <= 2 and w.depths["suffix"] <= 2


@pytest.mark.parametrize(
    "family, m, n, calls, depths",
    [
        ("W", None, 3, 72, (6, 2, 5)),
        ("W", None, 5, 344, (8, 4, 7)),
        ("U", 3, 3, 5, (9, 2, 2)),
        ("V", 2, 3, 126, (8, 2, 2)),
    ],
)
def test_witness_search_depth_calls(monkeypatch, family, m, n, calls, depths):
    """The search tries its candidates in a fixed order: pin its depth() count."""
    seen = []
    depth = RadicalTable.depth

    def counted(self, *args, **kw):
        seen.append(1)
        return depth(self, *args, **kw)

    monkeypatch.setattr(RadicalTable, "depth", counted)
    w = witness(make_family(family, m=m, n=n))
    assert len(seen) == calls
    assert (w.depths["total"], w.depths["prefix"], w.depths["suffix"]) == depths
