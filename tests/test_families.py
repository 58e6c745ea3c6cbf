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
from stringar import families, knit
from stringar.families import make_family, witness
from stringar.fields import field_for_characteristic
from stringar.modules import MorphismMatrix, compose_chain
from stringar.radical import RadicalTable
from tests.conftest import LADDER
from tests.oracles import unpruned_witness


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


@pytest.mark.parametrize("k", range(3, 17))
def test_u2_witness_is_k_irreducibles_at_depth_k_plus_four(k):
    """The paper's second claim for n = k: k irreducible maps whose composite
    lies in rad^{k+4} \\ rad^{k+5}; each composite of k-1 of them has depth k-1."""
    w = witness(make_family("U", m=2, n=k))
    assert len(w.chain) == k
    assert w.depths == {"total": k + 4, "prefix": k - 1, "suffix": k - 1}


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


# the ladder and V(5,6) over QQ, GF(2) and GF(3), and V(6,7) over QQ (on a
# 2-vCPU machine the oracle takes about 1.1 s on each V(5,6), 8-10 s on V(6,7))
ORACLE_CASES = {
    f"{name}-{char}": (*args, char)
    for name, args in {**LADDER, "V5_6": ("V", 5, 6)}.items() for char in (0, 2, 3)
}
ORACLE_CASES["V6_7-0"] = ("V", 6, 7, 0)


@pytest.mark.parametrize("family, m, n, char", ORACLE_CASES.values(), ids=list(ORACLE_CASES))
def test_pruned_search_agrees_with_the_unpruned_oracle(monkeypatch, family, m, n, char):
    """Same witness; the candidates it checks are an ordered subsequence of the
    oracle's, and every candidate it skips fails in the oracle.  The oracle
    tries V's L candidates in node order, so V's distinguished L first must not
    change the witness."""
    spec = make_family(family, m=m, n=n)
    quiver = knit(spec.presentation, field_for_characteristic(char))
    table = RadicalTable(quiver)
    checked = []
    chain_depths = families._chain_depths

    def recorded(table, perturb, rho, path, perturb_at, *rest, **kw):
        hit = chain_depths(table, perturb, rho, path, perturb_at, *rest, **kw)
        checked.append(((rho, path, perturb_at), hit and hit[2]))
        return hit

    monkeypatch.setattr(families, "_chain_depths", recorded)
    w = families._search(spec, quiver, table)

    pending = iter(checked)
    nxt = next(pending)
    for cand, depths in unpruned_witness.candidates(spec, quiver, table):
        if nxt is not None and cand == nxt[0]:
            assert depths == nxt[1]
            nxt = next(pending, None)
        else:
            assert depths is None, "the pruned search skipped a passing candidate"
        if depths is not None:
            break
    assert nxt is None, "the pruned search checked a candidate out of the oracle's order"
    rho, path, _ = cand
    assert [x.index for x in w.node_path] == [path[0].source] + [a.target for a in path]
    assert [x.index for x in w.rho_nodes] == [rho[0].source] + [a.target for a in rho]
    assert w.depths == depths
    if family != "W":  # P, S and I depend on the family alone
        assert (w.distinguished["L"].index, w.distinguished["N"].index) == (
            path[-1].source, path[-1].target
        )


# Witnesses of the unpruned search, which takes 1.4 s, 8.5 s, 1.3 s and 9.3 s
# on these inputs: node paths, cycle nodes and (total, prefix, suffix) depths.
LARGE_WITNESSES = [
    (
        "W", None, 12, (15, 11, 14),
        [
            "b2 b3 b4 b5 b6 b7 b8 b9 b10 b11",
            "b2 b3 b4 b5 b6 b7 b8 b9 b10",
            "b2 b3 b4 b5 b6 b7 b8 b9",
            "b2 b3 b4 b5 b6 b7 b8",
            "b2 b3 b4 b5 b6 b7",
            "b2 b3 b4 b5 b6",
            "b2 b3 b4 b5",
            "b2 b3 b4",
            "b2 b3",
            "b2",
            "e(2)",
            "b1^- a b1",
            "a b1",
        ],
        [
            "b1^- a b1",
            "a^- b1",
            "b1",
            "b1^- a b1",
        ],
    ),
    (
        "W", None, 15, (18, 14, 17),
        [
            "b2 b3 b4 b5 b6 b7 b8 b9 b10 b11 b12 b13 b14",
            "b2 b3 b4 b5 b6 b7 b8 b9 b10 b11 b12 b13",
            "b2 b3 b4 b5 b6 b7 b8 b9 b10 b11 b12",
            "b2 b3 b4 b5 b6 b7 b8 b9 b10 b11",
            "b2 b3 b4 b5 b6 b7 b8 b9 b10",
            "b2 b3 b4 b5 b6 b7 b8 b9",
            "b2 b3 b4 b5 b6 b7 b8",
            "b2 b3 b4 b5 b6 b7",
            "b2 b3 b4 b5 b6",
            "b2 b3 b4 b5",
            "b2 b3 b4",
            "b2 b3",
            "b2",
            "e(2)",
            "b1^- a b1",
            "a b1",
        ],
        [
            "b1^- a b1",
            "a^- b1",
            "b1",
            "b1^- a b1",
        ],
    ),
    (
        "V", 4, 5, (14, 4, 4),
        [
            "g4",
            "g4 b3^-",
            "g4 b3^- b2^-",
            "g4 b3^- b2^- b1^- g1 g2 g3 al",
            "g3^- g2^- g1^- b1 b2 b3 g4^-",
            "g3^- g2^- g1^- b1 b2",
        ],
        [
            "g3^- g2^- g1^- b1 b2 b3 g4^-",
            "g2^- g1^- b1 b2 b3 g4^-",
            "g1^- b1 b2 b3 g4^-",
            "g4 b3^- b2^- b1^-",
            "e(a4)",
            "g3",
            "g2 g3",
            "g3^- g2^- g1^- b1 b2 b3",
            "g3^- g2^- g1^- b1 b2 b3 g4^- al",
            "g3^- g2^- g1^- b1 b2 b3 g4^-",
        ],
    ),
    (
        "V", 5, 6, (17, 5, 5),
        [
            "g5",
            "g5 b4^-",
            "g5 b4^- b3^-",
            "g5 b4^- b3^- b2^-",
            "g5 b4^- b3^- b2^- b1^- g1 g2 g3 g4 al",
            "g4^- g3^- g2^- g1^- b1 b2 b3 b4 g5^-",
            "g4^- g3^- g2^- g1^- b1 b2 b3",
        ],
        [
            "g4^- g3^- g2^- g1^- b1 b2 b3 b4 g5^-",
            "g3^- g2^- g1^- b1 b2 b3 b4 g5^-",
            "g2^- g1^- b1 b2 b3 b4 g5^-",
            "g1^- b1 b2 b3 b4 g5^-",
            "g5 b4^- b3^- b2^- b1^-",
            "e(a5)",
            "g4",
            "g3 g4",
            "g2 g3 g4",
            "g4^- g3^- g2^- g1^- b1 b2 b3 b4",
            "g4^- g3^- g2^- g1^- b1 b2 b3 b4 g5^- al",
            "g4^- g3^- g2^- g1^- b1 b2 b3 b4 g5^-",
        ],
    ),
]


@pytest.mark.parametrize("family, m, n, depths, chain, rho", LARGE_WITNESSES,
                         ids=["W12", "W15", "V4_5", "V5_6"])
def test_large_witnesses_match_the_unpruned_search(family, m, n, depths, chain, rho):
    w = witness(make_family(family, m=m, n=n))
    assert (w.depths["total"], w.depths["prefix"], w.depths["suffix"]) == depths
    assert [x.text for x in w.node_path] == chain
    assert [x.text for x in w.rho_nodes] == rho


def test_witness_w9_builds_fewer_than_half_the_sources(monkeypatch):
    """The search reads the table through queries, so only the sources they
    read are built; it composes only what a candidate that can pass reads."""
    spec = make_family("W", n=9)
    quiver = knit(spec.presentation)
    table = RadicalTable(quiver)
    composes = []
    compose = MorphismMatrix.compose

    def counted(self, first):
        composes.append(1)
        return compose(self, first)

    monkeypatch.setattr(MorphismMatrix, "compose", counted)
    w = families._search(spec, quiver, table)
    assert w.depths["total"] == 12
    built, nodes = len(w.table._levels), len(w.quiver.nodes)
    assert 0 < built <= 14 < nodes / 2
    assert 0 < len(composes) <= 150


def test_witness_v8_9_lists_the_cycles_of_one_l(monkeypatch):
    """V tries its distinguished L first and lists an L's cycles only once one
    of its into-paths is live, so the V(8,9) search lists the cycles of the L
    it answers at, and reads few table sources and composites."""
    spec = make_family("V", m=8, n=9)
    quiver = knit(spec.presentation)
    table = RadicalTable(quiver)
    cycles, composes = [], []
    list_cycles, compose = families._cycles, MorphismMatrix.compose

    def counted_cycles(*args):
        cycles.append(args)
        return list_cycles(*args)

    def counted(self, first):
        composes.append(1)
        return compose(self, first)

    monkeypatch.setattr(families, "_cycles", counted_cycles)
    monkeypatch.setattr(MorphismMatrix, "compose", counted)
    w = families._search(spec, quiver, table)
    assert w.depths == {"total": 26, "prefix": 8, "suffix": 8}
    assert len(cycles) == 1 and cycles[0][2] == w.distinguished["L"].index
    assert 0 < len(table._levels) <= 10
    assert 0 < len(composes) <= 300


@pytest.mark.parametrize("name", sorted(LADDER))
def test_into_paths_are_the_depth_first_live_paths(name):
    """Each length extends the last, in the order of a depth-first walk along
    arrows_into, and keeps exactly the paths with a nonzero composite."""
    family, m, n = LADDER[name]
    quiver = knit(make_family(family, m=m, n=n).presentation)
    for x in quiver.nodes:
        paths = families._into_paths(quiver, x.index)
        for k in range(1, 6):
            every = unpruned_witness._paths(quiver, k, x.index, forward=False)
            live = [(p, compose_chain([a.morphism for a in p])) for p in every]
            assert paths(k) == [(p, f) for p, f in live if not f.is_zero()]


CYCLE_INPUTS = {k: v for k, v in LADDER.items() if v[0] != "W"}
CYCLE_INPUTS.update(V4_5=("V", 4, 5), V5_6=("V", 5, 6))


@pytest.mark.parametrize("family, m, n", CYCLE_INPUTS.values(), ids=list(CYCLE_INPUTS))
def test_pruned_cycles_are_the_unpruned_closed_paths(family, m, n):
    """The cycles through each node, pruned by backward layers, are the closed
    arrow paths of the unpruned depth-first listing, in its order: the
    ladder's U and V inputs, V(4,5) and V(5,6)."""
    quiver = knit(make_family(family, m=m, n=n).presentation)
    length = 2 * m + (1 if family == "V" else 0)
    closed = 0
    for x in quiver.nodes:
        every = unpruned_witness._paths(quiver, length, x.index, forward=True)
        want = [c for c in every if c[-1].target == x.index]
        assert families._cycles(quiver, length, x.index) == want
        closed += len(want)
    assert closed
