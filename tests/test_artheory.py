import itertools
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from stringar import (
    AlgebraPresentation,
    IsInjectiveError,
    IsProjectiveError,
    ar_sequence,
    audit_theorems,
    enumerate_strings,
    is_isomorphic,
    knit,
    parse_presentation,
    realize,
    standard_module,
    tau,
    tau_inverse,
    tau_oracle,
    tau_orbit,
    walk_from_text,
    walk_to_text,
)
from stringar import artheory, fields, modules, strings
from stringar.artheory import is_injective_word, is_projective_word, tau_inverse_word, tau_word
from stringar.errors import (
    InfiniteDimensionalError,
    MeshInconsistencyError,
    NotAStringError,
    StringAlgebraError,
)
from stringar.families import make_family
from stringar.fields import QQ, field_for_characteristic
from stringar.modules import hom_flat_dim, morphism_from_flat
from tests.conftest import EX3_SOURCE, KRONECKER_SOURCE, LADDER, LOOP_IN_SOURCE
from tests.morphisms import identity_morphism, zero_morphism
from tests.oracles import dense_maps, mesh_maps, round_trip
from tests.oracles.split_oracle import splits
from tests.oracles.surgery import _segment
from tests.test_pinned_outputs import KNIT_MAP_DIGESTS, knit_map_digest
from tests.test_stress import _band_free_algebras, _ladder_or_stress


def test_tau_simples_w3(w3):
    S3 = standard_module(w3, "3", "simple")
    S2 = standard_module(w3, "2", "simple")
    assert walk_to_text(tau(w3, S3).word.walk) == "e(4)"
    assert walk_to_text(tau(w3, S2).word.walk) == "e(3)"


def test_tau_projective_raises(w3):
    with pytest.raises(IsProjectiveError):
        tau(w3, standard_module(w3, "1", "projective"))


def test_tau_inverse_injective_raises(w3):
    with pytest.raises(IsInjectiveError):
        tau_inverse(w3, standard_module(w3, "2", "injective"))


def test_tau_inverse_inverts_tau(w3, u21):
    for p in (w3, u21):
        for sw in enumerate_strings(p):
            if is_projective_word(p, sw.walk):
                continue
            M = realize(p, sw)
            back = tau_inverse(p, tau(p, M))
            assert back.word == M.word


def test_tau_oracle_s2(w3):
    S2 = standard_module(w3, "2", "simple")
    S3 = standard_module(w3, "3", "simple")
    assert is_isomorphic(tau_oracle(w3, S2), S3.rep)


def test_tau_oracle_source_simple_u21(u21):
    # hand computation: the translate of the source simple is the long module
    S1 = standard_module(u21, "1", "simple")
    L = realize(u21, walk_from_text("g2 b1^- g1"))
    assert is_isomorphic(tau_oracle(u21, S1), L.rep)
    assert tau(u21, S1).word == L.word


def test_tau_oracle_projective_raises(w3):
    with pytest.raises(IsProjectiveError):
        tau_oracle(w3, standard_module(w3, "3", "projective"))


def test_oracle_agreement_word_length_le_8(w3, u21):
    for p in (w3, u21):
        for sw in enumerate_strings(p):
            if len(sw.walk) > 8 or is_projective_word(p, sw.walk):
                continue
            M = realize(p, sw)
            assert is_isomorphic(tau(p, M).rep, tau_oracle(p, M))


def test_ar_sequence_ending_at_s3(w3):
    S3 = standard_module(w3, "3", "simple")
    seq = ar_sequence(w3, S3, "endingAt")
    assert walk_to_text(seq.left_term.word.walk) == "e(4)"
    assert [walk_to_text(m.word.walk) for m in seq.middle] == ["b3"]
    assert seq.alpha == 1
    assert seq.left_term.total_dim + seq.right_term.total_dim == sum(
        m.total_dim for m in seq.middle
    )


def test_ar_sequence_starting_at_p1_contains_m(w3):
    P1 = standard_module(w3, "1", "projective")
    seq = ar_sequence(w3, P1, "startingAt")
    middles = {walk_to_text(m.word.walk) for m in seq.middle}
    assert "a^- b1" in middles  # the period-three module of the figure


def test_ar_sequence_sides_reject_wrong_ends(w3):
    with pytest.raises(IsProjectiveError):
        ar_sequence(w3, standard_module(w3, "4", "projective"), "endingAt")
    with pytest.raises(IsInjectiveError):
        ar_sequence(w3, standard_module(w3, "1", "injective"), "startingAt")


def test_knit_w3_matches_figure(w3_quiver):
    G = w3_quiver
    assert len(G.nodes) == 12
    arrows = {
        (G.nodes[a.source].text, G.nodes[a.target].text) for a in G.arrows
    }
    expected = {
        ("b1", "e(1)"), ("a", "e(1)"), ("b2", "e(2)"), ("b3", "e(3)"),
        ("a b1", "a"), ("a^- b1", "a"), ("a^- b1", "b1"), ("b2 b3", "b2"),
        ("e(3)", "b2"), ("e(4)", "b3"), ("b1^- a b1", "a b1"),
        ("e(1)", "a^- b1"), ("b1^- a b1", "a^- b1"), ("b3", "b2 b3"),
        ("b1", "b1^- a b1"), ("e(2)", "b1^- a b1"),
    }
    assert arrows == expected
    assert len(G.arrows) == 16
    tau_pairs = {
        (G.nodes[x].text, G.nodes[t].text) for x, t in G.tau_pairs.items()
    }
    assert ("e(1)", "a^- b1") in tau_pairs  # the period-three orbit
    assert ("a^- b1", "b1") in tau_pairs
    assert ("b1", "e(1)") in tau_pairs


def test_knit_semisimple():
    p = parse_presentation("vertices 1 2 3\n")
    G = knit(p)
    assert [n.text for n in G.nodes] == ["e(1)", "e(2)", "e(3)"]
    assert G.arrows == []
    assert G.tau_pairs == {}
    assert all(n.projective and n.injective for n in G.nodes)


def test_knit_node_count_is_string_census(u21):
    assert len(knit(u21).nodes) == len(enumerate_strings(u21))


def test_knit_mesh_symmetry(w3_quiver, u21_quiver):
    for G in (w3_quiver, u21_quiver):
        for x, tx in G.tau_pairs.items():
            sources = {a.source for a in G.arrows_into(x)}
            for n in sources:
                assert len(G.arrows_between(n, x)) == len(G.arrows_between(tx, n))


def test_knit_arrow_multiplicity_at_most_one_here(w3_quiver):
    seen = {}
    for a in w3_quiver.arrows:
        seen[(a.source, a.target)] = seen.get((a.source, a.target), 0) + 1
    assert all(v == 1 for v in seen.values())


def test_knit_flags(w3_quiver):
    flagged = {
        n.text: (n.projective, n.injective) for n in w3_quiver.nodes
    }
    assert flagged["b1^- a b1"] == (True, False)   # P(1)
    assert flagged["b2 b3"] == (True, True)        # P(2) = I(4)
    assert flagged["e(4)"] == (True, False)        # P(4) = S(4)
    assert flagged["a b1"] == (False, True)        # I(2)
    assert flagged["a^- b1"] == (False, False)


def test_tau_orbit_stops_at_projective(w3):
    S2 = standard_module(w3, "2", "simple")
    orbit = tau_orbit(w3, S2, 5)
    assert [walk_to_text(m.word.walk) for m in orbit.modules] == ["e(2)", "e(3)", "e(4)"]
    assert orbit.hit_projective


def test_tau_orbit_banded_component(ex3):
    I4 = standard_module(ex3, "4", "injective")
    orbit = tau_orbit(ex3, I4, 6)
    assert len(orbit.modules) == 7
    assert not orbit.hit_projective
    assert len({m.word.walk for m in orbit.modules}) == 7  # all distinct


@pytest.mark.parametrize("char", [2, 3], ids=["GF2", "GF3"])
def test_tau_and_tau_inverse_keep_the_field_of_the_module(w3, u21, char):
    """A module's translates are over its own field unless another is given;
    a word's are over QQ."""
    field = field_for_characteristic(char)
    for p in (w3, u21):
        for sw in enumerate_strings(p):
            M = realize(p, sw, field)
            for translate, standard in ((tau, is_projective_word), (tau_inverse, is_injective_word)):
                if standard(p, sw.walk):
                    continue
                T = translate(p, M)
                assert T.rep.field == field and T.rep == translate(p, M, field).rep
                assert translate(p, sw).rep.field == translate(p, M, QQ).rep.field == QQ
                assert translate(p, sw).word == T.word


@pytest.mark.parametrize("char", [None, 0, 2, 3], ids=["default", "QQ", "GF2", "GF3"])
def test_tau_orbit_of_a_word_is_the_orbit_of_its_module(w3, ex3, char):
    """A StringWord is realized over the given field, or QQ, and walks the
    orbit of its module."""
    field = QQ if char is None else field_for_characteristic(char)
    for p, max_len in ((w3, None), (ex3, 3)):
        for sw in enumerate_strings(p, max_len=max_len):
            by_word = tau_orbit(p, sw, 4, None if char is None else field)
            by_module = tau_orbit(p, realize(p, sw, field), 4)
            assert [m.word for m in by_word.modules] == [m.word for m in by_module.modules]
            assert [m.rep for m in by_word.modules] == [m.rep for m in by_module.modules]
            assert by_word.modules[0].rep.field == field
            assert (by_word.hit_projective, by_word.steps) == (by_module.hit_projective, by_module.steps)


def test_tau_period_three_loop_in(loop_in):
    M = realize(loop_in, walk_from_text("b"))
    orbit = tau_orbit(loop_in, M, 3)
    assert not orbit.hit_projective
    assert orbit.modules[3].word == M.word
    assert orbit.modules[1].word != M.word
    assert orbit.modules[2].word != M.word


def test_word_shape_predicates(w3):
    assert is_projective_word(w3, walk_from_text("b1^- a b1"))
    assert is_injective_word(w3, walk_from_text("a b1"))
    assert not is_projective_word(w3, walk_from_text("a^- b1"))
    assert not is_injective_word(w3, walk_from_text("a^- b1"))


def test_exports(w3_quiver):
    dot = w3_quiver.to_dot()
    assert dot.count(" -> ") == 16 + 8  # solid arrows plus dotted translate edges
    assert dot.count("style=dotted") == 8
    payload = w3_quiver.to_json()
    assert len(payload["nodes"]) == 12
    assert len(payload["arrows"]) == 16
    assert len(payload["tauPairs"]) == 8


def test_all_meshes_recorded(w3_quiver):
    non_proj = [n for n in w3_quiver.nodes if not n.projective]
    assert set(w3_quiver.meshes) == {n.index for n in non_proj}
    for seq in w3_quiver.meshes.values():
        assert 1 <= seq.alpha <= 2


def test_mesh_invariants_on_larger_algebras(u22, u31, v21):
    # every recorded mesh re-verifies: exactness, shapes, mono/epi, non-split;
    # check_intertwining reads the verdict a graph map carries, so the dense
    # oracle decides here
    for p in (u22, u31, v21):
        G = knit(p)
        for seq in G.meshes.values():
            seq.verify()
            assert 1 <= seq.alpha <= 2
            for f in seq.left_maps + seq.right_maps:
                assert dense_maps.intertwines(f, _dense)


def _dense(f):
    return {v: f.block(v).rows for v in f.source.p.quiver.vertices}


def test_ar_sequence_sides_agree(w3):
    # the sequence ending at tau^{-1}M equals the sequence starting at M
    from stringar import tau_inverse

    S3 = standard_module(w3, "3", "simple")
    down = ar_sequence(w3, S3, "startingAt")
    up = ar_sequence(w3, tau_inverse(w3, S3), "endingAt")
    assert down.left_term.word == up.left_term.word
    assert [m.word for m in down.middle] == [m.word for m in up.middle]
    assert down.right_term.word == up.right_term.word


def test_split_sequence_is_rejected(w3):
    L = standard_module(w3, "3", "simple")
    R = standard_module(w3, "2", "simple")
    left_maps = [identity_morphism(L.rep), zero_morphism(L.rep, R.rep)]
    assert splits(L, [L, R], left_maps)
    with pytest.raises(MeshInconsistencyError, match="almost split sequence splits"):
        mesh_maps.verify(
            L, [L, R], R, left_maps, [zero_morphism(L.rep, R.rep), identity_morphism(R.rep)]
        )


def test_corrupted_right_map_is_rejected(w3_quiver):
    for seq in w3_quiver.meshes.values():
        right_maps = [zero_morphism(seq.middle[0].rep, seq.right_term.rep)] + seq.right_maps[1:]
        with pytest.raises(MeshInconsistencyError):
            mesh_maps.verify(
                seq.left_term, seq.middle, seq.right_term, list(seq.left_maps), right_maps
            )


@pytest.mark.parametrize("char", [0, 2, 3])
def test_word_split_test_agrees_with_the_retraction_oracle(
    char, w3, loop_in, u21, u22, u31, v21
):
    field = field_for_characteristic(char)
    ladder = [make_family(f, m=m, n=n).presentation for f, m, n in LADDER.values()]
    for p in [w3, loop_in, u21, u22, u31, v21, *_band_free_algebras(), *ladder]:
        for seq in knit(p, field).meshes.values():
            assert seq._splits() is splits(seq.left_term, seq.middle, seq.left_maps) is False


def test_knit_makes_no_dense_hom_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("knit solved a linear system")

    monkeypatch.setattr(modules, "hom_basis", refuse)
    monkeypatch.setattr(artheory, "solve", refuse)
    assert len(knit(make_family("W", n=5).presentation).meshes) > 0


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("name", list(LADDER))
def test_knit_maps_match_pinned_digests(name, char):
    """knit's JSON and every arrow map and mesh map against the one digest
    table: a changed entry or sign in any map fails here."""
    assert knit_map_digest(name, char)[:16] == KNIT_MAP_DIGESTS[f"{name}@{char}"]


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_tau_agrees_with_dtr_on_the_ladder(name, char):
    """Surgery against the DTr oracle on every non-projective node."""
    fam, m, n = LADDER[name]
    p, field = make_family(fam, m=m, n=n).presentation, field_for_characteristic(char)
    for sw in enumerate_strings(p):
        if not is_projective_word(p, sw.walk):
            M = realize(p, sw, field)
            assert is_isomorphic(tau(p, M, field).rep, tau_oracle(p, M, field)), sw


def test_tau_orbit_makes_no_oracle_call(monkeypatch, w3, ex3):
    def refuse(*args):
        raise AssertionError("tau_orbit called an oracle")

    monkeypatch.setattr(artheory, "tau_oracle", refuse)
    monkeypatch.setattr(modules, "is_isomorphic", refuse)
    monkeypatch.setattr(modules, "hom_basis", refuse)
    u22, kron = make_family("U", m=2, n=2).presentation, parse_presentation(KRONECKER_SOURCE)
    for p, max_len in ((w3, None), (ex3, 3), (u22, None), (kron, 4)):
        for sw in enumerate_strings(p, max_len=max_len):
            tau_orbit(p, realize(p, sw), 4)


def test_mesh_may_have_two_equal_middle_terms():
    """Over parallel arrows the mesh ending at the simple injective S(1) has
    middle term I(2) (+) I(2); it is exact and does not split."""
    p = parse_presentation(KRONECKER_SOURCE)
    seq = ar_sequence(p, realize(p, walk_from_text("e(1)")), "endingAt")
    assert [walk_to_text(m.word.walk) for m in seq.middle] == ["a b^-", "a b^-"]
    assert walk_to_text(seq.left_term.word.walk) == "a b^- a b^-"


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
def test_tau_orbit_over_parallel_arrows_agrees_with_dtr(char):
    """Preprojective and preinjective orbits of the Kronecker algebra, step by step."""
    p, field = parse_presentation(KRONECKER_SOURCE), field_for_characteristic(char)
    for sw in enumerate_strings(p, max_len=4):
        orbit = tau_orbit(p, realize(p, sw, field), 3, field)
        for M, tM in zip(orbit.modules, orbit.modules[1:]):
            assert is_isomorphic(tM.rep, tau_oracle(p, M, field)), walk_to_text(sw.walk)


def test_translates_need_a_finite_dimensional_algebra():
    p = parse_presentation("vertices 1 2\narrow a 1 -> 1\narrow b 1 -> 2\nrelation a b\n")
    M = realize(p, walk_from_text("b"))
    calls = [
        lambda: tau(p, M), lambda: tau_inverse(p, M), lambda: tau_orbit(p, M, 1),
        lambda: ar_sequence(p, M, "endingAt"), lambda: ar_sequence(p, M, "startingAt"),
        lambda: tau_oracle(p, M),
    ]
    for call in calls:
        with pytest.raises(InfiniteDimensionalError, match="infinitely many nonzero paths"):
            call()


@pytest.mark.parametrize("translate", [tau_word, tau_inverse_word])
@pytest.mark.parametrize("text", ["b1 b1^-", "b2 b1", "b1 b2"])
def test_translates_reject_walks_that_are_not_strings(w3, translate, text):
    """Not reduced, letters that do not compose, a relation: none is a string."""
    with pytest.raises(NotAStringError):
        translate(w3, walk_from_text(text))


def test_knit_and_audit_search_for_bands_once(monkeypatch):
    """has_band is cached: knit, then audit_theorems (which knits again) search once."""
    calls = []
    pumps = strings._pumps

    def counted(*args):
        calls.append(args)
        return pumps(*args)

    monkeypatch.setattr(strings, "_pumps", counted)
    w = make_family("W", n=3).presentation
    p = AlgebraPresentation(w.quiver, w.relations, name="W3, not yet searched")
    knit(p)
    assert len(calls) == 1
    audit_theorems(p, samples=1)
    assert len(calls) == 1


@pytest.mark.parametrize("predicate", [is_projective_word, is_injective_word])
@pytest.mark.parametrize("text", ["b1 b1^-", "b2 b1", "b1 b2"])
def test_shape_predicates_reject_walks_that_are_not_strings(w3, predicate, text):
    """The end checks assume a string; a walk that is not one is refused, not classified."""
    with pytest.raises(NotAStringError):
        predicate(w3, walk_from_text(text))


# --- one corrupted mesh per message of the numeric mesh check ----------------


def _verify_message(seq, middle=None, left_maps=None, right_maps=None):
    """The message the oracle raises on the mesh with the given parts swapped in, or None."""
    return mesh_maps.message(lambda: mesh_maps.verify(
        seq.left_term,
        list(middle or seq.middle),
        seq.right_term,
        list(left_maps or seq.left_maps),
        list(right_maps or seq.right_maps),
    ))


@pytest.fixture(scope="module", params=["W3", "S0"])
def corruptible(request):
    """The knitted meshes of W(3) and of the first band-free stress algebra."""
    p = make_family("W", n=3).presentation if request.param == "W3" else _band_free_algebras()[0]
    meshes = list(knit(p).meshes.values())
    assert any(seq.alpha == 2 for seq in meshes)
    return meshes


def test_verify_reports_a_middle_dimension_mismatch(corruptible):
    for seq in corruptible:
        R = seq.right_term.rep
        message = _verify_message(
            seq, [seq.right_term], [zero_morphism(seq.left_term.rep, R)], [identity_morphism(R)]
        )
        assert message == "middle dimension mismatch"


def _bumped_right_maps(seq):
    """Each right-map list with one flat entry of one right map raised by one."""
    for i, r in enumerate(seq.right_maps):
        field = r.source.field
        for j in range(hom_flat_dim(r.source, r.target)):
            vec = r.flatten()
            vec[j] = field.of(vec[j] + 1)
            bumped = morphism_from_flat(r.source, r.target, vec)
            yield i, [*seq.right_maps[:i], bumped, *seq.right_maps[i + 1:]]


def _composite_is_zero(left_maps, right_maps, signs):
    terms = [r.compose(l) for l, r in zip(left_maps, right_maps)]
    comp = terms[0]
    for sign, term in zip(signs[1:], terms[1:]):
        comp = comp.add(term if sign > 0 else term.neg())
    return comp.is_zero()


def test_verify_reports_a_nonzero_composite_and_a_non_morphism(corruptible):
    """A bumped entry of a right map: a composite that stays nonzero under either
    sign, else a map that no longer intertwines, names its own check."""
    seen = set()
    for seq in corruptible:
        for i, right_maps in _bumped_right_maps(seq):
            sign_choices = [(1, 1), (1, -1)] if seq.alpha == 2 else [(1,)]
            if not any(_composite_is_zero(seq.left_maps, right_maps, s) for s in sign_choices):
                want = "mesh composite is not zero"
            elif not right_maps[i].check_intertwining():
                want = "mesh map is not a morphism"
            else:
                continue
            assert _verify_message(seq, right_maps=right_maps) == want
            seen.add(want)
    assert seen == {"mesh composite is not zero", "mesh map is not a morphism"}


def test_verify_reports_a_left_map_that_is_not_mono(corruptible):
    for seq in corruptible:
        zeros = [zero_morphism(seq.left_term.rep, m.rep) for m in seq.middle]
        assert _verify_message(seq, left_maps=zeros) == "left mesh map not mono"


def test_verify_reports_a_right_map_that_is_not_epi(corruptible):
    for seq in corruptible:
        zeros = [zero_morphism(m.rep, seq.right_term.rep) for m in seq.middle]
        assert _verify_message(seq, right_maps=zeros) == "right mesh map not epi"


def test_verify_leaves_the_mesh_maps_alone(corruptible):
    """verify reads the pieces' positions only: re-verifying changes no map."""
    for seq in corruptible:
        before = [f.flatten() for f in seq.left_maps + seq.right_maps]
        seq.verify()
        assert [f.flatten() for f in seq.left_maps + seq.right_maps] == before


def test_knit_leaves_no_compose_index_on_its_arrows(monkeypatch):
    """verify reads each mesh from its pieces: knit composes, adds, tests for
    zero, runs the intertwining equations and ranks nothing, over QQ, GF(2)
    and GF(3), so no arrow carries a compose index.  Composing two arrow maps
    intersects their runs and builds none; composing an arrow map with a map
    that is not a graph map (a sum) builds one."""
    def refuse(*args):
        raise AssertionError("knit did arithmetic on a map")

    with monkeypatch.context() as m:
        for name in ("compose", "add", "is_zero", "_intertwines", "rank"):
            m.setattr(modules.MorphismMatrix, name, refuse)
        m.setattr(fields, "entry_rank", refuse)
        m.setattr(modules, "entry_rank", refuse)
        quivers = [knit(make_family("W", n=9).presentation, field_for_characteristic(c))
                   for c in (0, 2, 3)]
    for q in quivers:
        assert all(a.morphism._by_middle is None for a in q.arrows)
    q = quivers[0]
    a, b = next((a, b) for a in q.arrows for b in q.arrows_from(a.target))
    assert b.morphism.compose(a.morphism).run is not None and b.morphism._by_middle is None
    summed = a.morphism.add(a.morphism)
    assert summed.run is None
    b.morphism.compose(summed)
    assert b.morphism._by_middle is not None



def _eager_actions(rep):
    """The action index as `Representation._set` once built it for every module."""
    at_row, at_col, arrow = {}, {}, rep.p.quiver.arrow_by_label
    for a, k, j, c in rep.nonzeros:
        x = arrow[a]
        at_row.setdefault((x.target, k), []).append((a, j, c))
        at_col.setdefault((x.source, j), []).append((a, k, c))
    return at_row, at_col


def _knitted_reps(G):
    """Every module a knitted quiver holds: nodes, mesh terms, arrow ends."""
    reps = [n.module.rep for n in G.nodes]
    for seq in G.meshes.values():
        reps += [seq.left_term.rep, seq.right_term.rep, *(m.rep for m in seq.middle)]
    reps += [r for a in G.arrows for r in (a.morphism.source, a.morphism.target)]
    return list({id(r): r for r in reps}.values())


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("name", list(LADDER))
def test_the_action_index_is_built_on_first_read_as_it_was_eagerly(name, char):
    """On every module knit holds: no index before the first read, then the
    eager one, built once."""
    family, m, n = LADDER[name]
    G = knit(make_family(family, m=m, n=n).presentation, field_for_characteristic(char))
    for rep in _knitted_reps(G):
        assert "actions" not in vars(rep)
        assert rep.actions == _eager_actions(rep)
        assert rep.actions is rep.actions


@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_every_mesh_term_is_the_module_of_its_node(name):
    """knit resolves every piece through its own resolver, so each mesh holds
    the nodes' modules themselves, not second realizations of their words."""
    for p in _ladder_or_stress(name):
        G = knit(p)
        module = {n.word.walk: n.module for n in G.nodes}
        for x, seq in G.meshes.items():
            assert seq.right_term is G.nodes[x].module
            assert seq.left_term is G.nodes[G.tau_pairs[x]].module
            assert all(m is module[m.word.walk] for m in seq.middle)


def test_knit_builds_no_action_index():
    """Mesh maps carry their verdicts, so no module knit makes is indexed."""
    G = knit(make_family("W", n=9).presentation)
    reps = _knitted_reps(G)
    assert len(G.nodes) == 51 and len(reps) >= 51
    assert not any("actions" in vars(rep) for rep in reps)


# --- knit's and ar_sequence's own checks still fire --------------------------


def _patch_meshes(monkeypatch, replace):
    """Make knit see replace(module, seq) in place of each mesh `_mesh` builds,
    the module being the mesh's right term."""
    real = artheory._mesh

    def patched(p, walk, direction, resolve):
        seq = real(p, walk, direction, resolve)
        return replace(seq.right_term, seq)

    monkeypatch.setattr(artheory, "_mesh", patched)


def _mesh(seq, **parts):
    """The parts of a mesh knit reads after verify, some swapped."""
    return SimpleNamespace(
        **{"left_term": seq.left_term, "middle": seq.middle, "right_maps": seq.right_maps, **parts}
    )


def test_ar_sequence_round_trip_fires(monkeypatch, w3):
    """The oracle's mesh built from the translate must end at the module it
    started from."""
    x, y = [n for n in knit(w3).nodes if not n.projective][:2]
    real = artheory._translate_word

    def swapped(p, walk, direction):
        return real(p, y.word.walk if walk == x.word.walk else walk, direction)

    monkeypatch.setattr(artheory, "_translate_word", swapped)
    with pytest.raises(MeshInconsistencyError, match="translate round trip failed"):
        round_trip.ending_at(w3, x.module)


def test_knit_rejects_a_translate_on_an_injective(monkeypatch, w3):
    G = knit(w3)
    x = next(n for n in G.nodes if not n.projective)
    injective = next(n for n in G.nodes if n.injective)
    _patch_meshes(monkeypatch, lambda M, seq: _mesh(seq, left_term=injective.module)
                  if M.word == x.word else seq)
    with pytest.raises(MeshInconsistencyError, match="translate landed on an injective"):
        knit(w3)


def test_knit_rejects_two_nodes_with_one_translate(monkeypatch, w3):
    G = knit(w3)
    x, y = [n for n in G.nodes if not n.projective][:2]
    tau_x = G.meshes[x.index].left_term
    _patch_meshes(monkeypatch, lambda M, seq: _mesh(seq, left_term=tau_x)
                  if M.word == y.word else seq)
    with pytest.raises(MeshInconsistencyError, match="translate pairing is not injective"):
        knit(w3)


def test_knit_rejects_a_translate_pairing_that_misses_a_node(monkeypatch, w3):
    """A node wrongly taken for a projective gets no translate, so one non-injective
    node is nobody's translate."""
    x = next(n for n in knit(w3).nodes if not n.projective)
    real = artheory._projective_tops
    monkeypatch.setattr(artheory, "_projective_tops", lambda p: {**real(p), x.word.walk: "1"})
    with pytest.raises(MeshInconsistencyError, match="translate pairing is not onto"):
        knit(w3)


def test_knit_rejects_meshes_that_are_not_symmetric(monkeypatch, w3):
    """One middle term counted twice: two arrows into the node, one out of its translate."""
    G = knit(w3)
    x = next(n for n in G.nodes if not n.projective and G.meshes[n.index].alpha == 1)

    def doubled(M, seq):
        if M.word != x.word:
            return seq
        return _mesh(seq, middle=seq.middle * 2, right_maps=seq.right_maps * 2)

    _patch_meshes(monkeypatch, doubled)
    with pytest.raises(MeshInconsistencyError, match="mesh symmetry fails at"):
        knit(w3)


# --- the one surgery per mesh against the translate round trip --------------


def _presentations(name):
    """A LADDER name, S0-S7, or W24."""
    return [make_family("W", n=24).presentation] if name == "W24" else _ladder_or_stress(name)


def _mesh_parts(seq):
    """A mesh's words (left, middles, right) and its maps' nonzeros, all in order."""
    to_str = seq.left_term.rep.field.to_str
    words = [walk_to_text(m.word.walk) for m in (seq.left_term, *seq.middle, seq.right_term)]
    maps = [[(v, i, j, to_str(c)) for v, i, j, c in f.nonzeros]
            for f in seq.left_maps + seq.right_maps]
    return words, maps


def _off_the_oracle(p, G):
    """The nodes whose knitted mesh is not the one the round-trip oracle builds."""
    return [x for x, seq in G.meshes.items()
            if _mesh_parts(seq) != _mesh_parts(round_trip.ending_at(p, G.nodes[x].module))]


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("name", [*LADDER, "S0-S7", "W24"])
def test_knit_builds_the_meshes_of_the_round_trip(name, char):
    """knit's mesh from one "end" surgery is the one the oracle builds from
    the translate: the same middle words in the same order, and every
    left and right map with the same nonzeros (r_2's sign included) in the
    same order."""
    for p in _presentations(name):
        G = knit(p, field_for_characteristic(char))
        assert len(G.meshes) == sum(not n.projective for n in G.nodes)
        assert _off_the_oracle(p, G) == []


BANDED = {"EX3": EX3_SOURCE, "LOOP_IN": LOOP_IN_SOURCE, "KRONECKER": KRONECKER_SOURCE}
# over its strings of length at most 7: the meshes ending at them with one and
# with two middle terms and the projectives refused, the same starting at them
# (injectives refused), and the steps of their 6-step translate orbits
BANDED_OUTCOMES = {
    "EX3": ((4, 24, 4), (4, 24, 4), 134),
    "LOOP_IN": ((2, 3, 2), (2, 3, 2), 20),
    "KRONECKER": ((2, 12, 2), (2, 12, 2), 74),
}


def _outcome(call, read):
    """read(what call returns), or the class of the domain error it raises."""
    try:
        return read(call())
    except StringAlgebraError as e:
        return type(e)


def _orbit_words(orbit):
    return [walk_to_text(m.word.walk) for m in orbit]


def _oracle_orbit(p, M, k):
    """`tau_orbit(p, M, k).modules`, each step the left term of the oracle's mesh."""
    out = [M]
    while len(out) <= k and not is_projective_word(p, out[-1].word.walk):
        out.append(round_trip.ending_at(p, out[-1]).left_term)
    return out


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("name", list(BANDED))
def test_banded_meshes_and_orbits_are_the_round_trips(name, char):
    """Where knit never runs: for every string of length at most 7,
    `ar_sequence` on both sides and every step of `tau_orbit` give the
    round-trip oracle's meshes, with the same words and the same map
    nonzeros in order, or raise the same error class.  Every string has a
    mesh on one side at least."""
    p, field = parse_presentation(BANDED[name]), field_for_characteristic(char)
    oracles = {"endingAt": round_trip.ending_at, "startingAt": round_trip.starting_at}
    seen = Counter()
    for sw in enumerate_strings(p, max_len=7):
        M, text = realize(p, sw, field), walk_to_text(sw.walk)
        for side, oracle in oracles.items():
            got = _outcome(lambda: ar_sequence(p, M, side), _mesh_parts)
            assert got == _outcome(lambda: oracle(p, M), _mesh_parts), (text, side)
            seen[side, got if isinstance(got, type) else len(got[0]) - 2] += 1
        orbit = _outcome(lambda: tau_orbit(p, M, 6).modules, _orbit_words)
        assert orbit == _outcome(lambda: _oracle_orbit(p, M, 6), _orbit_words), text
        seen["steps"] += len(orbit) - 1
    (e1, e2, proj), (s1, s2, inj), steps = BANDED_OUTCOMES[name]
    assert seen == {("endingAt", 1): e1, ("endingAt", 2): e2, ("endingAt", IsProjectiveError): proj,
                    ("startingAt", 1): s1, ("startingAt", 2): s2, ("startingAt", IsInjectiveError): inj,
                    "steps": steps}


def _trivial_translate_branch(p, walk):
    """None unless the translate of M(walk) is a trivial word; else whether the
    "start" surgery on it lays out the pieces of the "end" surgery on walk as
    they lie ("kept", middles reversed) or mirrored."""
    t, mids, far = artheory._surgery(p, walk, "end")
    tau, s = far
    if not tau.is_trivial:
        return None
    _, start_mids, start_far = artheory._surgery(p, tau, "start")
    line = [(tau, 0), *start_mids, start_far]
    kept = [(w, x - s) for w, x in (far, *mids[::-1], t)]
    mirrored = [(w.inverse(), s - x - len(w)) for w, x in (far, *mids, t)]
    assert (line == kept) != (line == mirrored)
    return "kept" if line == kept else "mirrored"


def test_both_trivial_translate_branches_occur():
    """knit mirrors the pieces of a mesh whose translate e(v) is trivial unless
    the letter just left of v is arrows_into(v)[0]; the ladder and S0-S7 each
    have meshes of both kinds."""
    def branches(names):
        quivers = [(p, knit(p)) for name in names for p in _ladder_or_stress(name)]
        return Counter(_trivial_translate_branch(p, G.nodes[x].word.walk)
                       for p, G in quivers for x in G.meshes)

    assert branches(LADDER) == {None: 132, "mirrored": 46, "kept": 2}
    assert branches(["S0-S7"]) == {None: 143, "mirrored": 21, "kept": 7}


def test_an_end_surgery_with_its_middles_swapped_is_caught(monkeypatch):
    """A mutant that swaps the middles of the "end" surgery only: on every
    ladder algebra knit raises or leaves the round-trip oracle (which reads
    no "end" surgery: its translate comes from `_translate_word`)."""
    real = artheory._surgery

    def swapped(p, walk, direction):
        t, mids, far = real(p, walk, direction)
        return t, mids[::-1] if direction == "end" else mids, far

    monkeypatch.setattr(artheory, "_surgery", swapped)
    for name in LADDER:
        p = _ladder_or_stress(name)[0]
        try:
            G = knit(p)
        except MeshInconsistencyError:
            continue
        assert _off_the_oracle(p, G), name


def test_a_broken_start_surgery_fails_the_round_trip_but_not_knit(monkeypatch):
    """A mutant whose "start" surgery returns its first middle as the far
    term (the right end's operation skipped): the round-trip oracle raises on
    every mesh of W(5), while knit and `ar_sequence(..., "endingAt")`, which
    run no "start" surgery, build every mesh as before."""
    p = make_family("W", n=5).presentation
    before = [_mesh_parts(seq) for seq in knit(p).meshes.values()]
    real = artheory._surgery

    def broken(p, walk, direction):
        t, mids, far = real(p, walk, direction)
        return t, mids, mids[0] if direction == "start" else far

    monkeypatch.setattr(artheory, "_surgery", broken)
    G = knit(p)
    assert [_mesh_parts(seq) for seq in G.meshes.values()] == before
    for x, parts in zip(G.meshes, before):
        assert _mesh_parts(ar_sequence(p, G.nodes[x].module, "endingAt")) == parts
        with pytest.raises(MeshInconsistencyError):
            round_trip.ending_at(p, G.nodes[x].module)


@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_an_inverse_walk_visits_the_vertices_in_reverse(name):
    """Why a piece whose walk is the inverse of the canonical one reads the
    module's coordinates in reverse."""
    for p in _ladder_or_stress(name):
        for sw in enumerate_strings(p):
            w = sw.walk
            assert strings.walk_vertices(p, w.inverse()) == strings.walk_vertices(p, w)[::-1]


@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_a_module_basis_lies_along_its_walk(name):
    """On every node, `realize` puts position j of the canonical walk over the
    walk's vertex j, numbered within its vertex in walk order; the reversed
    coordinates that `_RawPiece` gives the inverse walk lie along that walk."""
    for p in _ladder_or_stress(name):
        resolve = artheory._Resolver(p, field_for_characteristic(0))
        for sw in enumerate_strings(p):
            M = resolve[sw.walk][0]
            verts = strings.walk_vertices(p, M.word.walk)
            assert [v for v, _ in M.basis] == verts
            assert [i for v, i in M.basis] == [verts[:j].count(v) for j, v in enumerate(verts)]
            for walk in (sw.walk, sw.walk.inverse()):
                piece = artheory._RawPiece(resolve, walk, 0)
                assert piece.module is M
                assert [v for v, _ in piece.coord] == strings.walk_vertices(p, walk)


@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_both_resolvers_return_the_module_of_the_walk_they_are_given(name):
    """`_RawPiece` reads a piece's orientation from `canonical_walk` alone, so
    the module a resolver gives a walk must have the walk's canonical walk as
    its word: a `_Resolver` over a field, and one filled, as knit fills it,
    with a knitted quiver's modules."""
    for p in _ladder_or_stress(name):
        q = knit(p)
        resolvers = [artheory._Resolver(p, q.field, [n.module for n in q.nodes]),
                     artheory._Resolver(p, field_for_characteristic(0))]
        for sw in enumerate_strings(p):
            for walk in (sw.walk, sw.walk.inverse()):
                canon = strings.canonical_walk(p, walk)
                for resolve in resolvers:
                    assert resolve[canon][0].word.walk == canon
                    assert resolve[walk][0] is resolve[canon][0]


def test_knit_validates_no_enumerated_string_again(monkeypatch):
    """`enumerate_strings` gives canonical strings, so knit realizes them
    unchecked: `knit(W(9))` calls `is_string` on none of its 51 strings (it
    called it once per string when each went through `realize`).  The
    public `realize` keeps its check."""
    checked, calls = strings.is_string, []

    def counted(p, walk):
        calls.append(walk)
        return checked(p, walk)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "stringar"]:
        if getattr(module, "is_string", None) is checked:
            monkeypatch.setattr(module, "is_string", counted)
    p = make_family("W", n=9).presentation
    q = knit(p)
    assert len(q.nodes) == 51 and calls == []
    realize(p, q.nodes[-1].word)
    assert calls == [q.nodes[-1].word.walk]
    with pytest.raises(NotAStringError):
        realize(p, walk_from_text("b1 b2"))


@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_the_pieces_of_a_mesh_lie_on_one_line(name):
    """Surgery places every piece of a mesh, in both directions, on the line
    of positions of the word it starts from (that word at start 0): two
    pieces agree on the vertex at each position they share and on the letter
    between two shared positions.  In a mesh (direction "start") the left
    term and the far term nest in each middle term or contain it."""
    for p in _ladder_or_stress(name):
        for sw in enumerate_strings(p):
            for direction in ("start", "end"):
                if artheory._is_standard_word(p, sw.walk, projective=direction == "end"):
                    continue
                t, mids, far = artheory._surgery(p, sw.walk, direction)
                assert t == (sw.walk, 0) and far is not None
                lines = []
                for walk, start in [t, *mids, far]:
                    verts = strings.walk_vertices(p, walk)
                    lines.append(({start + j: v for j, v in enumerate(verts)},
                                  {start + j: l for j, l in enumerate(walk.letters)}))
                for (va, la), (vb, lb) in itertools.combinations(lines, 2):
                    assert all(va[x] == vb[x] for x in va.keys() & vb.keys())
                    assert all(la[x] is lb[x] for x in la.keys() & lb.keys())
                if direction == "start":
                    for m in mids:
                        for other in (t, far):
                            a, b = set(_positions(m)), set(_positions(other))
                            assert a <= b or b <= a


def _positions(piece):
    walk, start = piece
    return range(start, start + len(walk.letters) + 1)


def _walk_piece(name):
    """The longest string of a ladder algebra, its resolver and its piece at start 0."""
    family, m, n = LADDER[name]
    p = make_family(family, m=m, n=n).presentation
    walk = max((sw.walk for sw in enumerate_strings(p)), key=len)
    resolve = artheory._Resolver(p, field_for_characteristic(0))
    return p, walk, resolve


@pytest.mark.parametrize("name", ["W5", "U3_3", "V3_4"])
@pytest.mark.parametrize("inverse", [False, True], ids=["canonical", "inverse"])
def test_a_graph_map_reads_shared_positions_at_both_extreme_offsets(name, inverse):
    """A run of `size` positions of a walk, cut by the oracle's `_segment` at
    offset 0 or at the length difference, maps into the whole walk and the
    whole walk onto it: position j of the run goes to position lo + j of the
    walk, over the walk's vertex there, both ways round."""
    p, walk, resolve = _walk_piece(name)
    walk = walk.inverse() if inverse else walk
    verts = strings.walk_vertices(p, walk)
    whole = artheory._RawPiece(resolve, walk, 0)
    n = len(verts)
    assert n >= 4
    one = field_for_characteristic(0).one()
    for size in range(1, n + 1):
        for lo in (0, n - size):
            run = artheory._RawPiece(resolve, *_segment(p, (walk, 0), lo, lo + size))
            assert run.start == lo
            shared = [(run.coord[j], whole.coord[lo + j], verts[lo + j]) for j in range(size)]
            assert all(r[0] == w[0] == v for r, w, v in shared)
            into = artheory._graph_map(run, whole)
            onto = artheory._graph_map(whole, run)
            assert sorted(into.nonzeros) == sorted((v, w[1], r[1], one) for r, w, v in shared)
            assert sorted(onto.nonzeros) == sorted((v, r[1], w[1], one) for r, w, v in shared)


@pytest.mark.parametrize("name", ["W5", "U3_3", "V3_4"])
def test_a_graph_map_refuses_disjoint_and_crossing_ranges(name):
    """Pieces whose position ranges neither nest nor coincide share no graph
    map: the same walk one position along crosses it, and a walk placed
    after its last position, or far off, is disjoint from it."""
    p, walk, resolve = _walk_piece(name)
    n = len(walk.letters) + 1
    whole = artheory._RawPiece(resolve, walk, 0)
    head = _segment(p, (walk, 0), 0, 2)[0]
    crossing = [(walk, 1), (walk, -1), (head, n - 1), (head, -1)]
    disjoint = [(walk, n), (walk, -n), (head, n), (head, -2), (head, 100)]
    for piece in crossing + disjoint:
        other = artheory._RawPiece(resolve, *piece)
        for src, dst in ((whole, other), (other, whole)):
            with pytest.raises(MeshInconsistencyError, match="mesh words do not nest"):
                artheory._graph_map(src, dst)


@pytest.mark.parametrize("name", [*LADDER, "S0-S7"])
def test_reach_is_the_ends_of_the_arrow_paths(name):
    """`ARQuiver.reach(x, m)` lists, for k = 0..m, the ends of the paths of k
    arrows from x (with into=True the starts of those to x), as every path
    of up to six arrows, spelled out, gives them; a shorter query after a
    longer one reads the same memoised walk."""
    for p in _ladder_or_stress(name):
        G = knit(p)
        paths = [[(a.source, a.target)] for a in G.arrows]
        ends = {(x.index, k): set() for x in G.nodes for k in range(7)}
        starts = {(x.index, k): set() for x in G.nodes for k in range(7)}
        for x in G.nodes:
            ends[x.index, 0].add(x.index)
            starts[x.index, 0].add(x.index)
        for k in range(1, 7):
            for path in paths:
                ends[path[0][0], k].add(path[-1][1])
                starts[path[-1][1], k].add(path[0][0])
            paths = [path + [(b.source, b.target)]
                     for path in paths for b in G.arrows_from(path[-1][1])]
        for x in G.nodes:
            assert G.reach(x.index, 6) == [ends[x.index, k] for k in range(7)]
            assert G.reach(x.index, 6, into=True) == [starts[x.index, k] for k in range(7)]
            assert G.reach(x.index, 2) == [ends[x.index, k] for k in range(3)]
