import json

import pytest

from stringar import (
    audit_theorems,
    detect_local_patterns,
    find_tau_arrows,
    find_three_cycles,
    knit,
    parse_presentation,
    path_class,
    realize,
    standard_module,
    tau_orbit,
    walk_from_text,
)
from stringar.errors import BandFoundError, MeshInconsistencyError


def test_detect_ex3_is_a_parallel_route_match(ex3):
    matches = detect_local_patterns(ex3)
    q3 = [m for m in matches if m.pattern_id == "Q3"]
    assert len(q3) == 1
    m = q3[0]
    assert m.binding["m"] == 2
    assert m.binding["route"] == ["g1", "g2"]
    assert m.binding["a"] == "4"
    assert all(ok for _, ok in m.conditions)


def test_detect_loop_with_dead_bridge_is_q1():
    p = parse_presentation(
        "vertices a x\narrow al a -> a\narrow be a -> x\nrelation al al\nrelation al be\n"
    )
    matches = detect_local_patterns(p)
    assert any(m.pattern_id == "Q1" and m.binding == {"a": "a", "x": "x"} for m in matches)


def test_detect_linear_a3_empty():
    p = parse_presentation("vertices 1 2 3\narrow a 1 -> 2\narrow b 2 -> 3\n")
    assert detect_local_patterns(p) == []


def test_detect_w3_has_loop_out(w3):
    matches = detect_local_patterns(w3)
    ids = {m.pattern_id for m in matches}
    assert "loop-out" in ids
    lo = next(m for m in matches if m.pattern_id == "loop-out")
    assert lo.binding == {"1": "1", "2": "2"}


def test_detect_loop_in(loop_in):
    matches = detect_local_patterns(loop_in)
    assert any(m.pattern_id == "loop-in" and m.binding == {"1": "1", "2": "2"} for m in matches)


def test_find_tau_arrows_w3(w3, w3_quiver):
    pairs = find_tau_arrows(w3, quiver=w3_quiver)
    texts = {(a.word.walk, b.word.walk) for a, b in pairs}
    M = walk_from_text("a^- b1")
    tauM = walk_from_text("b1")
    assert any(x == M and y == tauM for x, y in texts)


def test_find_tau_arrows_banded_candidate(ex3):
    I4 = standard_module(ex3, "4", "injective")
    pairs = find_tau_arrows(ex3, candidates=[I4])
    assert len(pairs) == 1
    assert pairs[0][0].word == I4.word


def test_find_tau_arrows_hereditary_a2_empty():
    p = parse_presentation("vertices 1 2\narrow a 1 -> 2\n")
    assert find_tau_arrows(p, quiver=knit(p)) == []


def test_three_cycles_w3(w3_quiver):
    cycles = find_three_cycles(w3_quiver)
    assert len(cycles) == 3
    cycle_nodes = {
        frozenset(w3_quiver.nodes[a.source].text for a in c) for c in cycles
    }
    assert frozenset({"b1^- a b1", "a^- b1", "b1"}) in cycle_nodes


def test_three_cycles_linear_empty():
    p = parse_presentation("vertices 1 2 3\narrow a 1 -> 2\narrow b 2 -> 3\n")
    assert find_three_cycles(knit(p)) == []


def test_cycles_iff_tau_arrows(w3, w3_quiver, u21, u21_quiver):
    for p, G in ((w3, w3_quiver), (u21, u21_quiver)):
        assert bool(find_three_cycles(G)) == bool(find_tau_arrows(p, quiver=G))


def test_path_class_sectional(w3_quiver):
    G = w3_quiver
    nodes = [
        G.node_of(walk_from_text("e(4)")).index,
        G.node_of(walk_from_text("b3")).index,
        G.node_of(walk_from_text("b2 b3")).index,
    ]
    pc = path_class(G, nodes)
    assert pc.is_sectional
    assert pc.is_presectional


def test_path_class_not_sectional(w3_quiver):
    G = w3_quiver
    # S3 -> I3 -> S2 with tau(S2) = S3 violates sectionality at the last step
    nodes = [
        G.node_of(walk_from_text("e(3)")).index,
        G.node_of(walk_from_text("b2")).index,
        G.node_of(walk_from_text("e(2)")).index,
    ]
    pc = path_class(G, nodes)
    assert not pc.is_sectional


def test_path_class_rejects_non_path(w3_quiver):
    G = w3_quiver
    with pytest.raises(MeshInconsistencyError):
        path_class(G, [0, 0])


def test_audit_w3_passes(w3):
    report = audit_theorems(w3, samples=8, seed=3)
    assert report.passed
    assert all(a["passed"] for a in report.audits.values())
    assert report.stats["threeCycles"] == 3


def test_audit_u_families_pass(u21, u22):
    for p in (u21, u22):
        report = audit_theorems(p, samples=8, seed=3)
        assert report.passed


def test_audit_deterministic(w3):
    a = json.dumps(audit_theorems(w3, samples=6, seed=42).as_dict(), sort_keys=True)
    b = json.dumps(audit_theorems(w3, samples=6, seed=42).as_dict(), sort_keys=True)
    assert a == b
    c = json.dumps(audit_theorems(w3, samples=6, seed=43).as_dict(), sort_keys=True)
    assert a != c  # the seed is actually consumed


@pytest.mark.parametrize("samples", [0, -3])
def test_audit_rejects_a_sample_count_below_one(w3, samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        audit_theorems(w3, samples=samples)


def test_audit_banded_raises(ex3):
    with pytest.raises(BandFoundError):
        audit_theorems(ex3, samples=2, seed=0)


def _simple_cycles(G, max_len):
    """All simple directed node cycles up to max_len, as index tuples."""
    out = []

    def grow(path):
        tip = path[-1]
        for a in G.arrows_from(tip):
            if a.target == path[0] and len(path) > 1:
                out.append(tuple(path))
            elif a.target not in path and len(path) < max_len:
                grow(path + [a.target])

    for n in G.nodes:
        grow([n.index])
    return out


def test_every_cycle_carries_mono_and_epi(w3_quiver):
    # not just 3-cycles: every directed cycle of irreducible arrows mixes
    G = w3_quiver
    for cyc in _simple_cycles(G, 6):
        arrows = []
        for i in range(len(cyc)):
            arrows.append(G.arrows_between(cyc[i], cyc[(i + 1) % len(cyc)])[0])
        assert any(a.morphism.is_mono() for a in arrows)
        assert any(a.morphism.is_epi() for a in arrows)


def test_tau_period_three_for_all_translate_pairs(w3, w3_quiver, loop_in):
    from stringar import knit as _knit, tau_orbit as _orbit

    for p, G in ((w3, w3_quiver), (loop_in, _knit(loop_in))):
        for M, tM in find_tau_arrows(p, quiver=G):
            orbit = _orbit(p, M, 3)
            if orbit.hit_projective:
                continue
            assert orbit.modules[3].word == M.word


def test_audit_v21_and_loop_in_pass(v21, loop_in):
    for p in (v21, loop_in):
        assert audit_theorems(p, samples=6, seed=11).passed


def test_banded_orbit_modules_keep_translate_arrows(ex3):
    # finitely many instances of the component claim: modules along the
    # injective's orbit keep an irreducible morphism to their translate
    I4 = standard_module(ex3, "4", "injective")
    orbit = tau_orbit(ex3, I4, 6)
    pairs = find_tau_arrows(ex3, candidates=orbit.modules[:5])
    assert len(pairs) == 5
