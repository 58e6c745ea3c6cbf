import math

import pytest

from stringar import (
    FamilySpec,
    PresentationSyntaxError,
    audit_theorems,
    enumerate_strings,
    knit,
    nonzero_path_count,
    parse_presentation,
    serialize_presentation,
    validate_string_algebra,
    witness,
)
from stringar.errors import CompositionError, NotStringAlgebraError


def test_parse_w3_shape(w3):
    assert w3.name == "W3"
    assert len(w3.quiver.vertices) == 4
    assert len(w3.quiver.arrows) == 4
    assert w3.relations == (("a", "a"), ("b1", "b2"))


def test_parse_vertices_only():
    p = parse_presentation("vertices 1\n")
    assert p.quiver.vertices == ("1",)
    assert p.quiver.arrows == ()


def test_parse_rejects_non_composable_relation():
    src = "vertices 1 2 3 4\narrow b1 1 -> 2\narrow b2 2 -> 3\nrelation b2 b1\n"
    with pytest.raises(CompositionError):
        parse_presentation(src)


def test_parse_rejects_length_one_relation():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("vertices 1\narrow a 1 -> 1\nrelation a\n")


def test_syntax_error_carries_line():
    try:
        parse_presentation("vertices 1\nfrobnicate x\n")
    except PresentationSyntaxError as exc:
        assert exc.line == 2
    else:
        raise AssertionError("expected a syntax error")


def test_roundtrip_is_byte_stable(w3):
    once = serialize_presentation(w3)
    again = serialize_presentation(parse_presentation(once))
    assert once == again
    assert parse_presentation(once) == w3


def test_relation_normalization_drops_factors():
    src = (
        "vertices 1 2 3 4\narrow a 1 -> 2\narrow b 2 -> 3\narrow c 3 -> 4\n"
        "relation a b\nrelation a b c\n"
    )
    p = parse_presentation(src)
    assert p.relations == (("a", "b"),)


def test_validate_w3_all_pass(w3):
    report = validate_string_algebra(w3)
    assert report.is_string_algebra
    assert [c.passed for c in report.conditions] == [True] * 5


def test_validate_three_arrows_out_fails_condition_one():
    src = "vertices 0 1 2 3\narrow x 0 -> 1\narrow y 0 -> 2\narrow z 0 -> 3\n"
    report = validate_string_algebra(parse_presentation(src))
    by_key = {c.key: c for c in report.conditions}
    assert not by_key["1"].passed
    assert "0" in by_key["1"].witness
    assert not report.is_string_algebra


def test_validate_two_admissible_predecessors_fails_condition_two():
    src = "vertices 1 2 3 4\narrow g 1 -> 2\narrow d 3 -> 2\narrow b 2 -> 4\n"
    report = validate_string_algebra(parse_presentation(src))
    by_key = {c.key: c for c in report.conditions}
    assert not by_key["2"].passed
    assert "b" in by_key["2"].witness


def _brute_force_paths(p):
    """Independent oracle: breadth-first path enumeration pruning relation factors."""
    total = len(p.quiver.vertices)
    layer = [(v, ()) for v in p.quiver.vertices]
    while layer:
        nxt = []
        for end, labels in layer:
            for a in p.quiver.arrows_from(end):
                cand = labels + (a.label,)
                if not p.path_in_ideal(cand):
                    nxt.append((a.target, cand))
        total += len(nxt)
        layer = nxt
        assert total < 1000
    return total


def test_path_count_w3(w3):
    assert nonzero_path_count(w3) == 10
    assert nonzero_path_count(w3) == _brute_force_paths(w3)


def test_path_count_unbounded_loop():
    p = parse_presentation("vertices 1\narrow a 1 -> 1\n")
    assert nonzero_path_count(p) == math.inf


def test_path_count_single_vertex():
    assert nonzero_path_count(parse_presentation("vertices 1\n")) == 1


def test_path_count_matches_brute_force(u21, u22, u31, ex3, loop_in):
    for p in (u21, u22, u31, ex3, loop_in):
        assert nonzero_path_count(p) == _brute_force_paths(p)


def test_validation_is_pure(w3):
    a = validate_string_algebra(w3)
    b = validate_string_algebra(w3)
    assert [c.as_dict() for c in a.conditions] == [c.as_dict() for c in b.conditions]


@pytest.mark.parametrize(
    "src, key",
    [
        ("vertices 0 1 2 3\narrow x 0 -> 1\narrow y 0 -> 2\narrow z 0 -> 3\n", "1"),
        ("vertices 1 2 3 4\narrow g 1 -> 2\narrow d 3 -> 2\narrow b 2 -> 4\n", "2"),
    ],
    ids=["three-out", "two-predecessors"],
)
def test_entry_points_reject_a_non_string_algebra(src, key):
    p = parse_presentation(src)
    spec = FamilySpec("W", None, 3, p)
    for call in (enumerate_strings, knit, audit_theorems, lambda q: witness(spec)):
        with pytest.raises(NotStringAlgebraError) as info:
            call(p)
        assert info.value.condition.key == key
        assert not info.value.condition.passed
