"""The duality D between mod A and mod A^op exchanges the two directions of
each folded helper: left and right ends, projectives and injectives."""

import pytest

from stringar import make_family, parse_presentation, validate_string_algebra
from stringar.artheory import is_injective_word, is_projective_word, opposite_presentation
from stringar.configurations import detect_local_patterns
from stringar.modules import injective_word, projective_word
from stringar.strings import (
    Letter,
    Walk,
    attach_candidates,
    canonical_walk,
    enumerate_strings,
    has_band,
)
from tests.conftest import EX3_SOURCE, LOOP_IN_SOURCE, W3_SOURCE
from tests.test_stress import random_presentations

ALGEBRAS = {
    "W3": lambda: parse_presentation(W3_SOURCE),
    "EX3": lambda: parse_presentation(EX3_SOURCE),
    "LOOPIN": lambda: parse_presentation(LOOP_IN_SOURCE),
    "U2_2": lambda: make_family("U", m=2, n=2).presentation,
    "V2_3": lambda: make_family("V", m=2, n=3).presentation,
    "W5": lambda: make_family("W", n=5).presentation,
}


def flip(walk):
    """The same walk read over the opposite quiver: every letter changes direction."""
    if walk.is_trivial:
        return walk
    return Walk(Letter(l.arrow, not l.inverse) for l in walk.letters)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_folded_helpers_respect_duality(name):
    p = ALGEBRAS[name]()
    op = opposite_presentation(p)
    words = enumerate_strings(p, max_len=4 if has_band(p) else None)
    assert words
    for sw in words:
        w = sw.walk
        for inv in (False, True):
            right = [b.label for b in attach_candidates(p, w, "right", inv)]
            left = [b.label for b in attach_candidates(p, w.inverse(), "left", not inv)]
            assert right == left, (sw, inv)
        assert is_projective_word(p, w) == is_injective_word(op, flip(w)), sw
        assert is_injective_word(p, w) == is_projective_word(op, flip(w)), sw
    for v in p.quiver.vertices:
        assert canonical_walk(op, flip(projective_word(p, v))) == canonical_walk(
            op, injective_word(op, v)
        ), v
        assert canonical_walk(op, flip(injective_word(p, v))) == canonical_walk(
            op, projective_word(op, v)
        ), v


_MIRROR = {"Q1": "Q2", "Q2": "Q1", "loop-out": "loop-in", "loop-in": "loop-out", "Q3": "Q4", "Q4": "Q3"}


def _mirrored(match):
    """A match read over the opposite algebra: its mirror pattern, the route reversed."""
    binding = dict(match.binding)
    if "route" in binding:
        binding["route"] = binding["route"][::-1]
    return _MIRROR[match.pattern_id], sorted(binding.items())


def _matches(p):
    return sorted((m.pattern_id, sorted(m.binding.items())) for m in detect_local_patterns(p))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_detect_respects_duality(name):
    p = ALGEBRAS[name]()
    assert _matches(opposite_presentation(p)) == sorted(map(_mirrored, detect_local_patterns(p)))


def test_detect_respects_duality_on_generated_algebras():
    checked = 0
    for p in random_presentations(20261018, 3000):
        if validate_string_algebra(p).is_string_algebra and detect_local_patterns(p):
            op = opposite_presentation(p)
            assert _matches(op) == sorted(map(_mirrored, detect_local_patterns(p))), p.relations
            checked += 1
    assert checked > 50
