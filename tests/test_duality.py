"""The duality D between mod A and mod A^op exchanges the two directions of
each folded helper: left and right ends, projectives and injectives."""

import pytest

from stringar import make_family, parse_presentation
from stringar.artheory import is_injective_word, is_projective_word, opposite_presentation
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
