"""Surgery by hooks against the letter-by-letter oracle.

`artheory._surgery` attaches each end's hook or cohook as one memoised
letter tuple (`_hook`) and strips a deletion's end run in one cut; the
oracle (`tests/oracles/surgery.py`) climbs every letter on the whole walk.
They meet on every non-projective and every non-injective string, in both
orientations, of the ladder, of S0-S7 and of the band-free string algebras
among a seeded slice of the random presentations.
"""

import functools

import pytest

from stringar import enumerate_strings
from stringar.artheory import (
    _hook,
    _is_standard_word,
    _surgery,
    _translate_word,
)
from stringar.presentation import validate_string_algebra
from stringar.strings import has_band
from tests.conftest import LADDER
from tests.oracles import surgery
from tests.test_stress import _ladder_or_stress, random_presentations

NAMES = [*LADDER, "S0-S7", "generated"]


@functools.lru_cache(maxsize=None)
def _generated():
    """The band-free string algebras among the first 1,000 seeded presentations."""
    return tuple(
        p for p in random_presentations(20261018, 1000)
        if validate_string_algebra(p).is_string_algebra and not has_band(p)
    )


def _algebras(name):
    return _generated() if name == "generated" else _ladder_or_stress(name)


def _cases(p):
    """(walk, direction) for every string in both orientations and each
    direction with a mesh: "start" off the injectives, "end" off the projectives."""
    for sw in enumerate_strings(p):
        for direction in ("start", "end"):
            if not _is_standard_word(p, sw.walk, projective=direction == "end"):
                for walk in (sw.walk, sw.walk.inverse()):
                    yield walk, direction


def test_the_slice_holds_enough_algebras():
    assert len(_generated()) >= 200


@pytest.mark.parametrize("name", NAMES)
def test_surgery_matches_the_oracle_in_both_directions(name):
    """The pieces (walk, start) agree, the middles in the same order, and the
    translate is the oracle's far term."""
    count = 0
    for p in _algebras(name):
        for walk, direction in _cases(p):
            t, mids, far = _surgery(p, walk, direction)
            assert (t, mids, far) == surgery.surgery(p, walk, direction), (walk, direction)
            assert far is not None
            assert _translate_word(p, walk, direction) == far[0]
            count += 1
    assert count > 0


@pytest.mark.parametrize("name", NAMES)
def test_a_memoised_hook_is_the_climb_on_the_whole_walk(name):
    """At every string end where an addition applies, the hook `_hook` climbed
    on its own letters (or found in the memo) is what the oracle climbs on
    the whole walk; a fresh memo gives it too."""
    count = 0
    for p in _algebras(name):
        for walk, direction in _cases(p):
            for side, arrow in zip(("left", "right"), surgery.side_arrows(p, walk, direction)):
                if arrow is None:
                    continue
                expected = surgery.climb(p, walk, direction, side, arrow)
                assert _hook(p, side, direction, arrow) == expected, (walk, direction, side)
                memo, p.hooks = p.hooks, {}
                try:
                    assert _hook(p, side, direction, arrow) == expected
                finally:
                    p.hooks = memo
                count += 1
    assert count > 0
