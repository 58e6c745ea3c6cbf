import copy
import pickle
import random

import pytest

from stringar import (
    BandFoundError,
    Letter,
    Walk,
    canonicalize,
    enumerate_strings,
    find_bands,
    has_band,
    is_string,
    make_family,
    parse_presentation,
    string_flags,
    string_word,
    walk_from_text,
    walk_to_text,
)
from stringar.errors import NotAStringError, UnknownLabelError
from stringar.strings import _is_band, attach_candidates, canonical_band, canonical_walk, walk_key
from tests.conftest import LADDER
from tests.oracles import whole_word_strings
from tests.test_stress import _generated_string_algebras
from tests.test_surgery import _algebras


def test_is_string_backtrack_not_reduced(w3):
    chk = is_string(w3, walk_from_text("b1 b1^-"))
    assert not chk.ok
    assert "reduced" in chk.reason
    assert chk.index == 0


def test_is_string_accepts_a_b1(w3):
    # neither a, b1, nor the path a b1 contains a relation factor
    assert is_string(w3, walk_from_text("a b1")).ok


def test_is_string_rejects_relation_factor(w3):
    chk = is_string(w3, walk_from_text("b1 b2"))
    assert not chk.ok
    assert "b1 b2" in chk.reason


def test_is_string_rejects_inverse_relation_factor(w3):
    chk = is_string(w3, walk_from_text("b2^- b1^-"))
    assert not chk.ok
    assert "inverse" in chk.reason


def test_is_string_unknown_label(w3):
    with pytest.raises(UnknownLabelError):
        is_string(w3, walk_from_text("zz"))


def test_canonicalize_trivial(w3):
    w = string_word(w3, Walk(basepoint="2"))
    assert canonicalize(w3, w) == w


def test_canonicalize_inverse_pair(w3):
    a = string_word(w3, walk_from_text("b2 b3"))
    b = string_word(w3, walk_from_text("b3^- b2^-"))
    assert a == b
    assert canonicalize(w3, a) == canonicalize(w3, b)


def test_canonicalize_idempotent_and_inversion_invariant(w3):
    for sw in enumerate_strings(w3):
        assert canonical_walk(w3, sw.walk) == sw.walk
        assert canonical_walk(w3, sw.walk.inverse()) == sw.walk


def test_w3_canonical_forms_pairwise_distinct(w3):
    words = enumerate_strings(w3)
    assert len({sw.walk for sw in words}) == len(words) == 12


def test_flags_injective_word_on_peaks(w3):
    # I(4) = M(b2 b3) starts and ends on a peak; it is also P(2), hence in deeps
    flags = string_flags(w3, string_word(w3, walk_from_text("b2 b3")))
    assert flags.starts_on_peak and flags.ends_on_peak
    assert flags.starts_in_deep and flags.ends_in_deep


def test_flags_projective_word_in_deeps(w3):
    flags = string_flags(w3, string_word(w3, walk_from_text("b1^- a b1")))
    assert flags.starts_in_deep and flags.ends_in_deep


def test_flags_isolated_trivial_all_four():
    p = parse_presentation("vertices 1 2\narrow a 1 -> 1\nrelation a a\n")
    flags = string_flags(p, Walk(basepoint="2"))
    assert flags.starts_in_deep and flags.starts_on_peak
    assert flags.ends_in_deep and flags.ends_on_peak
    assert flags.is_direct and flags.is_inverse


def test_flags_swap_under_inversion(w3):
    rng = random.Random(11)
    words = enumerate_strings(w3)
    for _ in range(24):
        sw = rng.choice(words)
        f = string_flags(w3, sw.walk)
        g = string_flags(w3, sw.walk.inverse())
        assert (f.starts_in_deep, f.starts_on_peak) == (g.ends_in_deep, g.ends_on_peak)
        assert (f.ends_in_deep, f.ends_on_peak) == (g.starts_in_deep, g.starts_on_peak)


def test_double_inverse_is_identity(w3):
    for sw in enumerate_strings(w3):
        assert sw.walk.inverse().inverse() == sw.walk


def test_enumerate_w3_census(w3):
    words = enumerate_strings(w3)
    assert len(words) == 12
    assert [walk_to_text(w.walk) for w in words[:4]] == ["e(1)", "e(2)", "e(3)", "e(4)"]


def test_enumerate_max_len_zero(w3):
    words = enumerate_strings(w3, max_len=0)
    assert [walk_to_text(w.walk) for w in words] == ["e(1)", "e(2)", "e(3)", "e(4)"]


def test_enumerate_banded_raises(ex3):
    with pytest.raises(BandFoundError):
        enumerate_strings(ex3)
    assert has_band(ex3)


def test_prefix_closure(w3, u22):
    for p in (w3, u22):
        for sw in enumerate_strings(p):
            for k in range(len(sw.walk.letters)):
                assert is_string(p, Walk(sw.walk.letters[: k + 1])).ok


@pytest.mark.parametrize("length", range(7))
def test_census_matches_brute_force(w3, length):
    words, oracle = enumerate_strings(w3), whole_word_strings.enumerate_strings(w3)
    assert sum(1 for w in words if len(w.walk) == length) == sum(1 for w in oracle if len(w) == length)


@pytest.mark.parametrize("name", [*LADDER, "S0-S7", "generated"])
def test_enumeration_is_the_whole_word_enumeration(name):
    """The full ordered list `enumerate_strings` gives, unbounded and for
    max_len 0-3, is the brute-force one: every letter tuple grown by every
    letter and checked whole, canonicalized and sorted by `walk_key`."""
    count = 0
    for p in _algebras(name):
        for max_len in (None, 0, 1, 2, 3):
            got = [sw.walk for sw in enumerate_strings(p, max_len)]
            assert got == whole_word_strings.enumerate_strings(p, max_len), (p, max_len)
            count += 1
    assert count >= 5


def test_band_search_finds_the_bands_among_the_brute_force_strings():
    """`find_bands` grows strings by `_grow`, as `enumerate_strings` and
    `has_band` do: on the seeded string algebras, banded or not, its bands
    up to 4 letters are the canonical bands among the brute-force strings."""
    banded = 0
    for p in _generated_string_algebras(400):
        layers = whole_word_strings.string_layers(p, 4)
        want = {canonical_band(p, w).letters for layer in layers for w in layer if _is_band(p, w)}
        got = find_bands(p, 4)
        assert [b.letters for b in got] == sorted(want, key=lambda w: walk_key(p, Walk(w)))
        banded += bool(got)
    assert banded > 20


def test_find_bands_w3_empty(w3):
    assert find_bands(w3, 10) == []


def test_find_bands_ex3_contains_the_cycle(ex3):
    bands = find_bands(ex3, 6)
    assert len(bands) == 1
    letters = {(l.arrow, l.inverse) for l in bands[0].letters}
    assert ("g1", False) in letters and ("g2", False) in letters and ("al", True) in letters


def test_find_bands_acyclic_empty(u21):
    assert find_bands(u21, 8) == []


def test_band_canonical_under_rotation(ex3):
    bands = find_bands(ex3, 6)
    b = bands[0]
    rolled = Walk(b.letters[1:] + b.letters[:1])
    assert find_bands(ex3, 6)[0] == b
    from stringar.strings import canonical_band

    assert canonical_band(ex3, rolled.letters) == b
    assert canonical_band(ex3, b.inverse().letters) == b


def test_long_relation_power_is_not_a_band():
    # a loop killed only by its 5th power pumps no band
    p = parse_presentation("vertices 1\narrow a 1 -> 1\nrelation a a a a a\n")
    assert find_bands(p, 4) == []
    assert not has_band(p)


def test_walk_text_roundtrip(w3):
    for text in ("e(3)", "b1 b2^- a", "a^- b1"):
        assert walk_to_text(walk_from_text(text)) == text


def test_enumeration_order_is_by_length_then_lex(w3):
    keys = [walk_key(w3, sw.walk) for sw in enumerate_strings(w3)]
    assert keys == sorted(keys)


def _extension_cases(p, words):
    """(walk, side, inverse) for every word and its inverse, both sides, both directions."""
    for sw in words:
        for w in dict.fromkeys((sw.walk, sw.walk.inverse())):
            for side in ("left", "right"):
                for inverse in (False, True):
                    yield w, side, inverse


def _labels(arrows):
    return [b.label for b in arrows]


def test_run_local_extension_agrees_with_the_whole_word_check():
    """The run-local `attach_candidates` against the whole-word oracle: every
    canonical string of the ladder, W(12), U(6,6), V(5,6), and up to length 5
    of the string algebras among the seeded generated presentations."""
    params = [*LADDER.values(), ("W", None, 12), ("U", 6, 6), ("V", 5, 6)]
    inputs = [(make_family(f, m=m, n=n).presentation, None) for f, m, n in params]
    inputs += [(p, 5) for p in _generated_string_algebras(3000)]
    cases = warm = 0
    for p, max_len in inputs:
        for w, side, inverse in _extension_cases(p, enumerate_strings(p, max_len)):
            memo = len(p.end_candidates)
            got = _labels(attach_candidates(p, w, side, inverse))
            want = _labels(whole_word_strings.attach_candidates(p, w, side, inverse))
            assert got == want, (p, w, side, inverse)
            cases += 1
            warm += len(p.end_candidates) == memo  # answered by another walk's entry
    assert cases > 70000 and warm > cases // 2


@pytest.mark.parametrize("name", sorted(LADDER))
def test_a_warm_end_entry_serves_another_walk_with_that_end(name):
    """Growing a string at its left end leaves its right end's window as it
    was, so the longer walk reuses the shorter one's memoised answer."""
    family, m, n = LADDER[name]
    p = make_family(family, m=m, n=n).presentation
    reused = 0
    for sw in enumerate_strings(p):
        for inverse in (False, True):
            for b in attach_candidates(p, sw.walk, "left", inverse):
                longer = Walk((Letter(b.label, inverse), *sw.walk.letters))
                for right in (False, True):
                    p.end_candidates.clear()
                    first = attach_candidates(p, sw.walk, "right", right)
                    if len(sw.walk) >= max(p.max_relation_length - 1, 1):  # same right window
                        assert attach_candidates(p, longer, "right", right) is first
                        reused += 1
                    want = whole_word_strings.attach_candidates(p, longer, "right", right)
                    assert _labels(attach_candidates(p, longer, "right", right)) == _labels(want)
    assert reused


def test_letters_are_interned():
    a = Letter("a", True)
    assert a is Letter("a", True) and a is not Letter("a")
    assert a.inverted() is Letter("a") and a.inverted().inverted() is a
    assert Letter("a") is Letter("a", False)


def test_pickle_and_copy_keep_one_letter():
    """A letter that comes back from pickle or deepcopy is the interned one, so
    a walk that comes back is equal, with an equal hash."""
    w = walk_from_text("b1 b2^- a")
    for back in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
        assert back == w and hash(back) == hash(w)
        assert all(x is y for x, y in zip(back.letters, w.letters))
    for letter in w.letters:
        assert pickle.loads(pickle.dumps(letter)) is letter
        assert copy.deepcopy(letter) is letter and copy.copy(letter) is letter


@pytest.mark.parametrize("text", ["b1 b2", "b2 b1", "b1 b1^-", "b2^- b1^-"])
def test_string_flags_reject_walks_that_are_not_strings(w3, text):
    with pytest.raises(NotAStringError):
        string_flags(w3, walk_from_text(text))


def test_string_flags_keep_the_orientation_of_a_walk(w3):
    # a walk (not a StringWord) is read as given, not canonicalised
    flags = string_flags(w3, walk_from_text("b1^- a^-"))
    inverse = string_flags(w3, walk_from_text("a b1"))
    assert (flags.starts_in_deep, flags.starts_on_peak) == (
        inverse.ends_in_deep, inverse.ends_on_peak
    )
    assert flags.is_inverse and not flags.is_direct


def test_canonical_walk_is_the_walk_key_minimum():
    """The first differing letter decides, as the whole walk_key comparison does;
    a walk equal to its inverse is its own canonical form.  Seeded random walks,
    strings or not, over the ladder's W(5) and the generated string algebras."""
    rng = random.Random("canonical-walk")
    for p in [make_family("W", n=5).presentation, *_generated_string_algebras(400)]:
        letters = [Letter(a.label, inv) for a in p.quiver.arrows for inv in (False, True)]
        for _ in range(40):
            w = Walk(rng.choice(letters) for _ in range(rng.randint(1, 6)))
            inv = w.inverse()
            want = w if walk_key(p, w) <= walk_key(p, inv) else inv
            assert canonical_walk(p, w) == want
            assert canonical_walk(p, inv) == want
        palindrome = Walk((letters[0], letters[0].inverted()))
        assert canonical_walk(p, palindrome) is palindrome
