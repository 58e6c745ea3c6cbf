"""Letters, walks, strings, canonical forms, enumeration, bands.

A walk is a composable sequence of letters (arrows or formal inverses),
concatenated in diagram order: each letter ends where the next starts.
A string is a reduced walk none of whose direct subwalks, nor their
inverses, lies in the relation ideal.  The canonical representative of
a string is the lexicographic minimum of the walk and its inverse under
the letter order (arrow declaration order, direct before inverse).  No
string w = l_1...l_n is its own inverse: else l_i = l_{n+1-i}^-1, so for
odd n the middle letter is its own inverse, but inverting turns a letter
round, and for even n the middle pair is a backtrack l l^-1.  So
`enumerate_strings`, growing both orientations, keeps a word iff it is
below its inverse and lists each string once.

Letters are interned, so walks compare and hash their letters by identity;
whether a letter attaches at a string end is decided once per end window
and memoised on the presentation (`attach_candidates`).
"""

from __future__ import annotations

import functools
import itertools
import re

from .errors import BandFoundError, NotAStringError, UnknownLabelError
from .presentation import _first_factor, _layers, _pumps, require_string_algebra


_LETTERS = {}  # arrow label -> (its direct letter, its inverse letter)


class Letter:
    """One arrow, read forwards or inverted, interned: one object per (arrow, direction).

    Identity is equality, so tuples of letters compare and hash in C.  Both
    letters of an arrow are made together and stored as one pair by
    `dict.setdefault`, so callers that race to make them still share one
    pair; `inverted` returns the stored partner, and pickling or copying a
    letter interns it again.
    """

    __slots__ = ("arrow", "inverse", "_inverted")

    def __new__(cls, arrow, inverse=False):
        pair = _LETTERS.get(arrow)
        if pair is None:
            direct, inv = object.__new__(cls), object.__new__(cls)
            direct.arrow = inv.arrow = arrow
            direct.inverse, inv.inverse = False, True
            direct._inverted, inv._inverted = inv, direct
            pair = _LETTERS.setdefault(arrow, (direct, inv))
        return pair[inverse]

    def inverted(self):
        return self._inverted

    def __reduce__(self):
        return Letter, (self.arrow, self.inverse)

    def __repr__(self):
        return f"{self.arrow}^-" if self.inverse else self.arrow


class Walk:
    """A possibly-trivial walk; trivial walks carry an explicit basepoint.

    Walks are never mutated; two are equal iff their `key`s are, which hash in C.
    """

    __slots__ = ("letters", "basepoint", "key")

    def __init__(self, letters=(), basepoint=None):
        self.letters = tuple(letters)
        if not self.letters and basepoint is None:
            raise ValueError("a trivial walk needs a basepoint")
        self.basepoint = None if self.letters else basepoint
        self.key = self.letters or basepoint

    def __len__(self):
        return len(self.letters)

    @property
    def is_trivial(self):
        return not self.letters

    def inverse(self):
        if self.is_trivial:
            return self
        return Walk(tuple(l.inverted() for l in reversed(self.letters)))

    def __eq__(self, other):
        return isinstance(other, Walk) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Walk({walk_to_text(self)})"


def letter_source(p, letter):
    a = p.quiver.arrow(letter.arrow)
    return a.target if letter.inverse else a.source


def letter_target(p, letter):
    a = p.quiver.arrow(letter.arrow)
    return a.source if letter.inverse else a.target


def walk_source(p, w):
    return w.basepoint if w.is_trivial else letter_source(p, w.letters[0])


def walk_target(p, w):
    return w.basepoint if w.is_trivial else letter_target(p, w.letters[-1])


def walk_vertices(p, w):
    """The n+1 vertices visited by a length-n walk."""
    if w.is_trivial:
        return [w.basepoint]
    return [letter_source(p, w.letters[0])] + [letter_target(p, l) for l in w.letters]


class StringCheck:
    __slots__ = ("ok", "reason", "index")

    def __init__(self, ok, reason=None, index=None):
        self.ok = ok
        self.reason = reason
        self.index = index

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "StringCheck(ok)" if self.ok else f"StringCheck({self.reason!r} at {self.index})"


def is_string(p, w):
    """Decide stringhood; the reason pinpoints the first offending letter index."""
    for l in w.letters:
        if l.arrow not in p.quiver.arrow_by_label:
            raise UnknownLabelError(f"unknown arrow label {l.arrow!r}")
    if w.is_trivial:
        if w.basepoint not in p.quiver.vertex_index:
            raise UnknownLabelError(f"unknown vertex {w.basepoint!r}")
        return StringCheck(True)
    for i in range(len(w.letters) - 1):
        if letter_target(p, w.letters[i]) != letter_source(p, w.letters[i + 1]):
            return StringCheck(False, "letters do not concatenate", i)
        if w.letters[i + 1] is w.letters[i].inverted():
            return StringCheck(False, "not reduced", i)
    # relation factors live inside maximal one-direction runs
    i = 0
    for inv, run in itertools.groupby(w.letters, lambda l: l.inverse):
        labels = tuple(l.arrow for l in run)[:: -1 if inv else 1]
        hit = _first_factor(p.relations, labels)
        if hit is not None:
            off, rel = hit
            idx = i + (len(labels) - off - len(rel) if inv else off)
            kind = "inverse of a relation" if inv else "relation"
            return StringCheck(False, f"subwalk is the {kind} {' '.join(rel)}", idx)
        i += len(labels)
    return StringCheck(True)


def letter_key(p, letter):
    return (p.quiver.arrow_index[letter.arrow], 1 if letter.inverse else 0)


def walk_key(p, w):
    """Total order key: (length, letters); trivial walks order by basepoint."""
    if w.is_trivial:
        return (0, (p.quiver.vertex_index[w.basepoint],))
    return (len(w.letters), tuple(letter_key(p, l) for l in w.letters))


def canonical_walk(p, w):
    """Lexicographic minimum of the walk and its inverse under `walk_key`.

    Both have the same length, so the first letter where they differ
    decides; letter i of the inverse is letter n - 1 - i inverted.
    """
    letters, index = w.letters, p.quiver.arrow_index
    n = len(letters)
    for i in range(n):
        a, b = letters[i], letters[n - 1 - i]
        ka, kb = (index[a.arrow], a.inverse), (index[b.arrow], not b.inverse)
        if ka != kb:
            return w if ka < kb else w.inverse()
    return w


class StringWord:
    """A validated canonical string."""

    __slots__ = ("walk",)

    def __init__(self, walk):
        self.walk = walk

    def __len__(self):
        return len(self.walk)

    def __eq__(self, other):
        return isinstance(other, StringWord) and self.walk == other.walk

    def __hash__(self):
        return hash(self.walk)

    def __repr__(self):
        return f"StringWord({walk_to_text(self.walk)})"


def require_string(p, walk):
    """The walk itself; NotAStringError (UnknownLabelError on a bad label) unless it is a string."""
    chk = is_string(p, walk)
    if not chk:
        raise NotAStringError(f"{walk_to_text(walk)}: {chk.reason} (letter {chk.index})")
    return walk


def string_word(p, walk):
    """Validate and canonicalize a walk into a StringWord."""
    return StringWord(canonical_walk(p, require_string(p, walk)))


def canonicalize(p, word):
    """Canonical representative; idempotent and inversion-invariant."""
    walk = word.walk if isinstance(word, StringWord) else word
    return StringWord(canonical_walk(p, walk))


class StringFlags:
    __slots__ = ("starts_in_deep", "starts_on_peak", "ends_in_deep", "ends_on_peak", "is_direct",
                 "is_inverse")

    def __init__(self, *flags):
        for name, flag in zip(self.__slots__, flags):
            setattr(self, name, flag)

    def as_dict(self):
        """The flags by camelCase name, in slot order."""
        return {re.sub("_(.)", lambda m: m[1].upper(), k): getattr(self, k) for k in self.__slots__}


def attach_candidates(p, w, side, inverse):
    """Arrows b such that b^{±1}w (side "left") or wb^{±1} (side "right") is a string.

    The walk w must already be a string; this is not checked.  On the left b
    ends resp. starts at the walk source, on the right it starts resp. ends
    at the walk target, so the letters concatenate; arrows come in pool
    order.  Only two things can then go wrong, both next to the new letter:
    it undoes the adjacent letter, or a relation factor runs through it.
    Such a factor lies in the new letter's one-direction run, within the
    longest relation's length of the new letter, so one factor search on
    that window decides.  The answer thus depends only on the end's vertex
    (read from its letters, or the basepoint of a trivial walk) and its
    max(max_relation_length - 1, 1) letters, and is memoised on the
    presentation under them, as a tuple.
    """
    return _candidates(p, w.letters, w.basepoint, side == "left", inverse)


def _candidates(p, letters, basepoint, left, inverse):
    """`attach_candidates` of the walk with these letters, or this basepoint if none."""
    k = max(p.max_relation_length - 1, 1)
    key = (left, inverse, basepoint, letters[:k] if left else letters[-k:])
    out = p.end_candidates.get(key)
    if out is not None:
        return out
    v = basepoint
    if letters:
        v = letter_source(p, letters[0]) if left else letter_target(p, letters[-1])
    pool = p.quiver.arrows_from(v) if inverse == left else p.quiver.arrows_into(v)
    near = letters if left else letters[::-1]  # read away from the new letter
    run = []
    for l in near[:k]:  # k exceeds max_relation_length - 1 only when no relation exists
        if l.inverse != inverse:
            break
        run.append(l.arrow)
    new_first = left != inverse  # in path order, the new letter opens the window
    if not new_first:
        run.reverse()
    adjacent = near[0] if near else None
    out = []
    for b in pool:
        if adjacent is not None and adjacent.arrow == b.label and adjacent.inverse != inverse:
            continue  # b^{±1} would undo the adjacent letter
        window = (b.label, *run) if new_first else (*run, b.label)
        if _first_factor(p.relations, window) is None:
            out.append(b)
    return p.end_candidates.setdefault(key, tuple(out))


def string_flags(p, word):
    """Which ends of a string can still grow; NotAStringError unless it is a string."""
    w = word.walk if isinstance(word, StringWord) else require_string(p, word)
    return StringFlags(
        not attach_candidates(p, w, "left", inverse=True),
        not attach_candidates(p, w, "left", inverse=False),
        not attach_candidates(p, w, "right", inverse=False),
        not attach_candidates(p, w, "right", inverse=True),
        all(not l.inverse for l in w.letters),
        all(l.inverse for l in w.letters),
    )


def _letters(p):
    """The one-letter strings as letter tuples: each arrow, then its inverse."""
    return [(Letter(a.label, inv),) for a in p.quiver.arrows for inv in (False, True)]


def _grow(p, word):
    """The strings word l for a letter l: direct letters first, each kind in pool order."""
    return [word + (Letter(b.label, inv),) for inv in (False, True)
            for b in _candidates(p, word, None, False, inv)]


def _string_layers(p):
    """The strings of length 1, 2, ... as letter tuples, both orientations, one list per length.

    Each string's prefixes are strings, so every string of a length is found.
    """
    return _layers(_letters(p), functools.partial(_grow, p))


def enumerate_strings(p, max_len=None):
    """All canonical strings up to max_len, in (length, lex) order.

    Unbounded enumeration demands a band-free presentation, otherwise the
    walk language is infinite and we refuse with BandFoundError.  A word
    is kept iff it is below its inverse under `walk_key` (module docstring).
    """
    require_string_algebra(p)
    if max_len is None and has_band(p):
        raise BandFoundError("unbounded string enumeration on a presentation with bands")
    out = [StringWord(Walk(basepoint=v)) for v in p.quiver.vertices]
    rank = {l: r for r, (l,) in enumerate(_letters(p))}  # orders letters as `letter_key`
    lengths = itertools.count() if max_len is None else range(max_len)
    for _, words in zip(lengths, _string_layers(p)):  # zip stops before growing past max_len
        kept = []
        for word in words:
            key = [rank[l] for l in word]
            if key < [rank[l._inverted] for l in reversed(word)]:
                kept.append((key, word))
        kept.sort()  # the keys differ, so no two words are compared
        out += [StringWord(Walk(word)) for _, word in kept]
    return out


@functools.lru_cache(maxsize=64)
def has_band(p):
    """Exact band-existence test: a band exists iff strings of every length do (see _pumps).

    Cached per presentation, like has_unbounded_paths.
    """
    return _pumps(p, _letters(p), functools.partial(_grow, p))


def _is_primitive(letters):
    n = len(letters)
    return not any(n % d == 0 and letters[:d] * (n // d) == letters for d in range(1, n))


def _is_band(p, letters):
    """Cyclic, primitive, and every power is a string."""
    wk = Walk(letters)
    if walk_source(p, wk) != walk_target(p, wk):
        return False
    if not _is_primitive(letters):
        return False
    # power high enough that every forbidden-factor window is inspected
    t = max(2, p.max_relation_length // len(letters) + 2)
    return bool(is_string(p, Walk(letters * t)))


def canonical_band(p, letters):
    """Minimal rotation over the word and its inverse."""
    rots = [w[i:] + w[:i] for w in (tuple(letters), Walk(letters).inverse().letters)
            for i in range(len(w))]
    return Walk(min(rots, key=lambda rot: [letter_key(p, l) for l in rot]))


def find_bands(p, max_len):
    """Canonical band words of length <= max_len, sorted."""
    found = {}
    for _, words in zip(range(max_len), _string_layers(p)):
        for word in words:
            if _is_band(p, word):
                band = canonical_band(p, word)
                found[band.letters] = band
    return sorted(found.values(), key=lambda w: walk_key(p, w))


_LETTER_RE = re.compile(r"^(.*?)(\^-)?$")
_TRIVIAL_RE = re.compile(r"^e\((.+)\)$")


def walk_to_text(w):
    """Space-separated letters, inverses suffixed ^-; trivial walks `e(v)`."""
    if w.is_trivial:
        return f"e({w.basepoint})"
    return " ".join(f"{l.arrow}^-" if l.inverse else l.arrow for l in w.letters)


def walk_from_text(text):
    text = text.strip()
    m = _TRIVIAL_RE.match(text)
    if m:
        return Walk(basepoint=m.group(1))
    letters = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        label, inv = m.group(1), m.group(2) is not None
        if not label:
            raise NotAStringError(f"empty letter token in {text!r}")
        letters.append(Letter(label, inv))
    if not letters:
        raise NotAStringError("empty walk text; trivial walks are written e(v)")
    return Walk(letters)
