"""The whole-word checks, kept as the oracles for `strings.attach_candidates`
and `strings.enumerate_strings`.

Each candidate letter is attached and the whole new walk is re-checked by
`is_string`: every concatenation, every letter pair, every one-direction
run.  The engine checks only the window next to the new letter, and its
enumeration keeps each string in the orientation smaller than its inverse;
here every letter tuple is grown by every letter and each survivor is
put through `canonical_walk`, both orientations merging in a set.
"""

from stringar.strings import (
    Letter,
    Walk,
    canonical_walk,
    is_string,
    walk_key,
    walk_source,
    walk_target,
)


def attach_candidates(p, w, side, inverse):
    """Arrows b such that b^{±1}w (side "left") or wb^{±1} (side "right") is a string."""
    left = side == "left"
    v = walk_source(p, w) if left else walk_target(p, w)
    pool = p.quiver.arrows_from(v) if inverse == left else p.quiver.arrows_into(v)
    out = []
    for b in pool:
        letter = (Letter(b.label, inverse),)
        cand = Walk(letter + w.letters if left else w.letters + letter)
        if is_string(p, cand):
            out.append(b)
    return out


def string_layers(p, max_len):
    """The strings of length 1..max_len (all lengths if None; they must end)
    as letter tuples in both orientations, one list per length."""
    letters = [Letter(a.label, inv) for a in p.quiver.arrows for inv in (False, True)]
    layer, out = [()], []
    while max_len is None or len(out) < max_len:
        layer = [w + (l,) for w in layer for l in letters if is_string(p, Walk(w + (l,)))]
        if not layer:
            break
        out.append(layer)
    return out


def enumerate_strings(p, max_len=None):
    """The canonical walks of the strings up to max_len, trivial ones first,
    then by length, each length sorted by `walk_key`."""
    out = [Walk(basepoint=v) for v in p.quiver.vertices]
    for layer in string_layers(p, max_len):
        out += sorted({canonical_walk(p, Walk(w)) for w in layer}, key=lambda w: walk_key(p, w))
    return out
