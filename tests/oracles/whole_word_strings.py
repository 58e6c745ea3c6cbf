"""The whole-word extension check, kept as the oracle for `strings.attach_candidates`.

Each candidate letter is attached and the whole new walk is re-checked by
`is_string`: every concatenation, every letter pair, every one-direction
run.  The engine checks only the window next to the new letter.
"""

from stringar.strings import Letter, Walk, is_string, walk_source, walk_target


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
