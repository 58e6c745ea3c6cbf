"""Word surgery letter by letter, kept as the oracle for `artheory._surgery`.

The library climbs each hook once, on the hook alone, and memoises it on
the presentation (`artheory._hook`).  This is the surgery it replaced: every
addition attaches its arrow's letter to the whole walk and climbs behind
it one letter at a time, asking `attach_candidates` of the whole walk at
each step; every deletion strips the end run of the current word, one
`_segment` after another, where the library cuts each piece once from
one letter tuple (`artheory._cut`).  It picks each end's arrow as the
library did before its hooks were memoised (`side_arrows`), with the
same ambiguity checks.
"""

from stringar.artheory import _CLIMB_CAP, _end_run, _unique
from stringar.errors import MeshInconsistencyError
from stringar.strings import Letter, Walk, attach_candidates, walk_vertices


def _outer_inverse(direction, side):
    """Is the letter an addition attaches at this end, or the run a deletion strips, inverse?

    For the sequence ending at M(C) ("end") it is on the left and not on the
    right; for the sequence starting at M(C) ("start") the other way round.
    """
    return direction == ("end" if side == "left" else "start")


def _segment(p, piece, lo, hi):
    """The run of a piece on its positions lo..hi-1; one position is a trivial walk."""
    walk, start = piece
    letters = walk.letters[lo : hi - 1]
    sub = Walk(letters) if letters else Walk(basepoint=walk_vertices(p, walk)[lo])
    return sub, start + lo


def side_arrows(p, walk, direction):
    """Each end's operation for the mesh in the given direction, left then
    right: the arrow an addition attaches there, or None for a deletion.

    direction "start": the sequence starting at M(walk) (hooks are added).
    direction "end":   the sequence ending at M(walk) (cohooks are added).
    A trivial word has no intrinsic ends; the at most two attachable
    arrows are split one per side, in declaration order.
    """
    if walk.is_trivial:
        v = walk.basepoint
        pool = (
            p.quiver.arrows_into(v) if direction == "start" else p.quiver.arrows_from(v)
        )
        if len(pool) > 2:
            raise MeshInconsistencyError(f"vertex {v} breaks the two-arrow bound")
        return [*pool, None, None][:2]
    kind = "hook" if direction == "start" else "cohook"
    return [
        _unique(
            attach_candidates(p, walk, side, _outer_inverse(direction, side)), side, kind
        )
        for side in ("left", "right")
    ]


def _apply_add(p, piece, direction, side, arrow):
    """Attach the arrow at one end, then climb the maximal run behind it."""
    first_inverse = _outer_inverse(direction, side)
    cur = _attach((Letter(arrow.label, first_inverse),), piece, side)
    for _ in range(_CLIMB_CAP):
        cand = _unique(
            attach_candidates(p, cur[0], side, inverse=not first_inverse), side, "climb"
        )
        if cand is None:
            return cur
        cur = _attach((Letter(cand.label, not first_inverse),), cur, side)
    raise MeshInconsistencyError(f"{side} climb did not terminate")


def _apply_delete(p, piece, direction, side):
    """Remove a hook or cohook from one end; None when the whole word would go."""
    walk = piece[0]
    n = len(walk.letters)
    run = _end_run(walk, _outer_inverse(direction, side), side)
    if run >= n:
        return None
    lo = run + 1 if side == "left" else 0
    return _segment(p, piece, lo, lo + n - run)


def _compute_side(p, piece, direction, side, arrow):
    """One end's operation (see `side_arrows`); returns (middle piece or None, the
    letters it attached, or None for a deletion).

    The far term attaches the same letters at the same positions.
    """
    if arrow is not None:
        res = _apply_add(p, piece, direction, side, arrow)
        letters = res[0].letters
        added = len(letters) - len(piece[0].letters)
        return res, letters[:added] if side == "left" else letters[-added:]
    return _apply_delete(p, piece, direction, side), None


def _attach(letters, piece, side):
    """Letters attached at one end; on the left they take the positions before start."""
    walk, start = piece
    if side == "left":
        return Walk(letters + walk.letters), start - len(letters)
    return Walk(walk.letters + letters), start


def _far_term(p, piece, direction, sides):
    """Both ends' operations, as (side, letters or None); additions first,
    deletions read the current word."""
    cur = piece
    for side, letters in sides:
        if letters is not None:
            cur = _attach(letters, cur, side)
    for side, letters in sides:
        if letters is None:
            if cur is None:
                return None
            cur = _apply_delete(p, cur, direction, side)
    return cur


def surgery(p, walk, direction):
    """All pieces of the mesh on the given side of M(walk), as `_surgery` gives them."""
    t = (walk, 0)
    add_l, add_r = side_arrows(p, walk, direction)
    mid_l, new_l = _compute_side(p, t, direction, "left", add_l)
    mid_r, new_r = _compute_side(p, t, direction, "right", add_r)
    far = _far_term(p, t, direction, (("left", new_l), ("right", new_r)))
    middles = [m for m in (mid_l, mid_r) if m is not None]
    return t, middles, far


def climb(p, walk, direction, side, arrow):
    """The letters an addition attaches at one end of the whole walk, in walk order."""
    _, letters = _compute_side(p, (walk, 0), direction, side, arrow)
    return letters
