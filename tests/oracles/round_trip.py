"""Meshes by the translate round trip, kept as the oracle for `artheory._mesh`.

The library builds the almost split sequence ending at M(C) from one "end"
surgery on C.  This is the construction it replaced: run the translate,
then the "start" surgery on it, and check that the mesh so built ends at
M(C) again.  `starting_at` is that "start" mesh on its own, with the
checks the library ran before building it.  Surgery and the translate are
looked up on `artheory` at each call, so a test that patches them there
reaches this oracle too.

`standard_maps` is the other construction the library dropped: the maps
at P(v) and I(v) made from the standard word itself, the inclusions
rad-summand -> P(v) and the projections I(v) -> summand of I(v)/soc,
where the library reads the knitted quiver's arrows.
"""

from stringar import artheory
from stringar.artheory import AlmostSplitSequence, _RawPiece, _Resolver, _field_of
from stringar.errors import IsInjectiveError, MeshInconsistencyError
from stringar.modules import StringModule, standard_word
from stringar.presentation import require_finite_dimensional, require_string_algebra
from stringar.strings import StringWord, canonical_walk, string_word, walk_to_text


def _word(p, M):
    if isinstance(M, StringModule):
        return M.word
    return string_word(p, M.walk if isinstance(M, StringWord) else M)


def _from_left(p, left_walk, resolve):
    """The almost split sequence starting at M(left_walk), in surgery order."""
    if artheory._is_standard_word(p, left_walk, projective=False):
        raise IsInjectiveError(f"{walk_to_text(left_walk)} is injective")
    t, mids, far = artheory._surgery(p, left_walk, "start")
    if far is None or not mids:
        raise MeshInconsistencyError("degenerate mesh")
    left, far = _RawPiece(resolve, *t), _RawPiece(resolve, *far)
    return AlmostSplitSequence(left, [_RawPiece(resolve, *m) for m in mids], far)


def ending_at(p, M, field=None, resolve=None):
    """The mesh ending at M: the translate, the mesh starting at it, and the
    round trip back to M."""
    word = _word(p, M)
    resolve = _Resolver(p, _field_of(M, field)) if resolve is None else resolve
    left = artheory._translate_word(p, word.walk, "end")
    seq = _from_left(p, left, resolve)
    if seq.right_term.word.walk != canonical_walk(p, word.walk):
        raise MeshInconsistencyError("translate round trip failed")
    return seq


def starting_at(p, M, field=None):
    """The mesh starting at M."""
    word = _word(p, M)
    require_string_algebra(p)
    require_finite_dimensional(p, "translate")
    return _from_left(p, word.walk, _Resolver(p, _field_of(M, field)))


def standard_maps(p, v, resolve, projective):
    """Irreducible maps at P(v) or I(v), as (source, target, canonical matrix).

    For P(v): the inclusions rad-summand -> P(v).  For I(v): the projections
    I(v) -> summand of I(v)/soc.  With k the position of the top of P(v) (the
    socle of I(v)), the summands are the subwalks before and after position k.
    """
    raw = standard_word(p, v, projective)
    if raw.is_trivial:
        return []
    n = len(raw.letters)
    k = artheory._end_run(raw, inverse=projective, side="left")
    segments = [artheory._segment(p, (raw, 0), lo, hi)
                for lo, hi in ((0, k), (k + 1, n + 1)) if hi > lo]
    whole = _RawPiece(resolve, raw, 0)
    out = []
    for seg in segments:
        piece = _RawPiece(resolve, *seg)
        src, dst = (piece, whole) if projective else (whole, piece)
        out.append((src.module, dst.module, artheory._graph_map(src, dst)))
    return out
