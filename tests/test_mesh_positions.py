"""The positions check of a mesh against the numeric oracle.

`AlmostSplitSequence.verify` reads a mesh from its pieces: a graph map is a
morphism by the letters at the ends of the run its pieces share, the
composite r_k l_k is the graph map on I_k = L & M_k & R, and the mono and
epi conditions are two inclusions of position ranges.  The oracle
(`tests/oracles/mesh_maps.py`) composes, adds, runs the intertwining
equations and ranks the maps the same pieces give.  Here the two meet on
every mesh of the ladder and of S0-S7, on pieces corrupted in the ways the
positions check reads, and on graph maps between every two runs of a
string.
"""

import functools

import pytest

from stringar import enumerate_strings, field_for_characteristic, knit
from stringar.artheory import (
    AlmostSplitSequence,
    _Resolver,
    _graph_map,
    _RawPiece,
    _surgery,
)
from stringar.strings import Letter, Walk, is_string
from tests.conftest import LADDER
from tests.oracles import mesh_maps
from tests.oracles.surgery import _segment
from tests.test_stress import _ladder_or_stress

NAMES = [*LADDER, *(f"S{i}" for i in range(8))]


@functools.lru_cache(maxsize=None)
def _quivers(name, char):
    field = field_for_characteristic(char)
    return [(p, knit(p, field)) for p in _ladder_or_stress(name)]


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", NAMES)
def test_the_oracle_accepts_every_mesh_and_arrow_of_the_engine(name, char):
    """Every mesh knit keeps passes the numeric check with its maps as they
    are (r_2 already negated, so the oracle negates nothing), and every map
    carries the verdict the intertwining equations give."""
    negated = 0
    for _, G in _quivers(name, char):
        for seq in G.meshes.values():
            rights = list(seq.right_maps)
            mesh_maps.verify(seq.left_term, seq.middle, seq.right_term, list(seq.left_maps), rights)
            assert rights == seq.right_maps and all(a is b for a, b in zip(rights, seq.right_maps))
            for f in seq.left_maps + seq.right_maps:
                assert f._verdict is True and f._intertwines()
            negated += any(c != 1 for *_, c in seq.right_maps[-1].nonzeros)
        for a in G.arrows:
            assert a.morphism._verdict is True and a.morphism._intertwines()
    if char == 2:
        assert negated == 0  # -1 is 1 in GF(2): r_1 l_1 + r_2 l_2 vanishes as made


def _pieces(p, resolve, seq):
    """The pieces of the mesh starting at seq's left term, as `ar_sequence(...,
    "startingAt")` makes them (knit's are the same pieces shifted, or mirrored)."""
    t, mids, far = _surgery(p, seq.left_term.word.walk, "start")
    return _RawPiece(resolve, *t), [_RawPiece(resolve, *m) for m in mids], _RawPiece(resolve, *far)


def _oracle(left, middle, right):
    """The numeric check on the graph maps of the pieces; the maps it ends with."""
    lefts = [_graph_map(left, m) for m in middle]
    rights = [_graph_map(m, right) for m in middle]
    for f in lefts + rights:
        assert f._verdict == f._intertwines()
    mesh_maps.verify(left.module, [m.module for m in middle], right.module, lefts, rights)
    return lefts, rights


def _flipped(p, resolve, piece, k):
    """The piece with its letter k turned round, if the walk stays a string."""
    letters = list(piece.walk.letters)
    letters[k] = Letter(letters[k].arrow, not letters[k].inverse)
    walk = Walk(letters)
    return _RawPiece(resolve, walk, piece.start) if is_string(p, walk) else None


def _corruptions(p, resolve, left, middle, right):
    """(kind, left, middle, right): the mesh itself; each piece shifted by -1 and
    +1; each letter just past a run end flipped; the second middle given the
    first middle's positions, or the first middle itself."""
    pieces = [left, *middle, right]

    def mesh(swap):
        out = [swap.get(i, q) for i, q in enumerate(pieces)]
        return out[0], out[1:-1], out[-1]

    yield "mesh", *mesh({})
    for i, q in enumerate(pieces):
        for d in (-1, 1):
            yield "shift", *mesh({i: _RawPiece(resolve, q.walk, q.start + d)})
    ends = set()
    for src, dst in [(left, m) for m in middle] + [(m, right) for m in middle]:
        for big, small in ((src, dst), (dst, src)):
            i = small.start - big.start  # the run of small starts at position i of big
            for k in (i - 1, i + len(small.walk.letters)):
                if 0 <= k < len(big.walk.letters):
                    ends.add((pieces.index(big), k))
    for i, k in sorted(ends):
        flipped = _flipped(p, resolve, pieces[i], k)
        if flipped is not None:
            yield "flip", *mesh({i: flipped})
    if len(middle) == 2:
        first, second = middle
        yield "share", *mesh({2: _RawPiece(resolve, second.walk, first.start)})
        yield "share", *mesh({2: first})


@pytest.mark.parametrize("char", [0, 2, 3])
def test_engine_and_oracle_agree_on_corrupted_pieces(char):
    """On every mesh of the ladder and S0-S7, shifted, flipped and shared
    pieces make the engine and the oracle raise the same message, or both
    accept with the same maps; between them they reach every check before
    the word split test."""
    seen = set()
    field = field_for_characteristic(char)
    for name in NAMES:
        for p, G in _quivers(name, char):
            resolve = _Resolver(p, field)
            for seq in G.meshes.values():
                for kind, *parts in _corruptions(p, resolve, *_pieces(p, resolve, seq)):
                    engine = mesh_maps.message(lambda: AlmostSplitSequence(*parts))
                    assert engine == mesh_maps.message(lambda: _oracle(*parts)), (kind, seq)
                    assert engine is not None or kind != "shift"
                    if engine is None:
                        made = AlmostSplitSequence(*parts)
                        assert [f.flatten() for f in made.left_maps + made.right_maps] == [
                            f.flatten() for f in sum(_oracle(*parts), [])
                        ]
                    seen.add(engine)
    assert seen == {
        None, "mesh words do not nest", "mesh pieces differ at a shared vertex",
        "middle dimension mismatch", "mesh composite is not zero", "mesh map is not a morphism",
        "left mesh map not mono", "right mesh map not epi",
    }


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("name", NAMES)
def test_a_graph_map_between_runs_of_a_string_has_the_verdict_of_its_equations(name, char):
    """For every string and every run of it, the inclusion run -> string and the
    projection string -> run: the verdict read off the letters past the run's
    ends is what the intertwining equations give.  Each of the four end
    conditions decides some of them."""
    field = field_for_characteristic(char)
    verdicts = set()
    for p in _ladder_or_stress(name):
        resolve = _Resolver(p, field)
        for sw in enumerate_strings(p):
            for walk in (sw.walk, sw.walk.inverse()):
                whole = _RawPiece(resolve, walk, 0)
                n = len(walk.letters)
                for lo in range(n + 1):
                    for hi in range(lo, n + 1):
                        run = _RawPiece(resolve, *_segment(p, (walk, 0), lo, hi + 1))
                        for src, dst in ((run, whole), (whole, run)):
                            f = _graph_map(src, dst)
                            assert f._verdict == f._intertwines()
                            verdicts.add((src is whole, lo > 0, hi < n, f._verdict))
    if name in ("W9", "S0"):
        # each end condition alone refuses some map: a run with a letter past
        # just that end, as source (projection) or as target (inclusion)
        for projection in (True, False):
            assert {(projection, True, False, False), (projection, False, True, False)} <= verdicts


def _composite_message(seq, spans):
    """What `verify` says of seq with its pieces' positions [start, stop)
    replaced by spans, its modules and maps kept."""
    seq._spans, kept = spans, seq._spans
    try:
        return mesh_maps.message(seq.verify)
    finally:
        seq._spans = kept


@pytest.mark.parametrize("name", NAMES)
def test_a_nonempty_meet_of_a_mesh_is_caught(name):
    """r_k l_k is the graph map on I_k = L & M_k & R, so `verify` refuses a
    nonempty I_1 when there is one middle, and one empty and one nonempty
    I_k when there are two.  A one-middle mesh's L and R share no position
    (their dimensions add up to the middle's, and both lie in it), so no
    shift of the middle alone meets both: R is moved onto L's positions,
    which the middle holds.  A two-middle mesh of knit has I_1 = I_2
    nonempty; moving either middle past L empties its I_k only."""
    ones = twos = 0
    for _, G in _quivers(name, 0):
        for seq in G.meshes.values():
            (l0, l1), *middle, _ = seq._spans
            assert _composite_message(seq, seq._spans) is None
            if len(middle) == 1:
                spans = [(l0, l1), *middle, (l0, l1)]
                assert _composite_message(seq, spans) == "mesh composite is not zero"
                ones += 1
                continue
            for k, (m0, m1) in enumerate(middle):
                moved = list(seq._spans)
                moved[1 + k] = (l1, l1 + m1 - m0)
                assert _composite_message(seq, moved) == "mesh composite is not zero"
                twos += 1
    assert ones and twos
