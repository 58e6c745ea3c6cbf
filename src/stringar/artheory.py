"""Auslander-Reiten translates, almost split sequences, and knitting.

The translate of a string module is computed by surgery on its word C, one
operation per end.  For the sequence ending at M(C) an end either loses
its hook (the outer inverse run and the next direct letter, on the left)
or gains a cohook (a new inverse letter plus a maximal direct run); for
the sequence starting at M(C) the operations are the formal inverses.
Middle terms apply one end's operation, the far term both: additions
first, then deletions reading the current word, which makes single-middle
meshes come out right.

One cut (`_cut`) makes each piece: a slice of the additions and C
concatenated, a deletion dropping its end run r of C and the next letter.
This is the rule.  The letter an addition puts next to C has the direction
opposite to the run a deletion strips at the other end, so that run
reaches into the hook only when C is one run, and then stops at (and
drops) the hook's first letter.  Two deletions strip runs of opposite
directions, which are disjoint; after the first cut the second run is the
shorter of r and what is left, so both cut the same letters and leave no
piece exactly when the cuts cross.

`_hook` climbs each addition once per side, direction and arrow
(Butler-Ringel): past its first letter l, a climb step reads only the end
vertex, the adjacent letter and the new letter's run (`attach_candidates`),
which stops at l.

Surgery only adds and strips letters at the ends, so a mesh's pieces are
runs of one line of positions: a piece (walk, start) has its position j
at start + j.  The mesh maps and the standard arrows at projectives are
graph maps along the positions two pieces share.  A mesh is checked exact
from its pieces' positions and letters, with no arithmetic on its maps,
then non-split by its words (Miyata).  `knit`, each step of `tau_orbit`
and `ar_sequence(..., "endingAt")` build the mesh ending at M(C) from one
"end" surgery (`_mesh`) and rest on that check, `knit` also on its
translate pairing.

The DTr computation (minimal projective presentation, transpose over the
opposite quiver, linear dual) is the test oracle for the surgery; no
engine path calls it.
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    BandFoundError,
    IsInjectiveError,
    IsProjectiveError,
    MeshInconsistencyError,
)
from .fields import Mat, QQ, Subspace, nullspace, solve
from .modules import (
    GraphMap,
    MorphismMatrix,
    Representation,
    StringModule,
    _string_module,
    injective_word,
    projective_word,
    realize,
)
from .presentation import (
    nonzero_paths_from,
    require_finite_dimensional,
    require_string_algebra,
)
from .strings import (
    Letter,
    StringWord,
    Walk,
    attach_candidates,
    canonical_walk,
    enumerate_strings,
    has_band,
    letter_source,
    letter_target,
    require_string,
    string_word,
    walk_to_text,
)

_CLIMB_CAP = 10000


def _is_standard_word(p, walk, projective):
    """M(C) is projective iff C reads inverse*direct* and both ends sit in a deep,
    injective iff C reads direct*inverse* and both ends sit on a peak.

    The walk must be a string (see `attach_candidates`); this is not checked.
    The letters read that way iff the two end runs cover them.
    """
    runs = _end_run(walk, projective, "left") + _end_run(walk, not projective, "right")
    return (
        runs == len(walk.letters)
        and not attach_candidates(p, walk, "left", inverse=projective)
        and not attach_candidates(p, walk, "right", inverse=not projective)
    )


def is_projective_word(p, walk):
    """Is M(walk) projective?  NotAStringError unless the walk is a string."""
    return _is_standard_word(p, require_string(p, walk), projective=True)


def is_injective_word(p, walk):
    """Is M(walk) injective?  NotAStringError unless the walk is a string."""
    return _is_standard_word(p, require_string(p, walk), projective=False)


def _end_run(walk, inverse, side):
    """Length of the maximal run of letters with the given direction at one end."""
    n = 0
    for l in walk.letters if side == "left" else reversed(walk.letters):
        if l.inverse != inverse:
            break
        n += 1
    return n


def _unique(cands, side, kind):
    if len(cands) > 1:
        raise MeshInconsistencyError(f"ambiguous {side} {kind}: {[a.label for a in cands]}")
    return cands[0] if cands else None


def _side_ops(p, walk, direction):
    """Each end's operation for the mesh in the given direction, left then
    right: the letters an addition attaches there, or None for a deletion.

    direction "start": the sequence starting at M(walk) (hooks are added).
    direction "end":   the sequence ending at M(walk) (cohooks are added).
    A trivial word has no intrinsic ends; the at most two attachable
    arrows are split one per side, in declaration order.
    """
    if walk.is_trivial:
        v = walk.basepoint
        pool = p.quiver.arrows_into(v) if direction == "start" else p.quiver.arrows_from(v)
        if len(pool) > 2:
            raise MeshInconsistencyError(f"vertex {v} breaks the two-arrow bound")
        a, b = [*pool, None, None][:2]
    else:
        kind, start = ("hook", True) if direction == "start" else ("cohook", False)
        a = _unique(attach_candidates(p, walk, "left", not start), "left", kind)
        b = _unique(attach_candidates(p, walk, "right", start), "right", kind)
    return a and _hook(p, "left", direction, a), b and _hook(p, "right", direction, b)


def _hook(p, side, direction, arrow):
    """The letters an addition of the arrow attaches at one end, in walk order:
    its letter and the run climbed behind it (memoised)."""
    key = (side, direction, arrow.label)
    hook = p.hooks.get(key)
    if hook is None:
        inverse = (side == "left") != (direction == "start")  # the outer letter's direction
        hook = (Letter(arrow.label, inverse),)
        for _ in range(_CLIMB_CAP):
            cand = _unique(attach_candidates(p, Walk(hook), side, not inverse), side, "climb")
            if cand is None:
                break
            new = Letter(cand.label, not inverse)
            hook = (new, *hook) if side == "left" else (*hook, new)
        else:
            raise MeshInconsistencyError(f"{side} climb did not terminate")
        p.hooks[key] = hook
    return hook


def _cut(p, walk, left, right, lo, drop):
    """The piece (walk, start) of M(walk) with the hooks left and right added,
    then lo letters dropped on the left and drop on the right, as one slice
    (module docstring); None when the cuts cross."""
    word = left + walk.letters + right
    hi, start = len(word) - drop, lo - len(left)
    if hi < lo:
        return None
    if lo < hi:
        return Walk(word[lo:hi]), start
    return Walk(basepoint=letter_target(p, word[lo - 1]) if lo else letter_source(p, word[0])), start


def _surgery(p, walk, direction):
    """The pieces of the mesh on the given side of M(walk): the word at start
    0, the middles (one end's operation each) and the far term (both)."""
    left, right = _side_ops(p, walk, direction)
    start = direction == "start"
    lo = 0 if left else _end_run(walk, not start, "left") + 1  # a deletion drops its run + 1
    drop = 0 if right else _end_run(walk, start, "right") + 1
    left, right = left or (), right or ()
    middles = [q for q in (_cut(p, walk, left, (), lo, 0), _cut(p, walk, (), right, 0, drop)) if q]
    return (walk, 0), middles, _cut(p, walk, left, right, lo, drop)


_STANDARD = {"end": (IsProjectiveError, "projective"), "start": (IsInjectiveError, "injective")}


def _require_side(p, walk, direction):
    """Check the algebra, then that the string's module has a mesh ending
    ("end") or starting ("start") at it: it is not projective, or not injective."""
    require_string_algebra(p)
    require_finite_dimensional(p, "translate")
    if _is_standard_word(p, walk, projective=direction == "end"):
        error, kind = _STANDARD[direction]
        raise error(f"{walk_to_text(walk)} is {kind}")


def _translate_word(p, walk, direction):
    """Far term of the mesh ending ("end") or starting ("start") at M(walk);
    NotAStringError unless the walk is a string."""
    require_string_algebra(p)
    _require_side(p, require_string(p, walk), direction)
    far = _surgery(p, walk, direction)[2]
    if far is None:
        raise MeshInconsistencyError(f"translate of a non-{_STANDARD[direction][1]} word vanished")
    return far[0]


def tau_word(p, walk):
    """Word of the translate (raw orientation).

    NotAStringError unless the walk is a string; IsProjectiveError on projectives.
    """
    return _translate_word(p, walk, "end")


def tau_inverse_word(p, walk):
    """Word of the inverse translate; NotAStringError, IsInjectiveError likewise."""
    return _translate_word(p, walk, "start")


def _field_of(M, field):
    """The field asked for, else the module's, or QQ for a word."""
    return field or (M.rep.field if isinstance(M, StringModule) else QQ)


def tau(p, M, field=None):
    """Translate of a string module (or StringWord, already a string) by word
    surgery, over `field` or the module's (QQ for a word)."""
    word = M.word if isinstance(M, StringModule) else M
    return realize(p, _translate_word(p, word.walk, "end"), _field_of(M, field))


def tau_inverse(p, M, field=None):
    word = M.word if isinstance(M, StringModule) else M
    return realize(p, _translate_word(p, word.walk, "start"), _field_of(M, field))


class _Resolver(dict):
    """Indexed by a raw walk's `key`: the module of its canonical walk (one of
    `modules`, else realized) and its coordinates, `module.basis`, reversed
    unless the walk is canonical, as its inverse visits the vertices in reverse."""

    def __init__(self, p, field, modules=()):
        self.p, self.field = p, field
        self.update((m.word.walk.key, (m, m.basis)) for m in modules)

    def __missing__(self, key):
        walk = Walk(key) if type(key) is tuple else Walk(basepoint=key)
        canon = canonical_walk(self.p, walk)
        if canon is walk:
            module = realize(self.p, walk, self.field)
            self[key] = module, module.basis
        else:
            module, coord = self[canon.key]
            self[key] = module, coord[::-1]
        return self[key]


class _RawPiece:
    """A surgery piece (walk, start), its module and coordinates (`_Resolver`)."""

    __slots__ = ("walk", "start", "module", "coord")

    def __init__(self, resolve, walk, start):
        self.walk, self.start = walk, start
        self.module, self.coord = resolve[walk.key]


def _graph_map(src, dst):
    """Inclusion or projection between pieces whose position ranges nest, as a
    `GraphMap` of their canonical modules, with its `check_intertwining`
    verdict read off the letters (see `AlmostSplitSequence`).

    Position j of src is position j + src.start - dst.start of dst; the map
    sends each shared position's basis vector of src to that of dst, so it
    must lie over the same vertex in both.
    """
    M, N, a, b, off = src.module, dst.module, src.coord, dst.coord, src.start - dst.start
    na, nb = len(a), len(b)
    i, j = (0, off) if off >= 0 else (-off, 0)  # the run's first position in src and in dst
    k = min(na - i, nb - j)
    if k != min(na, nb):
        raise MeshInconsistencyError("mesh words do not nest")
    n, fs, fd = k - 1, a is not M.basis, b is not N.basis  # the run's letters; reversed
    e = j + n if fs else j  # the dst piece position of src's first module position in the run
    run = na - i - k if fs else i, nb - 1 - e if fd else e, -1 if fs != fd and n else 1, k
    f = GraphMap(M, N, {run: M.rep.field.one()}, fs)
    ls, ld = src.walk.letters, dst.walk.letters
    if ls[i : i + n] != ld[j : j + n] or a[i][0] != b[j][0]:
        if any(a[i + u][0] != b[j + u][0] for u in range(k)):
            raise MeshInconsistencyError("mesh pieces differ at a shared vertex")
        f._verdict = False
    else:  # an inverse letter points left
        f._verdict = not (
            i and not ls[i - 1].inverse or i + n < len(ls) and ls[i + n].inverse
            or j and ld[j - 1].inverse or j + n < len(ld) and not ld[j + n].inverse
        )
    return f


class AlmostSplitSequence:
    """0 -> leftTerm -> middle_1 (+) middle_2 -> rightTerm -> 0, made from its
    pieces L, M_k, R (`_RawPiece`s), which give its maps.

    A map f is a graph map z_x |-> z'_x on the run S of positions its ends
    share.  It is a morphism iff S's letters and first vertex agree, and
    past an end of S src's next letter points out of S and dst's into it
    (Crawley-Boevey 1989, Krause 1991): f's kernel, spanned by the z_y off
    S, and its image, by the z'_x on S, must be submodules, and then f is
    M(src) ->> M(S) >-> M(dst).

    r_k l_k is the graph map on I_k = L & M_k & R, one unit per position.
    So r_1 l_1 + r_2 l_2 = 0 iff I_1 = I_2 and both are empty or char = 2,
    and r_1 l_1 = r_2 l_2 iff I_1 = I_2 (r_2 is then negated).  A row of
    [l_1; l_2] holds one unit, so its rank is the number of positions of L
    in M_1 | M_2, and it is mono iff L lies in M_1 | M_2; dually [r_1 r_2]
    is epi iff R lies in M_1 | M_2.
    """

    def __init__(self, left, middle, right):
        self._spans = [(q.start, q.start + len(q.coord)) for q in (left, *middle, right)]
        self.left_term, self.right_term = left.module, right.module
        self.middle = [m.module for m in middle]
        self.left_maps = [_graph_map(left, m) for m in middle]
        self.right_maps = [_graph_map(m, right) for m in middle]
        if self.verify():  # negate r_2, not yet read; its verdict stands
            self.right_maps[1].terms = dict.fromkeys(self.right_maps[1].terms, left.module.rep.field.of(-1))

    @property
    def alpha(self):
        return len(self.middle)

    def verify(self):
        """Raise MeshInconsistencyError unless the pieces give an almost split
        sequence; True when r_2 takes the sign -1 (the constructor gives it)."""
        (l0, l1), *middle, (r0, r1) = self._spans  # the pieces' positions [start, stop)
        if not 1 <= len(middle) <= 2:
            raise MeshInconsistencyError(f"{len(middle)} middle terms")
        # nested pieces agree at shared positions (`_graph_map`), so cancelling
        # starts and stops put each vertex as often in the ends as in the middles
        m0s, m1s = zip(*middle)
        if sorted((l0, r0, *m1s)) != sorted((l1, r1, *m0s)):
            ends, mids = (Counter(v for m in terms for v, _ in m.basis)
                          for terms in ((self.left_term, self.right_term), self.middle))
            if ends != mids:
                raise MeshInconsistencyError("middle dimension mismatch")
        meets = [(max(l0, m0, r0), min(l1, m1, r1)) for m0, m1 in middle]  # I_k
        meet = meets[0][0] < meets[0][1] or meets[-1][0] < meets[-1][1]
        if meet and meets[1:] != meets[:1]:  # one middle, or two unequal I_k
            raise MeshInconsistencyError("mesh composite is not zero")
        for f in self.left_maps + self.right_maps:
            if not f.check_intertwining():
                raise MeshInconsistencyError("mesh map is not a morphism")
        for x, stop, what in ((l0, l1, "left mesh map not mono"), (r0, r1, "right mesh map not epi")):
            for m0, m1 in (*middle, middle[0]):  # both orders of the middles, so no sort
                if m0 <= x < m1:
                    x = m1  # the first position of the end no middle read so far covers
            if x < stop:
                raise MeshInconsistencyError(what)
        if self._splits():
            raise MeshInconsistencyError("almost split sequence splits")
        return meet and self.left_term.rep.field.characteristic != 2

    def _splits(self):
        """An exact sequence splits iff its middle is the sum of its ends (Miyata);
        string modules are isomorphic iff their words agree (Butler-Ringel).
        The middle terms are compared as a multiset: over an algebra with
        parallel arrows both may be the same module."""
        ends = [self.left_term.word, self.right_term.word]
        return [m.word for m in self.middle] in (ends, ends[::-1])

    def __repr__(self):
        mids = " (+) ".join(walk_to_text(m.word.walk) for m in self.middle)
        return (
            f"0 -> {walk_to_text(self.left_term.word.walk)} -> {mids} -> "
            f"{walk_to_text(self.right_term.word.walk)} -> 0"
        )


def _mesh(p, walk, direction, resolve):
    """The almost split sequence starting ("start") or ending ("end") at
    M(walk), a string that is not injective (not projective), from one
    surgery on walk; for "start" the pieces come in surgery order.

    For "end": the "start" operation at an end is the formal inverse of the
    "end" one, so the "start" surgery on the far piece (tau, s) makes these
    pieces shifted by -s: its left middle restores tau's left end, leaving
    walk with only its right end operated, this surgery's right middle.  So
    the middles come in reverse order, and every map, read off relative
    positions (`_graph_map`), is the one the "start" mesh at tau has.

    A trivial tau = e(v) has no orientation of its own: the "start" line is
    this one shifted, or mirrored and shifted.  `_side_ops` attaches
    a = arrows_into(v)[0] on the left, its letter a just left of v, and a
    second arrow b on the right, b^- just right of v; no other letter is
    next to v.  Mirroring puts b (b != a) or nothing just left of v, so the
    line is mirrored iff the letter just left of v here is not a; then the
    pieces are mirrored, (w, start) -> (w^-1, -start - len(w)), which swaps
    the middles back into surgery order.  `verify` checks the mesh either
    way; the rule keeps every map, and r_2's sign, as at tau's "start" mesh.
    """
    t, mids, far = _surgery(p, walk, direction)
    if far is None or not mids:
        raise MeshInconsistencyError("degenerate mesh")
    if direction == "end":
        (tau, s), pieces = far, (far, *mids[::-1], t)
        into = tau.is_trivial and p.quiver.arrows_into(tau.basepoint)
        if into:
            covering = (w.letters[s - 1 - st] for w, st in (*mids, t) if st < s <= st + len(w))
            if next(covering, None) is not Letter(into[0].label):
                pieces = [(w.inverse(), -st - len(w)) for w, st in (far, *mids, t)]
        t, *mids, far = pieces
    return AlmostSplitSequence(_RawPiece(resolve, *t), [_RawPiece(resolve, *m) for m in mids],
                               _RawPiece(resolve, *far))


def ar_sequence(p, M, side, field=None):
    """Almost split sequence ending ("endingAt") or starting ("startingAt") at
    a string module, from one surgery at that end (`_mesh`), verified when made."""
    word = M.word if isinstance(M, StringModule) else string_word(p, M.walk if isinstance(M, StringWord) else M)
    direction = {"endingAt": "end", "startingAt": "start"}.get(side)
    if direction is None:
        raise ValueError(f"unknown side {side!r}")
    _require_side(p, word.walk, direction)
    return _mesh(p, word.walk, direction, _Resolver(p, _field_of(M, field)))


def standard_arrows(p, v, resolve):
    """The irreducible maps into P(v), the inclusions of the summands of
    rad P(v), as (source module, canonical matrix).  With k the position of
    the top of P(v), the summands are the subwalks before and after position k.
    """
    raw = projective_word(p, v)
    k = _end_run(raw, inverse=True, side="left")
    whole, n = _RawPiece(resolve, raw, 0), len(raw.letters)
    cuts = [q for q in (_cut(p, raw, (), (), 0, n - k + 1), _cut(p, raw, (), (), k + 1, 0)) if q]
    return [(q.module, _graph_map(q, whole)) for q in (_RawPiece(resolve, *c) for c in cuts)]


def _arrows_into(p, walk, resolve, tops):
    """The mesh ending at M(walk), None at a projective, and the irreducible
    maps into M(walk) as (source module, map): the mesh's middles and right
    maps, or `standard_arrows`.  walk is canonical; tops is `_projective_tops(p)`."""
    if walk.key in tops:
        return None, standard_arrows(p, tops[walk.key], resolve)
    seq = _mesh(p, walk, "end", resolve)
    return seq, list(zip(seq.middle, seq.right_maps))


class ARNode:
    __slots__ = ("index", "module", "projective", "injective")

    def __init__(self, index, module, projective, injective):
        self.index, self.module, self.projective, self.injective = index, module, projective, injective

    @property
    def word(self):
        return self.module.word

    @property
    def text(self):
        return walk_to_text(self.module.word.walk)

    def __repr__(self):
        flags = ("P" if self.projective else "") + ("I" if self.injective else "")
        return f"ARNode({self.text}{' ' + flags if flags else ''})"


class ARArrow:
    __slots__ = ("source", "target", "morphism")

    def __init__(self, source, target, morphism):
        self.source, self.target, self.morphism = source, target, morphism

    def __repr__(self):
        return f"ARArrow({self.source} -> {self.target})"


class ARQuiver:
    """The knitted translation quiver of a band-free presentation."""

    def __init__(self, p, field, nodes):
        self.p, self.field, self.nodes = p, field, nodes
        self.arrows, self.tau_pairs, self.meshes = [], {}, {}  # `knit` fills them
        self._by_walk = {n.module.word.walk.key: n.index for n in nodes}
        self._into = {n.index: [] for n in nodes}
        self._from = {n.index: [] for n in nodes}
        self._reach = {}  # (node index, into) -> [the nodes k arrows from (to) it, by k]

    def _add_arrow(self, source, target, morphism):
        a = ARArrow(source, target, morphism)
        self.arrows.append(a)
        self._into[target].append(a)
        self._from[source].append(a)

    def node_of(self, word_or_walk):
        """The node of a string; bad labels and non-strings raise their domain errors."""
        walk = word_or_walk.walk if isinstance(word_or_walk, StringWord) else word_or_walk
        canon = string_word(self.p, walk).walk
        idx = self._by_walk.get(canon.key)
        if idx is None:
            raise MeshInconsistencyError(f"{walk_to_text(canon)} is not a node")
        return self.nodes[idx]

    def arrows_into(self, idx):
        return self._into[idx]

    def arrows_from(self, idx):
        return self._from[idx]

    def arrows_between(self, src, dst):
        return [a for a in self._from[src] if a.target == dst]

    def reach(self, idx, m, into=False):
        """[the node indices that end a path of exactly k arrows from idx, or with
        into=True start one to idx, for k = 0..m]; walked once per node, side and step."""
        ends = self._reach.setdefault((idx, into), [{idx}])
        while len(ends) <= m:
            step = self._into if into else self._from
            ends.append({a.source if into else a.target for z in ends[-1] for a in step[z]})
        return ends[:m + 1]

    def tau_of(self, idx):
        return self.tau_pairs.get(idx)

    def to_json(self):
        text = [n.text for n in self.nodes]
        return {
            "nodes": [{"word": text[n.index], "dims": n.module.rep.dim_vector(),
                       "projective": n.projective, "injective": n.injective} for n in self.nodes],
            "arrows": [{"source": text[a.source], "target": text[a.target]} for a in self.arrows],
            "tauPairs": {text[i]: text[j] for i, j in sorted(self.tau_pairs.items())},
        }

    def to_dot(self):
        lines = ["digraph ar_quiver {", "  rankdir=LR;"]
        for n in self.nodes:
            label = "|" * n.projective + n.text + "|" * n.injective
            lines.append(f'  n{n.index} [label="{label}" shape=plaintext];')
        for a in self.arrows:
            lines.append(f"  n{a.source} -> n{a.target};")
        for x, tx in sorted(self.tau_pairs.items()):
            lines.append(f"  n{x} -> n{tx} [style=dotted dir=none constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def knit(p, field=QQ):
    """Assemble the full AR quiver of a band-free, finite-dimensional presentation."""
    require_string_algebra(p)
    if has_band(p):
        raise BandFoundError("cannot knit: the presentation has bands")
    modules = [_string_module(p, w, field) for w in enumerate_strings(p)]  # canonical: unchecked
    resolve = _Resolver(p, field, modules)
    proj_tops = _projective_tops(p)
    inj_walks = {canonical_walk(p, injective_word(p, v)).key for v in p.quiver.vertices}
    nodes = [
        ARNode(i, m, m.word.walk.key in proj_tops, m.word.walk.key in inj_walks)
        for i, m in enumerate(modules)
    ]
    quiver = ARQuiver(p, field, nodes)
    by_walk, tau_pairs = quiver._by_walk, quiver.tau_pairs
    for n in nodes:
        seq, arrows = _arrows_into(p, n.module.word.walk, resolve, proj_tops)
        if seq is not None:
            quiver.meshes[n.index] = seq
            tau_idx = tau_pairs[n.index] = by_walk[seq.left_term.word.walk.key]
            if nodes[tau_idx].injective:
                raise MeshInconsistencyError("translate landed on an injective")
        for src, mor in arrows:
            quiver._add_arrow(by_walk[src.word.walk.key], n.index, mor)
    if len(set(tau_pairs.values())) != len(tau_pairs):
        raise MeshInconsistencyError("translate pairing is not injective")
    non_inj = {n.index for n in nodes if not n.injective}
    if set(tau_pairs.values()) != non_inj:
        raise MeshInconsistencyError("translate pairing is not onto the non-injectives")
    _check_mesh_symmetry(quiver)
    return quiver


def _projective_tops(p):
    """{`key` of the canonical walk of P(v): v} over the vertices v."""
    return {canonical_walk(p, projective_word(p, v)).key: v for v in p.quiver.vertices}


def _check_mesh_symmetry(quiver):
    """Each node n sends x as many arrows as tau x sends n.  Per x, the
    arrows into x and out of tau x are each read once: an arrow n -> x
    counts +1 for n, an arrow tau x -> n counts -1, and every n that sends
    x an arrow must end at 0."""
    for x, tx in quiver.tau_pairs.items():
        into, count = quiver.arrows_into(x), {}
        for a in into:
            count[a.source] = count.get(a.source, 0) + 1
        for a in quiver.arrows_from(tx):
            count[a.target] = count.get(a.target, 0) - 1
        if any(count[a.source] for a in into):
            raise MeshInconsistencyError(f"mesh symmetry fails at {quiver.nodes[x].text}")


class OrbitResult:
    __slots__ = ("modules", "hit_projective", "steps")

    def __init__(self, modules, hit_projective, steps):
        self.modules, self.hit_projective, self.steps = modules, hit_projective, steps

    def __repr__(self):
        tail = " (stopped at projective)" if self.hit_projective else ""
        return f"OrbitResult({len(self.modules)} modules{tail})"


def tau_orbit(p, M, k, field=None):
    """[M, tau M, ...] for up to k steps; stops early when a projective appears.
    A word is realized first, over `field` or QQ.

    Each step is the mesh `knit` builds at the current module, from one
    "end" surgery and verified when made; its left term is the next one.
    """
    require_finite_dimensional(p, "translate")
    require_string_algebra(p)
    field = _field_of(M, field)
    resolve = _Resolver(p, field)
    out = [M if isinstance(M, StringModule) else realize(p, M, field)]
    for _ in range(k):
        if _is_standard_word(p, out[-1].word.walk, projective=True):
            return OrbitResult(out, True, len(out) - 1)
        out.append(_mesh(p, out[-1].word.walk, "end", resolve).left_term)
    return OrbitResult(out, False, len(out) - 1)


# --- DTr oracle -----------------------------------------------------------


def path_representation(p, v, field):
    """P(v) on its path basis; returns (rep, ordered path list, coord map)."""
    paths = nonzero_paths_from(p, v)
    dims, coord = dict.fromkeys(p.quiver.vertices, 0), {}
    for path in paths:
        end = v if not path else p.quiver.arrow(path[-1]).target
        coord[path] = (end, dims[end])
        dims[end] += 1
    nonzeros = []
    for path in paths:
        end = v if not path else p.quiver.arrow(path[-1]).target
        for a in p.quiver.arrows_from(end):
            ext = path + (a.label,)
            if ext in coord:
                nonzeros.append((a.label, coord[ext][1], coord[path][1], field.one()))
    return Representation._adopt(p, field, dims, nonzeros), paths, coord


def opposite_presentation(p):
    from .presentation import AlgebraPresentation, Arrow, Quiver

    q = Quiver(
        p.quiver.vertices,
        [Arrow(a.label, a.target, a.source) for a in p.quiver.arrows],
    )
    rels = [tuple(reversed(r)) for r in p.relations]
    return AlgebraPresentation(q, rels, name=p.name + "^op" if p.name else "")


class _ProjSum:
    """A finite direct sum of path representations with bookkeeping."""

    def __init__(self, p, field, vertices):
        self.p = p
        self.field = field
        self.verts = list(vertices)
        self.parts = [path_representation(p, v, field) for v in self.verts]
        dims = {v: 0 for v in p.quiver.vertices}
        self.offsets = []  # per part, per vertex: column offset
        for rep, _, _ in self.parts:
            self.offsets.append({v: dims[v] for v in p.quiver.vertices})
            for v in p.quiver.vertices:
                dims[v] += rep.dims[v]
        nonzeros = []
        for (rep, _, _), off in zip(self.parts, self.offsets):
            for a, k, j, c in rep.nonzeros:
                x = p.quiver.arrow(a)
                nonzeros.append((a, off[x.target] + k, off[x.source] + j, c))
        self.rep = Representation._adopt(p, field, dims, nonzeros)

    def generator_index(self, part_ix):
        """Flat column of the trivial path of part part_ix, its first, at its start vertex."""
        v = self.verts[part_ix]
        return v, self.offsets[part_ix][v]


def _top_lifts(rep):
    """For each vertex, unit-vector lifts of a basis of the top (deterministic)."""
    field, maps = rep.field, rep.maps
    lifts = []
    for v in rep.p.quiver.vertices:
        d = rep.dims[v]
        if d == 0:
            continue
        cols = [c for a in rep.p.quiver.arrows_into(v) for c in zip(*maps[a.label].rows)]
        rad = Subspace(field, d, cols)
        for i in range(d):
            unit = [int(i == j) for j in range(d)]
            if rad.insert(unit):
                lifts.append((v, unit))
    return lifts


def _cover(p, field, M):
    """Minimal projective cover P0 -> M as a (_ProjSum, MorphismMatrix) pair."""
    lifts, maps = _top_lifts(M), M.maps
    psum = _ProjSum(p, field, [v for v, _ in lifts])
    blocks = {v: Mat.zeros(field, M.dims[v], psum.rep.dims[v]) for v in p.quiver.vertices}
    for part_ix, (v, unit) in enumerate(lifts):
        rep, paths, coord = psum.parts[part_ix]
        images = {(): unit}
        for path in paths[1:]:  # by length, after the trivial path
            img = images[path[:-1]]
            rows = maps[path[-1]].rows
            images[path] = [field.of(sum(x * y for x, y in zip(row, img))) for row in rows]
        for path in paths:
            end = v if not path else p.quiver.arrow(path[-1]).target
            col = psum.offsets[part_ix][end] + coord[path][1]
            for i, val in enumerate(images[path]):
                blocks[end].rows[i][col] = val
    return psum, MorphismMatrix(psum.rep, M, blocks)


def _kernel_rep(p, field, morphism):
    """Kernel of a morphism as a representation plus per-vertex basis columns."""
    src, src_maps = morphism.source, morphism.source.maps
    basis = {v: nullspace(morphism.block(v)) if src.dims[v] else [] for v in p.quiver.vertices}
    dims = {v: len(b) for v, b in basis.items()}
    maps = {}
    for a in p.quiver.arrows:
        s, t = a.source, a.target
        m = Mat.zeros(field, dims[t], dims[s])
        if dims[s] and src.dims[t]:
            tmat = Mat(field, zip(*basis[t]), dims[t])  # read only when dims[t] > 0
            for j, vec in enumerate(basis[s]):
                img = [
                    field.of(sum(src_maps[a.label].rows[i][k] * vec[k] for k in range(src.dims[s])))
                    for i in range(src.dims[t])
                ]
                if dims[t] == 0:
                    if any(img):
                        raise MeshInconsistencyError("kernel not closed under action")
                    continue
                sol = solve(tmat, img)
                if sol is None:
                    raise MeshInconsistencyError("kernel not closed under action")
                for i in range(dims[t]):
                    m.rows[i][j] = sol[i]
        maps[a.label] = m
    return Representation(p, field, dims, maps), basis


def tau_oracle(p, M, field=None):
    """DTr: minimal presentation, transpose over the opposite quiver, dualize."""
    rep = M.rep if isinstance(M, StringModule) else M
    field = field or rep.field
    require_finite_dimensional(p, "run DTr")
    p0, cover = _cover(p, field, rep)
    K, kbasis = _kernel_rep(p, field, cover)
    if K.total_dim == 0:
        raise IsProjectiveError("projective module has no translate")
    p1, kcover = _cover(p, field, K)
    # presentation map d: P1 -> P0, then its path matrix
    incl = [(v, i, j, a) for v in p.quiver.vertices for j, vec in enumerate(kbasis[v])
            for i, a in enumerate(vec) if a]
    d = MorphismMatrix._adopt(K, p0.rep, incl).compose(kcover)
    # entries: for generator j (vertex w_j), its image coefficients over the
    # path basis of each part i give formal sums of paths v_i -> w_j
    pop = opposite_presentation(p)
    p0_op = _ProjSum(pop, field, p0.verts)
    p1_op = _ProjSum(pop, field, p1.verts)
    dop_blocks = {
        v: Mat.zeros(field, p1_op.rep.dims[v], p0_op.rep.dims[v])
        for v in pop.quiver.vertices
    }
    for j, wj in enumerate(p1.verts):
        gen_v, gen_col = p1.generator_index(j)
        img = d.block(gen_v).column(gen_col)
        for i, vi in enumerate(p0.verts):
            rep_i, paths_i, coord_i = p0.parts[i]
            for path in paths_i:
                end = vi if not path else p.quiver.arrow(path[-1]).target
                if end != wj:
                    continue
                coeff = img[p0.offsets[i][end] + coord_i[path][1]]
                if not coeff:
                    continue
                rpath = path[::-1]
                _apply_op_path_morphism(pop, field, p0_op, i, p1_op, j, rpath, coeff, dop_blocks)
    # cokernel of d_op, vertexwise, with induced op-arrow maps
    tr_dims, tr_sections, tr_solvers = {}, {}, {}
    for v in pop.quiver.vertices:
        n = p1_op.rep.dims[v]
        img = Subspace(field, n, zip(*dop_blocks[v].rows))
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        probe = Subspace(field, n, img.rows)
        comp_idx = [i for i in range(n) if probe.insert(units[i])]
        tr_dims[v] = len(comp_idx)
        basis_cols = img.rows + [units[i] for i in comp_idx]
        tr_sections[v] = comp_idx
        tr_solvers[v] = Mat(field, zip(*basis_cols), len(basis_cols)) if n else None
    def project(v, vec):
        solver = tr_solvers[v]
        if solver is None:
            return []
        sol = solve(solver, list(vec))
        if sol is None:
            raise MeshInconsistencyError("cokernel projection failed")
        img_rank = solver.ncols - tr_dims[v]
        return sol[img_rank:]

    tau_maps, op_maps = {}, p1_op.rep.maps
    for a in p.quiver.arrows:
        # the op arrow with label a maps fibers at e(a) to fibers at s(a)
        src_v, dst_v = a.target, a.source
        # written transposed, the dual map: s(a) -> e(a) again
        m = Mat.zeros(field, tr_dims[src_v], tr_dims[dst_v])
        op_map = op_maps[a.label]
        for k, unit_ix in enumerate(tr_sections[src_v]):
            m.rows[k] = project(dst_v, op_map.column(unit_ix))
        tau_maps[a.label] = m
    return Representation(p, field, tr_dims, tau_maps)


def _apply_op_path_morphism(pop, field, p0_op, i, p1_op, j, rpath, coeff, out_blocks):
    """Add coeff * (morphism P_op(v_i) -> P_op(w_j) given by the op path rpath)."""
    _, paths_i, coord_i = p0_op.parts[i]
    coord_j = p1_op.parts[j][2]
    vi = p0_op.verts[i]
    for q in paths_i:
        target = rpath + q
        if pop.path_in_ideal(target) or target not in coord_j:
            continue
        end = p1_op.verts[j] if not target else pop.quiver.arrow(target[-1]).target
        endq = vi if not q else pop.quiver.arrow(q[-1]).target
        assert end == endq
        row = p1_op.offsets[j][end] + coord_j[target][1]
        col = p0_op.offsets[i][end] + coord_i[q][1]
        out_blocks[end].rows[row][col] = field.of(out_blocks[end].rows[row][col] + coeff)
