"""Radical powers of the module category, depth, degrees, counting quivers.

All layers live in flattened Hom coordinates per ordered node pair.  A
band-free string algebra is representation-finite, so rad^n(X, Y) is
spanned by composites of at least n irreducible maps in any characteristic
(Auslander-Reiten-Smalo, ch. V.7).  The engine spans T_1 = the arrow
matrices and T_{m+1}(X, Y) = a o T_m(X, Z) over the arrows a: Z -> Y, then
folds T_m, deepest m first, into one echelon basis per ordered pair whose
rows carry their depth tag m; the identity joins the diagonal last with
tag 0.  rad^n is the span of the rows tagged n or more.

Each source X is built on its own, the first time a query reads it: the
recursion never changes X.  `nilpotency` reads the projective sources,
one per vertex; `profile(x, y)` reads x and those; a right degree of
f: X -> Y reads Y, X and those, a left one every source; `_tagged`
builds every source.  Each T_m(X, Y) is kept in RREF, which is
canonical, so a pair's rows do not depend on the order of the builds.

Composites are formed in flat coordinates: `flat_compose` assembles
a o f from slices of f's flat vector, one per nonzero of the arrow map,
so no morphism is built.  It equals flatten(a.compose(morphism_from_flat(
...))) exactly, for any map a; the arrow maps are checked to be
morphisms when the table is made.  An arrow whose nonzeros all sit off
X's support composes to zero with every map from X and is skipped.

The definitional recursion rad^{n+1}(X, Y) = sum over Z of
rad(Z, Y) o rad^n(X, Z), on solved Hom spaces with the endomorphism
radical on the diagonal, is kept only as the cross-check
`layers_equal_to_span`.
"""

from __future__ import annotations

import math

from .artheory import standard_arrows
from .errors import BandFoundError, MeshInconsistencyError, NotIrreducibleError
from .fields import Mat, Subspace, combination, nullspace, rref, scaled_row
from .modules import end_radical, hom_basis  # the cross-check only
from .modules import flat_compose, flat_offsets, hom_flat_dim, morphism_from_flat
from .strings import (
    Letter,
    Walk,
    canonical_walk,
    enumerate_strings,
    has_band,
    is_string,
    walk_source,
    walk_target,
    walk_to_text,
)

ZERO_DEPTH = math.inf  # the zero morphism sits below every radical layer


class RadicalProfile:
    """The chain Hom = rad^0 >= rad^1 >= ... >= 0 for one ordered node pair."""

    __slots__ = ("source", "target", "dims", "_table")

    def __init__(self, table, source, target, dims):
        self._table = table
        self.source = source
        self.target = target
        self.dims = dims

    @property
    def layers(self):
        """Every layer as a Subspace, built on demand."""
        return [self._table.layer(self.source, self.target, n) for n in range(len(self.dims))]

    def basis(self, n):
        """The n-th layer as a list of MorphismMatrix (empty beyond the chain)."""
        return [
            morphism_from_flat(self.source.module.rep, self.target.module.rep, v)
            for v in self._table.layer(self.source, self.target, n).rows
        ]

    def as_dict(self):
        return {
            "source": self.source.text,
            "target": self.target.text,
            "layerDims": self.dims,
        }

    def __repr__(self):
        return f"RadicalProfile({self.source.text} -> {self.target.text}: {self.dims})"


class Degree:
    """A left or right degree value with its witness, or the infinity marker."""

    __slots__ = ("value", "witness_node", "witness")

    def __init__(self, value, witness_node=None, witness=None):
        self.value = value
        self.witness_node = witness_node
        self.witness = witness

    @property
    def is_finite(self):
        return self.value != math.inf

    def __repr__(self):
        if not self.is_finite:
            return "Degree(infinite)"
        return f"Degree({self.value} via {self.witness_node.text})"


def _reduce(rows, vec, char):
    """Subtract each tagged row at its pivot, in insertion order.

    Returns the residue and the tag of the last row used (None if none was).
    Each row is zero at the pivots of the rows before it, so the residue is
    zero exactly when vec lies in the span of the rows.  In characteristic
    char > 0 each pivot entry is reduced on the way and the residue once.
    """
    v = list(vec)
    tag = None
    for t, p, row in rows:
        c = v[p] % char if char else v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
            tag = t
    return ([a % char for a in v] if char else v), tag


def _append(field, rows, vec, tag):
    """Add vec to the tagged echelon basis; False if it is already spanned."""
    char = field.characteristic
    v, _ = _reduce(rows, vec, char)
    p = next((i for i, a in enumerate(v) if a), None)
    if p is None:
        return False
    rows.append((tag, p, scaled_row(v, field.inv(v[p]), char)))
    return True


def _span_rows(field, vecs):
    """The RREF basis of the span of vecs, as `Subspace` gives it: `_append` leaves
    echelon rows with unit pivots, so `rref` runs only on two or more."""
    rows = []
    for v in vecs:
        _append(field, rows, v, None)
    rows = [row for _, _, row in rows]
    return rref(rows, field)[1] if len(rows) > 1 else rows


class RadicalTable:
    """All radical layers of a knitted AR quiver, one depth-tagged basis per pair.

    `_source(x)` builds the rows of every pair (x, .) when a query first
    reads x; `nilpotency` builds the projective sources, `_tagged` every source.
    """

    def __init__(self, quiver):
        self.quiver = quiver
        self.field = quiver.field
        self.nodes = nodes = quiver.nodes
        self._layers = {}
        self._rep_to_node = {id(n.module.rep): n for n in nodes}
        self._pair_rows = {}  # (source index, target index) -> [(tag, pivot, row)], deepest first
        self._levels = {}  # built source index -> its number of nonzero T_m
        self._nilpotency = None  # set once the projective sources are built
        self._limit = 4 * sum(n.module.total_dim for n in nodes)
        # z -> [(y, arrow map z -> y, the vertices where it has a nonzero)]
        self._out = {n.index: [] for n in nodes}
        for a in quiver.arrows:
            # every row is then a composite of morphisms, which depth() relies on
            if not a.morphism.check_intertwining():
                raise MeshInconsistencyError(
                    f"arrow {nodes[a.source].text} -> {nodes[a.target].text} is not a morphism"
                )
            rows_at = frozenset(v for v, *_ in a.morphism.nonzeros)
            self._out[a.source].append((a.target, a.morphism, rows_at))

    # -- construction ------------------------------------------------------

    def _source(self, xi):
        """Store the tagged rows of every pair (x, y), x the node of index xi.

        Raises before storing anything, so a failed source stays unbuilt.
        """
        field, nodes = self.field, self.nodes
        src = nodes[xi].module.rep
        support = src.support
        layouts = {}  # y -> flat_offsets of Hom(x, y)
        live = {}  # z -> the arrows out of z with a row on x's support
        nxt = {}
        for yi, g, _ in self._out[xi]:
            nxt.setdefault(yi, []).append(g.flatten())
            layouts[yi] = flat_offsets(src, nodes[yi].module.rep)
        spans = []  # spans[m - 1]: the RREF rows of each nonzero T_m(x, y), by y
        while True:
            t = {}
            for k, vs in nxt.items():
                rows = _span_rows(field, vs)
                if rows:
                    t[k] = rows
            if not t:
                break
            spans.append(t)
            if len(spans) > self._limit:
                raise MeshInconsistencyError("radical filtration does not terminate")
            nxt = {}
            for zi, rows in t.items():
                arrows = live.get(zi)
                if arrows is None:
                    arrows = live[zi] = [
                        (yi, g) for yi, g, rows_at in self._out[zi]
                        if not support.isdisjoint(rows_at)
                    ]
                src_offsets = layouts[zi]
                for yi, g in arrows:
                    dst_offsets = layouts.get(yi)
                    if dst_offsets is None:
                        dst_offsets = layouts[yi] = flat_offsets(src, nodes[yi].module.rep)
                    nxt.setdefault(yi, []).extend(
                        flat_compose(g, src, rows, src_offsets, dst_offsets)
                    )
        tagged = {}
        for m in range(len(spans), 0, -1):
            for yi, level in spans[m - 1].items():
                rows = tagged.setdefault((xi, yi), [])
                for v in level:
                    _append(field, rows, v, m)
        one, zero = field.one(), field.zero()  # the identity's flat vector, block by block
        ident = [one if i == j else zero
                 for d in src.dims.values() for i in range(d) for j in range(d)]
        if not _append(field, tagged.setdefault((xi, xi), []), ident, 0):
            raise MeshInconsistencyError(f"the identity of {nodes[xi].text} lies in the radical")
        self._pair_rows.update(tagged)
        self._levels[xi] = len(spans)

    @property
    def nilpotency(self):
        """rad^N = 0 one past the deepest composite; builds the projective sources only.

        A source's level is the largest m with rad^m(X, .) != 0, and the
        deepest level is reached at a projective.  Let 0 != f in
        rad^m(X, Y) and let p: P -> X be a projective cover.  Since p is
        onto, f o p != 0, and it lies in rad^m(P, Y) because rad^m is an
        ideal.  So some indecomposable summand P(v) has rad^m(P(v), Y) != 0,
        and every P(v) is a node.
        """
        if self._nilpotency is None:
            levels = [self._level(x.index) for x in self.nodes if x.projective]
            self._nilpotency = max(levels, default=0) + 1
        return self._nilpotency

    @property
    def _tagged(self):
        """(source index, target index) -> [(tag, pivot, row)], every source built."""
        for x in self.nodes:
            self._level(x.index)
        return self._pair_rows

    def _level(self, xi):
        """The number of nonzero T_m(x, .), source xi built first."""
        if xi not in self._levels:
            self._source(xi)
        return self._levels[xi]

    # -- queries -----------------------------------------------------------

    def node_of_rep(self, rep):
        n = self._rep_to_node.get(id(rep))
        if n is not None:
            return n
        for cand in self.nodes:
            if cand.module.rep == rep:
                return cand
        raise MeshInconsistencyError("morphism endpoint is not a node module")

    def _rows(self, xi, yi):
        """The tagged rows of the pair of node indices (xi, yi), source xi built first."""
        self._level(xi)
        return self._pair_rows.get((xi, yi), ())

    def reaches(self, xi, yi, n=0):
        """True when rad^n(x, y) != 0, for node indices xi, yi; n=0 asks Hom(x, y) != 0.

        `_source` appends each pair's rows deepest tag first, so the first
        stored row carries the pair's largest tag and one lookup decides.
        """
        rows = self._rows(xi, yi)
        return bool(rows) and rows[0][0] >= n

    def tags(self, xi, yi):
        """The depths a nonzero map x -> y can have: the tags of the pair's rows.

        A map is one combination of the pair's rows, which `depth` reads off
        deepest tag first; its depth is the tag of the last row used.  So
        `depth` returns one of these tags, or ZERO_DEPTH for the zero map.
        """
        return {t for t, _, _ in self._rows(xi, yi)}

    def _deep_rows(self, x, y, n):
        return [row for t, _, row in self._rows(x.index, y.index) if t >= n]

    def layer(self, x, y, n):
        """rad^n(x, y) as a Subspace: the span of the rows tagged n or more."""
        key = (x.index, y.index, n)
        s = self._layers.get(key)
        if s is None:
            s = self._layers[key] = Subspace(
                self.field, hom_flat_dim(x.module.rep, y.module.rep), self._deep_rows(x, y, n)
            )
        return s

    def profile(self, x, y):
        tags = [t for t, _, _ in self._rows(x.index, y.index)]
        dims = [sum(1 for t in tags if t >= n) for n in range(self.nilpotency + 1)]
        return RadicalProfile(self, x, y, dims)

    def depth(self, f, source=None, target=None):
        """Largest n with f in rad^n; ZERO_DEPTH for the zero morphism.

        Every row of the table is a morphism (the arrow maps are checked at
        construction) and the rows span Hom(x, y), so f reduces to zero exactly
        when it is a morphism; the intertwining check runs only on a nonzero
        residue.
        """
        x = source or self.node_of_rep(f.source)
        y = target or self.node_of_rep(f.target)
        vec = f.flatten()
        if not any(vec):
            return ZERO_DEPTH
        rest, d = _reduce(self._rows(x.index, y.index), vec, self.field.characteristic)
        if any(rest):
            if not f.check_intertwining():
                raise MeshInconsistencyError("depth of a non-morphism")
            raise MeshInconsistencyError(f"{x.text} -> {y.text}: morphism outside the table")
        return d

    def degree(self, f, side, bound=None, source=None, target=None):
        """Least m such that composing with f jumps two layers; see Degree.

        side "left": search g: Z -> X with g in rad^m \\ rad^{m+1} and
        f o g in rad^{m+2}(Z, Y).  side "right" is dual.
        """
        if side not in ("left", "right"):
            raise ValueError(f"unknown side {side!r}")
        x = source or self.node_of_rep(f.source)
        y = target or self.node_of_rep(f.target)
        if self.depth(f, x, y) != 1:
            raise NotIrreducibleError("degree is defined for irreducible morphisms")
        limit = bound if bound is not None else self.nilpotency
        for m in range(1, limit + 1):
            for z in self.nodes:
                hit = self._degree_witness(f, x, y, z, m, side == "left")
                if hit is not None:
                    return Degree(m, z, hit)
        if limit >= self.nilpotency:
            return Degree(math.inf)
        raise ValueError(
            f"degree bound {bound} is below the nilpotency index {self.nilpotency}; "
            "no witness found, result inconclusive"
        )

    def _degree_witness(self, f, x, y, z, m, left):
        """A g: Z -> X (left) or Y -> Z (right) in rad^m \\ rad^{m+1} with
        f o g (left) or g o f (right) in rad^{m+2}; None if there is none.

        f is in rad, so it sends rad^{m+1} into rad^{m+2}: g works exactly
        when its part on the rows tagged m does.  Those rows are independent
        modulo rad^{m+1}, so every nonzero combination of them lies outside
        it, and the witness is the first one whose composite reduces to zero
        against the rows tagged m+2 or more.
        """
        src, mid = (z, x) if left else (y, z)
        rows = [row for t, _, row in self._rows(src.index, mid.index) if t == m]
        if not rows:
            return None
        far_pair = (z.index, y.index) if left else (x.index, z.index)
        far = [r for r in self._rows(*far_pair) if r[0] >= m + 2]  # a prefix: deepest first
        field, src_rep, mid_rep = self.field, src.module.rep, mid.module.rep
        morphs = [morphism_from_flat(src_rep, mid_rep, v) for v in rows]
        composites = [(f.compose(g) if left else g.compose(f)).flatten() for g in morphs]
        residues = [_reduce(far, h, field.characteristic)[0] for h in composites]
        kernel = nullspace(Mat(field, zip(*residues), len(rows)))
        if not kernel:
            return None
        return morphism_from_flat(src_rep, mid_rep, combination(field, kernel[0], rows))

    # -- definitional-recursion cross-check ------------------------------

    def layers_equal_to_span(self):
        """Exact equality with the definitional recursion, all pairs, all n.

        The engine's rows tagged n or more span rad^n; they equal the
        recursion's space when the dimensions agree and every row lies in
        it.  Nothing is added to the `layer` memo.
        """
        def same(space, xi, yi, n):
            rows = self._deep_rows(self.nodes[xi], self.nodes[yi], n)
            return space.dim == len(rows) and all(map(space.contains, rows))

        layers = zip(range(self.nilpotency + 1), self._recursion_layers())
        return all(
            same(space, xi, yi, n)
            for n, spaces in layers
            for (xi, yi), space in spaces.items()
        )

    def _recursion_layers(self):
        """Yield rad^0, rad^1, ... as {pair: Subspace}, independently of the engine.

        Hom spaces are solved by `hom_basis` and the diagonal's radical comes
        from `end_radical`; then rad^{n+1}(X, Y) = sum over Z of
        rad(Z, Y) o rad^n(X, Z).
        """
        field, nodes = self.field, self.nodes
        pairs = [(x, y) for x in nodes for y in nodes]

        def span(x, y, maps):
            dim = hom_flat_dim(x.module.rep, y.module.rep)
            return Subspace(field, dim, [f.flatten() for f in maps])

        hom = {
            (x.index, y.index): span(x, y, hom_basis(x.module.rep, y.module.rep).basis)
            for x, y in pairs
        }
        yield hom
        current = first = {
            (x.index, y.index): span(x, x, end_radical(x.module.rep)) if x is y
            else hom[(x.index, y.index)]
            for x, y in pairs
        }
        while True:
            yield current
            nxt = {}
            for x, y in pairs:
                acc = nxt[(x.index, y.index)] = span(x, y, [])
                for z in nodes:
                    for fv in current[(x.index, z.index)].rows:
                        f = morphism_from_flat(x.module.rep, z.module.rep, fv)
                        for gv in first[(z.index, y.index)].rows:
                            g = morphism_from_flat(z.module.rep, y.module.rep, gv)
                            acc.insert(g.compose(f).flatten())
            current = nxt


def _standard_morphism(quiver, u, projective):
    def resolve(canon):
        return quiver.node_of(canon).module

    arrows = standard_arrows(quiver.p, u, resolve, projective)
    if len(arrows) != 1:
        # a vertex choice from the caller, not a broken invariant
        what = f"rad P({u})" if projective else f"I({u})/soc"
        name = f"{what} -> P({u})" if projective else f"I({u}) -> {what}"
        raise NotIrreducibleError(
            f"{name} is not irreducible: {what} has {len(arrows)} indecomposable summands"
        )
    src, dst, mor = arrows[0]
    return mor, quiver.node_of(src.word), quiver.node_of(dst.word)


def theta_morphism(quiver, u):
    """The canonical irreducible I(u) -> I(u)/soc; needs the quotient indecomposable."""
    return _standard_morphism(quiver, u, projective=False)


def iota_morphism(quiver, u):
    """The canonical irreducible rad P(u) -> P(u); needs the radical indecomposable."""
    return _standard_morphism(quiver, u, projective=True)


class CountingQuiver:
    """The [CG]-style quiver on strings ending (starting) at a vertex."""

    __slots__ = ("side", "vertex", "vertex_walks", "arrows")

    def __init__(self, side, vertex, vertex_walks, arrows):
        self.side = side
        self.vertex = vertex
        self.vertex_walks = vertex_walks
        self.arrows = arrows

    @property
    def order(self):
        return len(self.vertex_walks)

    def as_dict(self):
        return {
            "side": self.side,
            "vertex": self.vertex,
            "vertices": [walk_to_text(w) for w in self.vertex_walks],
            "arrows": [
                [walk_to_text(self.vertex_walks[i]), walk_to_text(self.vertex_walks[j])]
                for i, j in self.arrows
            ],
        }

    def __repr__(self):
        return f"CountingQuiver({self.side} at {self.vertex}: {self.order} vertices)"


def cg_quiver(p, u, side):
    """Vertices: strings ending (starting) at u, trivial or closing with an arrow.

    Arrow rule on the ending side: C -> C' when C' is the reduced walk of
    b^{-1} C for an arrow b; dually with C b on the starting side.  Words
    are oriented; a word and its inverse name the same module and count once.
    """
    if side not in ("ending", "starting"):
        raise ValueError(f"unknown side {side!r}")
    is_string(p, Walk(basepoint=u))  # an unknown vertex raises UnknownLabelError
    if has_band(p):
        raise BandFoundError("counting quivers need a band-free presentation")
    verts = []
    index = {}
    for sw in enumerate_strings(p):
        for orient in dict.fromkeys((sw.walk, sw.walk.inverse())):
            if _cg_vertex_ok(p, orient, u, side):
                canon = canonical_walk(p, orient)
                if canon not in index:
                    index[canon] = len(verts)
                    verts.append(orient)
                break
    arrows = []
    for i, w in enumerate(verts):
        for w2 in _cg_steps(p, w, side):
            j = index.get(canonical_walk(p, w2))
            if j is not None:
                arrows.append((i, j))
    return CountingQuiver(side, u, verts, sorted(set(arrows)))


def _cg_vertex_ok(p, walk, u, side):
    ending = side == "ending"
    if (walk_target if ending else walk_source)(p, walk) != u:
        return False
    return walk.is_trivial or not walk.letters[-1 if ending else 0].inverse


def _cg_steps(p, walk, side):
    """Ending side: the reduced walks b^- C; starting side: the reduced walks C b."""
    ending = side == "ending"
    v = walk_source(p, walk) if ending else walk_target(p, walk)
    out = []
    for b in p.quiver.arrows_from(v):
        letter = Letter(b.label, inverse=ending)
        if not walk.is_trivial and walk.letters[0 if ending else -1] == letter.inverted():
            rest = walk.letters[1:] if ending else walk.letters[:-1]
            out.append(Walk(rest) if rest else Walk(basepoint=b.target))
        else:
            cand = Walk((letter,) + walk.letters if ending else walk.letters + (letter,))
            if is_string(p, cand):
                out.append(cand)
    return out
