"""Radical powers of the module category, depth, degrees, counting quivers.

All layers live in flattened Hom coordinates per ordered node pair.  A
band-free string algebra is representation-finite, so rad^n(X, Y) is
spanned by composites of at least n irreducible maps in any characteristic
(Auslander-Reiten-Smalo, ch. V.7).  The engine spans T_m, the composites of
m arrow maps, then folds T_m, deepest m first, with `fields.append` into one
echelon basis per ordered pair whose rows (m, pivot, row) carry their depth
tag m; the identity joins the diagonal last with tag 0.  rad^n is the span
of the rows tagged n or more.

T_m grows from either end.  `_build(x, "source")` fills the pairs (X, .)
with T_{m+1}(X, Y) = a o T_m(X, Z) over the arrows a: Z -> Y, and
`_build(y, "target")` the column (., Y) with T_{m+1}(X, Y) = T_m(Z, Y) o a
over the arrows a: X -> Z.  The fold reads each T_m in RREF, which is
canonical, so a pair's rows do not depend on the end or the order of the
builds.  A query builds what it reads, once: `nilpotency` the projective
sources, one per vertex; `profile(x, y)` x and those; a right degree of
f: X -> Y the sources Y and X and those, a left one the source X, those and
the columns X and Y; `_tagged` every source.

`_build` carries runs, not maps.  Every arrow map of `knit` is a graph
map and records its `run` (s, t, d, k): basis position s + i of its
source's string module goes to t + d * i of its target's, i < k, d = +-1,
with coefficient 1, or -1 on r_2 of a mesh.  `_compose` intersects f's
target interval with g's source interval, which gives the run of g o f or
zero.  This is exact: a run's matrix is a partial injection, one nonzero
+-1 in each row and column of its support, and a product of two is the
partial injection on the intersected run, with the product sign.  A sign
changes no span, so T_m is the span of the unit vectors of its runs;
`flat_runs` writes them only at the fold, and no graph-map basis theorem is
used.  So no morphism and no flat vector is made before the fold; the arrow
maps are checked to be morphisms when the table is made.

The definitional recursion rad^{n+1}(X, Y) = sum over Z of
rad(Z, Y) o rad^n(X, Z), on solved Hom spaces with the endomorphism
radical on the diagonal, is kept only as the cross-check
`layers_equal_to_span`.
"""

from __future__ import annotations

import math

from .artheory import _Resolver, standard_arrows
from .errors import BandFoundError, MeshInconsistencyError, NotIrreducibleError
from .fields import Mat, Subspace, append, combination, nullspace, reduce, rref
from .modules import end_radical, hom_basis  # the cross-check only
from .modules import flat_runs, hom_flat_dim, morphism_from_flat
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


def _compose(f, g):
    """The run of g o f for runs f: X -> Z and g: Z -> Y, or None for zero: the
    positions of Z in both f's target interval and g's source interval,
    [lo, hi], read from the end z that f reaches first."""
    s, t, d, k = f
    s2, t2, d2, k2 = g
    lo, hi = (t, t + k - 1) if d > 0 else (t - k + 1, t)  # f's target interval
    lo, hi = max(lo, s2), min(hi, s2 + k2 - 1)
    if lo > hi:
        return None
    z = lo if d > 0 else hi
    return s + d * (z - t), t2 + d2 * (z - s2), d * d2, hi - lo + 1


class RadicalTable:
    """All radical layers of a knitted AR quiver, one depth-tagged basis per pair.

    A query builds the source x, the pairs (x, .), or the column y, the
    pairs (., y), when it first reads a pair of it; `_rows(x, y)` reads a
    built column y, else builds the source x.
    """

    def __init__(self, quiver):
        self.quiver = quiver
        self.field = quiver.field
        self.nodes = nodes = quiver.nodes
        self._pair_rows = {}  # (source index, target index) -> [(tag, pivot, row)], deepest first
        self._levels = {}  # built source index -> its number of nonzero T_m
        self._columns = set()  # built target (column) indices
        self._nilpotency = None  # set once the projective sources are built
        self._limit = 4 * sum(n.module.total_dim for n in nodes)
        # z -> [(y, run of the arrow map z -> y)] out of z, and [(y, run of y -> z)] into z
        self._out = {n.index: [] for n in nodes}
        self._in = {n.index: [] for n in nodes}

        def refuse(a, fault):
            text = f"arrow {nodes[a.source].text} -> {nodes[a.target].text} {fault}"
            return MeshInconsistencyError(text)

        for a in quiver.arrows:
            # every row is then a composite of morphisms, which depth() relies on
            if not a.morphism.check_intertwining():
                raise refuse(a, "is not a morphism")
            if a.morphism.run is None:
                raise refuse(a, "has no run: knit did not make it")
            self._out[a.source].append((a.target, a.morphism.run))
            self._in[a.target].append((a.source, a.morphism.run))

    # -- construction ------------------------------------------------------

    def _build(self, ci, side):
        """Store the tagged rows of every pair (c, .) (side "source") or (., c)
        (side "target"), c the node of index ci, as the module docstring says.

        Raises before storing anything, so a failed build stays unbuilt.
        """
        field, nodes, source = self.field, self.nodes, side == "source"
        step = self._out if source else self._in
        runs = {}
        for zi, a in step[ci]:
            runs.setdefault(zi, set()).add(a)
        levels = []  # levels[m - 1]: the runs of the nonzero composites of m arrow maps, by z
        while runs:
            levels.append(runs)
            if len(levels) > self._limit:
                raise MeshInconsistencyError("radical filtration does not terminate")
            nxt = {}
            for zi, level in runs.items():
                for yi, a in step[zi]:
                    for r in level:
                        c = _compose(r, a) if source else _compose(a, r)
                        if c:
                            nxt.setdefault(yi, set()).add(c)
            runs = nxt
        fixed = nodes[ci].module
        tagged = {}
        for m in range(len(levels), 0, -1):
            for zi, found in levels[m - 1].items():
                key = (ci, zi) if source else (zi, ci)
                ends = (fixed, nodes[zi].module) if source else (nodes[zi].module, fixed)
                pivots, level = rref(flat_runs(*ends, found), field)
                rows = tagged.get(key)
                if rows is None:  # the deepest level: RREF with unit pivots, as `append` keeps it
                    tagged[key] = [(m, p, r) for p, r in zip(pivots, level)]
                else:
                    for r in level:
                        append(field, rows, r, m)
        [ident] = flat_runs(fixed, fixed, [(0, 0, 1, fixed.total_dim)])
        if not append(field, tagged.setdefault((ci, ci), []), ident, 0):
            raise MeshInconsistencyError(f"the identity of {nodes[ci].text} lies in the radical")
        self._pair_rows.update(tagged)
        if source:
            self._levels[ci] = len(levels)
        else:
            self._columns.add(ci)

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
            self._build(xi, "source")
        return self._levels[xi]

    def _column(self, yi):
        """Build the column yi, the pairs (., y), unless it or every source is built."""
        if yi not in self._columns and len(self._levels) < len(self.nodes):
            self._build(yi, "target")

    # -- queries -----------------------------------------------------------

    def _rows(self, xi, yi):
        """The tagged rows of the pair of node indices (xi, yi), from column yi
        if it is built, else from source xi, built first."""
        if yi not in self._columns:
            self._level(xi)
        return self._pair_rows.get((xi, yi), ())

    def reaches(self, xi, yi, n=0):
        """True when rad^n(x, y) != 0, for node indices xi, yi; n=0 asks Hom(x, y) != 0.

        `_build` stores each pair's rows deepest tag first, so the first
        stored row carries the pair's largest tag and one lookup decides.
        """
        rows = self._rows(xi, yi)
        return bool(rows) and rows[0][0] >= n

    def tags(self, xi, yi, among):
        """The tags in among of the pair (xi, yi): the depths in among that a
        nonzero map x -> y can have.  A pair whose y ends no AR-quiver path
        from x of a length in among (0 counts when x = y) answers the empty
        set with no source built.

        A map is one combination of the pair's rows, which `depth` reads off
        deepest tag first; its depth is the tag of the last row used.  So
        `depth` returns one of the pair's tags, or ZERO_DEPTH for the zero map.

        The path test loses no tag.  Tag 0 is the identity's, on the diagonal
        only.  `_build` tags a row m > 0 only where T_m(x, y) != 0, and
        T_m(x, y) is spanned by composites of m arrow maps: T_1(x, y) by the
        arrow maps x -> y, T_{m+1}(x, y) by a o T_m(x, z) over the arrows
        a: z -> y (or T_m(z, y) o a over a: x -> z, from the other end).  By
        induction on m, T_m(x, y) != 0 only if the AR quiver has a path of m
        arrows from x to y.  So every tag is 0 with x = y or the length of a
        path from x to y, and y ends none of length in among only when the
        pair has no tag in among.
        """
        ends = self.quiver.reach(xi, max(among))  # ends[m]: the nodes m arrows from x
        if not any(yi in ends[m] for m in among):
            return set()
        return {t for t, _, _ in self._rows(xi, yi) if t in among}

    def _deep_rows(self, x, y, n):
        return [row for t, _, row in self._rows(x.index, y.index) if t >= n]

    def layer(self, x, y, n):
        """rad^n(x, y) as a Subspace: the span of the rows tagged n or more."""
        return Subspace(self.field, hom_flat_dim(x.module.rep, y.module.rep), self._deep_rows(x, y, n))

    def profile(self, x, y):
        tags = [t for t, _, _ in self._rows(x.index, y.index)]
        dims = [sum(1 for t in tags if t >= n) for n in range(self.nilpotency + 1)]
        return RadicalProfile(self, x, y, dims)

    def depth(self, f, source, target):
        """Largest n with f: source -> target in rad^n; ZERO_DEPTH for the zero morphism.

        Every row of the table is a morphism (the arrow maps are checked at
        construction) and the rows span Hom(source, target), so f reduces to
        zero exactly when it is a morphism; the intertwining check runs only on
        a nonzero residue.  f must be a map between the nodes' modules, else
        this raises ValueError before any reduce.
        """
        if f.source is not source.module.rep or f.target is not target.module.rep:
            raise ValueError(f"not a map {source.text} -> {target.text}")
        vec = f.flatten()
        if not any(vec):
            return ZERO_DEPTH
        rest, d = reduce(self._rows(source.index, target.index), vec, self.field.characteristic)
        if any(rest):
            if not f.check_intertwining():
                raise MeshInconsistencyError("depth of a non-morphism")
            raise MeshInconsistencyError(f"{source.text} -> {target.text}: morphism outside the table")
        return d

    def degree(self, f, side, source, target, bound=None):
        """Least m such that composing with f: X -> Y (the nodes source and
        target) jumps two layers; see Degree.

        side "left": search g: Z -> X with g in rad^m \\ rad^{m+1} and
        f o g in rad^{m+2}(Z, Y).  side "right" is dual.
        """
        if side not in ("left", "right"):
            raise ValueError(f"unknown side {side!r}")
        x, y = source, target
        if self.depth(f, x, y) != 1:
            raise NotIrreducibleError("degree is defined for irreducible morphisms")
        limit = bound if bound is not None else self.nilpotency
        if side == "left":  # the witnesses read the pairs (z, x) and (z, y)
            self._column(x.index)
            self._column(y.index)
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
        residues = [reduce(far, h, field.characteristic)[0] for h in composites]
        kernel = nullspace(Mat(field, zip(*residues), len(rows)))
        if not kernel:
            return None
        return morphism_from_flat(src_rep, mid_rep, combination(field, kernel[0], rows))

    # -- definitional-recursion cross-check ------------------------------

    def layers_equal_to_span(self):
        """Exact equality with the definitional recursion, all pairs, all n.

        The engine's rows tagged n or more span rad^n; they equal the
        recursion's space when the dimensions agree and every row lies in
        it.
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
        rad(Z, Y) o rad^n(X, Z).  Each layer's basis maps are made once per
        pair and level.
        """
        field, nodes = self.field, self.nodes
        pairs = [(x, y) for x in nodes for y in nodes]

        def span(x, y, maps):
            dim = hom_flat_dim(x.module.rep, y.module.rep)
            return Subspace(field, dim, [f.flatten() for f in maps])

        def maps(spaces):
            return {
                (x.index, y.index): [morphism_from_flat(x.module.rep, y.module.rep, v)
                                     for v in spaces[(x.index, y.index)].rows]
                for x, y in pairs
            }

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
        rad = maps(first)
        while True:
            yield current
            deep, nxt = maps(current), {}
            for x, y in pairs:
                acc = nxt[(x.index, y.index)] = span(x, y, [])
                for z in nodes:
                    for f in deep[(x.index, z.index)]:
                        for g in rad[(z.index, y.index)]:
                            acc.insert(g.compose(f).flatten())
            current = nxt


def _standard_morphism(quiver, u, projective):
    resolve = _Resolver(quiver.p, quiver.field, [n.module for n in quiver.nodes])
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
