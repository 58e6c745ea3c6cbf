"""Radical powers of the module category, depth, degrees, counting quivers.

A band-free string algebra is representation-finite, so rad^n(X, Y) is
spanned by composites of at least n irreducible maps in any characteristic
(Auslander-Reiten-Smalo, ch. V.7).  Each arrow map of `knit` is a
`modules.GraphMap` of one run with coefficient +-1, and `compose_runs`
gives the run of g o f, or zero, up to sign; so T_m, the composites of m
arrow maps, is spanned by runs.  Per node pair the table keeps each run
with its level, the deepest m with the run in T_m; the identity, the run
of every position, has level 0.

The runs of level n or more are a basis of rad^n(X, Y).  A run is a
morphism (the arrow maps are checked when the table is made) on an
interval S of positions, so a graph map M(C) ->> M(S) >-> M(D)
(Crawley-Boevey 1989, Krause 1991; see `artheory.AlmostSplitSequence`):
past an end of S, C's next letter points out of S and D's into it.  Two
distinct ones share no coordinate (z_x, z'_y).  If both have one direction,
or one has one position, one ends inside the other at a letter that must
point out of it in C and into it in D, which the other reads alike in C
and D; else the letters next to a shared position give C or D a
non-reduced word such as l^-1 l.  So the runs' unit vectors, by pivot, are
independent and in RREF; f = sum c_r r has the least level of an r with
c_r != 0 as depth; and levels, tags and profiles do not depend on the field.
`layer` lists it as graph maps; the engine's maps and degree witnesses are
`GraphMap` sums on it, and `depth` reads their terms.

T_m grows from either end: `_build(x, "source")` finds the pairs (X, .)
with T_{m+1}(X, Y) = a o T_m(X, Z) over the arrows a: Z -> Y, and
`_build(y, "target")` the column (., Y) with T_{m+1}(X, Y) = T_m(Z, Y) o a
over a: X -> Z; runs have canonical keys, so the ends agree.  A query
builds what it reads, once: `nilpotency` the projective sources;
`profile(x, y)` x and those; a right degree of f: X -> Y the sources Y and
X and those, a left one the source X, those and the columns X and Y.

The definitional recursion (`_recursion_layers`) is kept only as the
cross-check `layers_equal_to_span`.
"""

from __future__ import annotations

import math

from .errors import BandFoundError, MeshInconsistencyError, NotIrreducibleError
from .fields import Mat, Subspace, nullspace
from .modules import end_radical, hom_basis, morphism_from_flat  # the cross-check only
from .modules import GraphMap, compose_runs, flat_offsets, standard_word
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


def _cells(M, N, offsets, run):
    """The flat indices where the graph map M -> N of a run is 1."""
    s, t, d, k = run
    return [offsets[v] + N.basis[t + d * i][1] * M.rep.dims[v] + j
            for i, (v, j) in enumerate(M.basis[s : s + k])]


class RadicalProfile:
    """The chain Hom = rad^0 >= rad^1 >= ... >= 0 for one ordered node pair."""

    __slots__ = ("source", "target", "dims")

    def __init__(self, source, target, dims):
        self.source = source
        self.target = target
        self.dims = dims

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


class RadicalTable:
    """All radical layers of a knitted AR quiver: each pair's runs with their
    levels, built by source or column when a query first reads them."""

    def __init__(self, quiver):
        self.quiver = quiver
        self.field = quiver.field
        self.nodes = nodes = quiver.nodes
        self._pairs = {}  # (source, target index) -> {run: its deepest level}
        self._owners = {}  # read pair -> {flat index: the run that sets it}
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
            # every run is then a morphism, which depth() relies on
            if not a.morphism.check_intertwining():
                raise refuse(a, "is not a morphism")
            runs = [*(a.morphism.terms or ())]
            if len(runs) != 1:
                raise refuse(a, "has no run: knit did not make it")
            self._out[a.source].append((a.target, runs[0]))
            self._in[a.target].append((a.source, runs[0]))

    # -- construction ------------------------------------------------------

    def _build(self, ci, side):
        """Keep the runs of every pair (c, .) (side "source") or (., c) (side
        "target"), c the node of index ci, with their levels.  A diagonal run
        fixing a position is the identity (module docstring), so it raises;
        a failed build stores nothing."""
        source = side == "source"
        step = self._out if source else self._in
        runs = {}
        for zi, a in step[ci]:
            runs.setdefault(zi, set()).add(a)
        pairs, m = {(ci, ci): {}}, 0  # pair -> {run: its last, so deepest, m}
        while runs:
            m += 1
            if m > self._limit:
                raise MeshInconsistencyError("radical filtration does not terminate")
            nxt = {}
            for zi, level in runs.items():
                if zi == ci and any(s + j == t + d * j for s, t, d, k in level for j in range(k)):
                    raise MeshInconsistencyError(f"the identity of {self.nodes[ci].text} lies in the radical")
                pairs.setdefault((ci, zi) if source else (zi, ci), {}).update(dict.fromkeys(level, m))
                for yi, a in step[zi]:
                    for r in level:
                        c = compose_runs(r, a) if source else compose_runs(a, r)
                        if c:
                            nxt.setdefault(yi, set()).add(c)
            runs = nxt
        pairs[ci, ci][0, 0, 1, self.nodes[ci].module.total_dim] = 0  # the identity
        for key, levels in pairs.items():
            self._pairs.setdefault(key, levels)
        if source:
            self._levels[ci] = m
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

    def _runs(self, xi, yi):
        """{run: level} of (xi, yi), from column yi if built, else source xi, built first."""
        if yi not in self._columns:
            self._level(xi)
        return self._pairs.get((xi, yi), {})

    def _owner(self, xi, yi):
        """{flat index: the run of (xi, yi) that sets it}, made on first read;
        raises if two runs share one, as no sound table has."""
        owner = self._owners.get((xi, yi))
        if owner is None:
            owner, x, y = {}, self.nodes[xi], self.nodes[yi]
            offsets, _ = flat_offsets(x.module.rep, y.module.rep)
            for run in self._runs(xi, yi):
                for c in _cells(x.module, y.module, offsets, run):
                    other = owner.setdefault(c, run)
                    if other != run:
                        text = f"{x.text} -> {y.text}: runs {other} and {run} share an entry"
                        raise MeshInconsistencyError(text)
            self._owners[xi, yi] = owner
        return owner

    def reaches(self, xi, yi, n=0):
        """True when rad^n(x, y) != 0 for node indices xi, yi; n=0 asks
        Hom(x, y) != 0.  Its basis is the runs of level n or more."""
        levels = self._runs(xi, yi)
        return bool(levels) and max(levels.values()) >= n

    def tags(self, xi, yi, among):
        """The levels in among of the pair (xi, yi), which are the depths in among
        of its nonzero maps.  A pair whose y ends no AR-quiver path from x of a
        length in among (0 counts when x = y) answers the empty set with no
        source built.

        The path test loses no level.  Level 0 is the identity's, on the
        diagonal only.  A run has level m > 0 only if it lies in T_m(x, y),
        spanned by composites of m arrow maps: T_1(x, y) by the arrow maps
        x -> y, T_{m+1}(x, y) by a o T_m(x, z) over the arrows a: z -> y (or
        T_m(z, y) o a over a: x -> z).  By induction, T_m(x, y) != 0 only if
        the AR quiver has a path of m arrows from x to y.
        """
        ends = self.quiver.reach(xi, max(among))  # ends[m]: the nodes m arrows from x
        if not any(yi in ends[m] for m in among):
            return set()
        return {t for t in self._runs(xi, yi).values() if t in among}

    def layer(self, x, y, n):
        """The basis of rad^n(x, y) as graph maps: the runs of level n or more,
        deepest level first, then by pivot."""
        levels, M, N = self._runs(x.index, y.index), x.module, y.module
        offsets, one = flat_offsets(M.rep, N.rep)[0], self.field.one()
        runs = sorted((r for r, t in levels.items() if t >= n),
                      key=lambda r: (-levels[r], min(_cells(M, N, offsets, r))))
        return [GraphMap(M, N, {r: one}) for r in runs]

    def profile(self, x, y):
        levels = self._runs(x.index, y.index).values()
        dims = [sum(1 for t in levels if t >= n) for n in range(self.nilpotency + 1)]
        return RadicalProfile(x, y, dims)

    def depth(self, f, source, target):
        """Largest n with f: source -> target in rad^n, the least level of its
        `_terms`; ZERO_DEPTH for the zero morphism.  Raises ValueError before
        the table is read if f is not a map between the nodes' modules."""
        if f.source is not source.module.rep or f.target is not target.module.rep:
            raise ValueError(f"not a map {source.text} -> {target.text}")
        terms, levels = self._terms(f, source, target), self._pairs.get((source.index, target.index))
        return min((levels[r] for r in terms), default=ZERO_DEPTH)

    def _terms(self, f, x, y):
        """f: x -> y as {run: nonzero coefficient}: a graph-map sum's terms, else
        (a map made outside the engine) each flat nonzero read at the run that
        owns it.  The runs span Hom(x, y): f is a morphism iff every nonzero is
        owned and fills its run with one coefficient."""
        if f.terms and self._runs(x.index, y.index).keys() >= f.terms.keys():
            return f.terms
        if f.is_zero():
            return {}
        vec, char = f.flatten(), self.field.characteristic
        terms, cells = {}, [(c, a) for c, a in enumerate([a % char for a in vec] if char else vec) if a]
        owner = cells and self._owner(x.index, y.index)
        for c, a in cells:
            if terms.setdefault(owner.get(c), a) != a:
                break
        else:
            if None not in terms and sum(run[3] for run in terms) == len(cells):
                return terms
        if not f.check_intertwining():
            raise MeshInconsistencyError("depth of a non-morphism")
        raise MeshInconsistencyError(f"{x.text} -> {y.text}: morphism outside the table")

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
        when its part on the runs of level m does, and each nonzero combination
        of those lies outside rad^{m+1}.  The witness is the first kernel vector
        of their composites' terms below level m + 2, as a graph-map sum.
        """
        src, mid = (z, x) if left else (y, z)
        runs = [r for r, t in self._runs(src.index, mid.index).items() if t == m]
        if not runs:
            return None
        M, N, one = src.module, mid.module, self.field.one()
        offsets, _ = flat_offsets(M.rep, N.rep)
        runs.sort(key=lambda r: min(_cells(M, N, offsets, r)))  # by pivot
        far = (z, y) if left else (x, z)
        levels, shallow = self._runs(far[0].index, far[1].index), []
        for run in runs:
            g = GraphMap(M, N, {run: one})
            terms = self._terms(f.compose(g) if left else g.compose(f), *far)
            shallow.append({r: c for r, c in terms.items() if levels[r] < m + 2})
        keys = dict.fromkeys(r for terms in shallow for r in terms)
        kernel = nullspace(Mat(self.field, [[terms.get(r, 0) for terms in shallow] for r in keys], len(runs)))
        if not kernel:
            return None
        return GraphMap(M, N, {run: c for c, run in zip(kernel[0], runs) if c})

    # -- definitional-recursion cross-check ------------------------------

    def layers_equal_to_span(self):
        """Exact equality with the definitional recursion, all pairs, all n.

        The flat rows of `layer` span rad^n; they equal the recursion's
        space when the dimensions agree and every row lies in it.
        """
        def same(space, xi, yi, n):
            rows = [g.flatten() for g in self.layer(self.nodes[xi], self.nodes[yi], n)]
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
            dim = flat_offsets(x.module.rep, y.module.rep)[1]
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
    """The knitted quiver's one arrow into P(u) (out of I(u)) as (map, source
    node, target node).  Those arrows are the maps from the summands of
    rad P(u) (to those of I(u)/soc), so there is one iff that is indecomposable."""
    node = quiver.node_of(standard_word(quiver.p, u, projective)).index
    arrows = quiver.arrows_into(node) if projective else quiver.arrows_from(node)
    if len(arrows) != 1:
        # a vertex choice from the caller, not a broken invariant
        what = f"rad P({u})" if projective else f"I({u})/soc"
        name = f"{what} -> P({u})" if projective else f"I({u}) -> {what}"
        raise NotIrreducibleError(
            f"{name} is not irreducible: {what} has {len(arrows)} indecomposable summands"
        )
    a = arrows[0]
    return a.morphism, quiver.nodes[a.source], quiver.nodes[a.target]


def theta_morphism(quiver, u):
    """The canonical irreducible I(u) -> I(u)/soc up to sign; needs the quotient
    indecomposable.  It is a right map of the mesh ending at I(u)/soc: the
    projection, or its negative when it is that mesh's r_2 and the mesh
    negates r_2.  Degrees and witnesses do not depend on the sign."""
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
