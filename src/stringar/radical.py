"""Radical powers of the module category, depth, degrees, counting quivers.

All layers live in flattened Hom coordinates per ordered node pair.  The
primary computation is the definitional recursion

    rad^{n+1}(X, Y) = sum over nodes Z of rad(Z, Y) o rad^n(X, Z)

with rad(U, V) = Hom(U, V) for distinct nodes and the endomorphism
radical on the diagonal.  An independent method spanning composites of
irreducible arrow matrices along directed paths cross-checks it.
"""

from __future__ import annotations

import math

from .artheory import standard_arrows
from .errors import BandFoundError, MeshInconsistencyError, NotIrreducibleError
from .fields import Mat, Subspace, nullspace
from .modules import end_radical, hom_basis, hom_flat_dim, morphism_from_flat
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

    __slots__ = ("source", "target", "layers")

    def __init__(self, source, target, layers):
        self.source = source
        self.target = target
        self.layers = layers

    @property
    def dims(self):
        return [s.dim for s in self.layers]

    def basis(self, n):
        """The n-th layer as a list of MorphismMatrix (empty beyond the chain)."""
        if n >= len(self.layers):
            return []
        return [
            morphism_from_flat(self.source.module.rep, self.target.module.rep, v)
            for v in self.layers[n].rows
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


class RadicalTable:
    """All radical layers of a knitted AR quiver."""

    def __init__(self, quiver):
        self.quiver = quiver
        self.field = quiver.field
        self.nodes = quiver.nodes
        self._flat = {}
        self._hom = {}
        self._layers = {}
        self._rep_to_node = {}
        for n in self.nodes:
            self._rep_to_node[id(n.module.rep)] = n
        self._build()

    # -- construction ------------------------------------------------------

    def _pair_key(self, x, y):
        return (x.index, y.index)

    def _build(self):
        field = self.field
        full = {}
        first = {}
        for x in self.nodes:
            for y in self.nodes:
                H = hom_basis(x.module.rep, y.module.rep)
                self._hom[self._pair_key(x, y)] = H
                fd = hom_flat_dim(x.module.rep, y.module.rep)
                self._flat[self._pair_key(x, y)] = fd
                full[self._pair_key(x, y)] = Subspace(
                    field, fd, [f.flatten() for f in H.basis]
                )
                if x.index == y.index:
                    rad = end_radical(x.module.rep)
                    first[self._pair_key(x, y)] = Subspace(
                        field, fd, [f.flatten() for f in rad]
                    )
                else:
                    first[self._pair_key(x, y)] = full[self._pair_key(x, y)].copy()
        layers = {k: [full[k], first[k]] for k in full}
        current = first
        while any(not s.is_zero() for s in current.values()):
            nxt = {}
            for x in self.nodes:
                for y in self.nodes:
                    key = self._pair_key(x, y)
                    acc = Subspace(self.field, self._flat[key])
                    for z in self.nodes:
                        left = current[self._pair_key(x, z)]
                        right = first[self._pair_key(z, y)]
                        if left.is_zero() or right.is_zero():
                            continue
                        for fv in left.rows:
                            f = morphism_from_flat(
                                x.module.rep, z.module.rep, fv
                            )
                            for gv in right.rows:
                                g = morphism_from_flat(
                                    z.module.rep, y.module.rep, gv
                                )
                                acc.insert(g.compose(f).flatten())
                    nxt[key] = acc
            for k in layers:
                layers[k].append(nxt[k])
            current = nxt
            if len(layers[next(iter(layers))]) > 4 * sum(
                n.module.total_dim for n in self.nodes
            ):
                raise MeshInconsistencyError("radical filtration does not terminate")
        self._layers = layers
        # rad^N = 0: index of the first all-zero layer
        self.nilpotency = len(layers[next(iter(layers))]) - 1

    # -- queries -----------------------------------------------------------

    def node_of_rep(self, rep):
        n = self._rep_to_node.get(id(rep))
        if n is not None:
            return n
        for cand in self.nodes:
            if cand.module.rep == rep:
                return cand
        raise MeshInconsistencyError("morphism endpoint is not a node module")

    def layer(self, x, y, n):
        chain = self._layers[self._pair_key(x, y)]
        if n < len(chain):
            return chain[n]
        return Subspace(self.field, self._flat[self._pair_key(x, y)])

    def profile(self, x, y):
        return RadicalProfile(x, y, list(self._layers[self._pair_key(x, y)]))

    def hom(self, x, y):
        return self._hom[self._pair_key(x, y)]

    def depth(self, f, source=None, target=None):
        """Largest n with f in rad^n; ZERO_DEPTH for the zero morphism."""
        x = source or self.node_of_rep(f.source)
        y = target or self.node_of_rep(f.target)
        if not f.check_intertwining():
            raise MeshInconsistencyError("depth of a non-morphism")
        if f.is_zero():
            return ZERO_DEPTH
        vec = f.flatten()
        chain = self._layers[self._pair_key(x, y)]
        d = 0
        for n in range(1, len(chain)):
            if chain[n].contains(vec):
                d = n
            else:
                break
        return d

    def degree(self, f, side, bound=None, source=None, target=None):
        """Least m such that composing with f jumps two layers; see Degree.

        side "left": search g: Z -> X with g in rad^m \\ rad^{m+1} and
        f o g in rad^{m+2}(Z, Y).  side "right" is dual.
        """
        x = source or self.node_of_rep(f.source)
        y = target or self.node_of_rep(f.target)
        if self.depth(f, x, y) != 1:
            raise NotIrreducibleError("degree is defined for irreducible morphisms")
        limit = bound if bound is not None else self.nilpotency
        for m in range(1, limit + 1):
            for z in self.nodes:
                hit = self._degree_witness(f, x, y, z, m, side)
                if hit is not None:
                    return Degree(m, z, hit)
        if limit >= self.nilpotency:
            return Degree(math.inf)
        raise ValueError(
            f"degree bound {bound} is below the nilpotency index {self.nilpotency}; "
            "no witness found, result inconclusive"
        )

    def _degree_witness(self, f, x, y, z, m, side):
        field = self.field
        if side == "left":
            V = self.layer(z, x, m)
            deeper = self.layer(z, x, m + 1)
            far = self.layer(z, y, m + 2)
            src_rep, mid_rep = z.module.rep, x.module.rep

            def compose(g):
                return f.compose(g)

        elif side == "right":
            V = self.layer(y, z, m)
            deeper = self.layer(y, z, m + 1)
            far = self.layer(x, z, m + 2)
            src_rep, mid_rep = y.module.rep, z.module.rep

            def compose(g):
                return g.compose(f)

        else:
            raise ValueError(f"unknown side {side!r}")
        if V.is_zero():
            return None
        morphs = [morphism_from_flat(src_rep, mid_rep, v) for v in V.rows]
        residues = [far.reduce(compose(g).flatten()) for g in morphs]
        if not any(any(r) for r in residues):
            coeff_basis = [
                [field.one() if i == j else field.zero() for j in range(len(morphs))]
                for i in range(len(morphs))
            ]
        else:
            cols = list(zip(*residues))
            mat = Mat(field, [list(c) for c in cols], len(morphs))
            coeff_basis = nullspace(mat)
        for coeffs in coeff_basis:
            vec = [field.zero()] * len(V.rows[0])
            for c, row in zip(coeffs, V.rows):
                if c:
                    vec = [a + c * b for a, b in zip(vec, row)]
            if any(vec) and not deeper.contains(vec):
                return morphism_from_flat(src_rep, mid_rep, vec)
        return None

    # -- irreducible-path-span cross-check ----------------------------------

    def span_layers(self):
        """rad^n as sums of length >= n composites of the arrow matrices."""
        field = self.field
        keys = {(x.index, y.index) for x in self.nodes for y in self.nodes}
        t = {k: Subspace(field, self._flat[k]) for k in keys}
        for a in self.quiver.arrows:
            t[(a.source, a.target)].insert(a.morphism.flatten())
        chains = {k: [] for k in keys}  # chains[k][m-1] = T_m
        for k in keys:
            chains[k].append(t[k])
        while any(not s.is_zero() for s in t.values()):
            nxt = {k: Subspace(field, self._flat[k]) for k in keys}
            for (xi, zi), space in t.items():
                if space.is_zero():
                    continue
                x = self.nodes[xi]
                z = self.nodes[zi]
                for a in self.quiver.arrows_from(zi):
                    for fv in space.rows:
                        f = morphism_from_flat(x.module.rep, z.module.rep, fv)
                        nxt[(xi, a.target)].insert(a.morphism.compose(f).flatten())
            for k in keys:
                chains[k].append(nxt[k])
            t = nxt
            if len(chains[next(iter(keys))]) > 4 * sum(
                n.module.total_dim for n in self.nodes
            ):
                raise MeshInconsistencyError("span filtration does not terminate")
        out = {}
        for k in keys:
            x, y = self.nodes[k[0]], self.nodes[k[1]]
            full = Subspace(
                field,
                self._flat[k],
                [f.flatten() for f in self._hom[k].basis],
            )
            layers = [full]
            chain = chains[k]
            for n in range(1, len(chain) + 1):
                acc = Subspace(field, self._flat[k])
                for m in range(n - 1, len(chain)):
                    acc.add_space(chain[m])
                layers.append(acc)
            out[k] = layers
        return out

    def layers_equal_to_span(self):
        """Exact subspace equality of both computations, all pairs, all n."""
        span = self.span_layers()
        for k, chain in self._layers.items():
            other = chain + []
            alt = span[k]
            depth = max(len(other), len(alt))
            for n in range(depth):
                a = other[n] if n < len(other) else Subspace(self.field, self._flat[k])
                b = alt[n] if n < len(alt) else Subspace(self.field, self._flat[k])
                if a != b:
                    return False
        return True


def rad_filtration(quiver_or_table, x, y):
    """Radical profile of an ordered node pair; accepts words, walks or nodes."""
    table = (
        quiver_or_table
        if isinstance(quiver_or_table, RadicalTable)
        else RadicalTable(quiver_or_table)
    )
    quiver = table.quiver

    def resolve(obj):
        if hasattr(obj, "index"):
            return obj
        return quiver.node_of(obj)

    return table.profile(resolve(x), resolve(y))


def _standard_morphism(quiver, u, projective):
    p, field = quiver.p, quiver.field

    def resolve(canon):
        return quiver.node_of(canon).module

    arrows = standard_arrows(p, u, field, resolve, projective)
    if len(arrows) != 1:
        what = f"rad P({u})" if projective else f"I({u})/soc"
        raise MeshInconsistencyError(
            f"{what} is not indecomposable ({len(arrows)} summands)"
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
