"""String modules as explicit representations over an exact field.

A walk c_1...c_n is realized on basis positions z_0..z_n lying over the
visited vertices; every letter's arrow carries the position at its source
endpoint to the one at its target endpoint, all other actions are zero
(Butler-Ringel).  Relations annihilate automatically because a string
contains no relation factor.  So a string module is kept as its letter
actions, one nonzero per letter (`Representation.nonzeros`); its dense
arrow matrices are written out only on request.

A morphism is kept as its nonzeros only (`MorphismMatrix`).  Hom spaces are
solved in flat coordinates, every block row-major in vertex order, with
equations read from the modules' nonzeros; `morphism_from_flat` reads a
flat vector straight into nonzeros, with no block built.
"""

from __future__ import annotations

import functools

from .errors import CompositionError, UnknownLabelError
from .fields import Mat, QQ, combination, entry_rank, nullspace
from .presentation import require_finite_dimensional, require_string_algebra
from .strings import (
    Letter,
    StringWord,
    Walk,
    string_word,
    walk_to_text,
    walk_vertices,
)


class Representation:
    """Vertex dimensions plus the nonzeros of the arrow actions.

    `nonzeros` lists the entries (arrow, row, column, coefficient) of the
    (target-dim x source-dim) arrow matrices that are not zero, in no fixed
    order; `actions` indexes them, built on first read.  The constructor
    takes dense `Mat`s (arrows given none act as zero) and converts them
    once; `_adopt` wraps nonzeros, unchecked.  `maps` writes the dense
    matrices out on each read, for output, the DTr oracle and tests.
    """

    def __init__(self, p, field, dims, maps):
        dims = {v: dims.get(v, 0) for v in p.quiver.vertices}
        nonzeros = []
        for a in p.quiver.arrows:
            m, shape = maps.get(a.label), (dims[a.target], dims[a.source])
            if m is None:
                continue
            if m.shape != shape:
                raise CompositionError(f"map for arrow {a.label} has shape {m.shape}, expected {shape}")
            nonzeros += [(a.label, k, j, c) for k, row in enumerate(m.rows) for j, c in enumerate(row) if c]
        self.p, self.field, self.dims, self.nonzeros = p, field, dims, nonzeros

    @classmethod
    def _adopt(cls, p, field, dims, nonzeros):
        """Wrap nonzeros (arrow, row, column, coefficient); dims lists every vertex, in order."""
        rep = object.__new__(cls)
        rep.p, rep.field, rep.dims, rep.nonzeros = p, field, dims, nonzeros
        return rep

    @functools.cached_property
    def actions(self):
        """({(t, k): [(a, j, c)]}, {(s, j): [(a, k, c)]}): each nonzero
        c = M(a)[k][j] of an arrow a: s -> t, by its row at t and by its column at s."""
        at_row, at_col, arrow = {}, {}, self.p.quiver.arrow_by_label
        for a, k, j, c in self.nonzeros:
            x = arrow[a]
            at_row.setdefault((x.target, k), []).append((a, j, c))
            at_col.setdefault((x.source, j), []).append((a, k, c))
        return at_row, at_col

    @property
    def maps(self):
        """{arrow label: dense Mat}, written out from the nonzeros."""
        out = {
            a.label: Mat.zeros(self.field, self.dims[a.target], self.dims[a.source])
            for a in self.p.quiver.arrows
        }
        for a, k, j, c in self.nonzeros:
            out[a].rows[k][j] = c
        return out

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.p == other.p
            and self.field == other.field
            and self.dims == other.dims
            and _by_position(self.nonzeros) == _by_position(other.nonzeros)
        )

    def __repr__(self):
        return f"Representation({self.dims})"

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.p.quiver.vertices)

    def as_dict(self):
        return {
            "dims": dict(self.dims),
            "maps": {
                lab: [[self.field.to_str(x) for x in row] for row in m.rows]
                for lab, m in self.maps.items()
            },
        }


class StringModule:
    """A string word together with its realization and walk basis."""

    __slots__ = ("word", "rep", "basis")

    def __init__(self, word, rep, basis):
        self.word = word
        self.rep = rep
        self.basis = basis

    @property
    def total_dim(self):
        return self.rep.total_dim

    def __repr__(self):
        return f"StringModule({walk_to_text(self.word.walk)})"


def realize(p, word, field=QQ):
    """Realize the canonical representative of a string; p must be a string algebra.

    The module's `basis[j]` is the (vertex, index within the vertex block)
    of the walk's position z_j; each letter gives one nonzero, a 1 from the
    position at its arrow's source to the one at its target.
    """
    require_string_algebra(p)
    sw = string_word(p, word.walk if isinstance(word, StringWord) else word)
    return _string_module(p, sw, field)


def _string_module(p, sw, field):
    """`realize` of a StringWord already known to be a canonical string, unchecked."""
    walk = sw.walk
    dims = dict.fromkeys(p.quiver.vertices, 0)
    coord = []
    for v in walk_vertices(p, walk):
        coord.append((v, dims[v]))
        dims[v] += 1
    one, nonzeros = field.one(), []
    for i, letter in enumerate(walk.letters, start=1):
        (_, col), (_, row) = (coord[i], coord[i - 1]) if letter.inverse else (coord[i - 1], coord[i])
        nonzeros.append((letter.arrow, row, col, one))
    return StringModule(sw, Representation._adopt(p, field, dims, nonzeros), coord)


def _maximal_path(p, arrow, forward):
    """The unique maximal relation-free path starting (forward) or ending with the arrow.

    p must be a finite-dimensional string algebra: then the path is unique and
    finite.  The path grows one arrow b at a time and is relation-free before
    each step, so a relation factor of the longer path must contain b, which
    is at its end: the factor lies within the max_relation_length labels at
    that end, and those are all a step tests.  So the cost of a step does
    not grow with the path, and the path takes linear time.
    """
    k = p.max_relation_length
    path, arrows = [arrow.label], p.quiver.arrows_from if forward else p.quiver.arrows_into
    while True:  # path lists the labels from the arrow outwards
        near = path[max(len(path) - k + 1, 0):]  # at most k - 1 labels, next to the new one
        end = p.quiver.arrow(path[-1])
        for b in arrows(end.target if forward else end.source):
            if not p.path_in_ideal((*near, b.label) if forward else (b.label, *near[::-1])):
                path.append(b.label)
                break
        else:
            return tuple(path if forward else path[::-1])


def standard_word(p, v, projective):
    """P(v) = M(C1^- C2) or I(v) = M(D1 D2^-).

    C1, C2 are the maximal paths out of v, D1, D2 the maximal paths into v;
    the inverted branch comes first for P(v) and second for I(v).  Each is
    built once per presentation.
    """
    word = p.standard_words.get((v, projective))
    if word is None:
        word = p.standard_words[v, projective] = _standard_word(p, v, projective)
    return word


def _standard_word(p, v, projective):
    require_string_algebra(p)
    require_finite_dimensional(p, f"build {'P' if projective else 'I'}({v})")
    if v not in p.quiver.vertex_index:
        raise UnknownLabelError(f"unknown vertex {v!r}")
    pool = p.quiver.arrows_from(v) if projective else p.quiver.arrows_into(v)
    branches = [Walk(Letter(lab) for lab in _maximal_path(p, a, projective)) for a in pool]
    if not branches:
        return Walk(basepoint=v)
    if len(branches) == 1:
        return branches[0]
    if projective:
        return Walk(branches[0].inverse().letters + branches[1].letters)
    return Walk(branches[0].letters + branches[1].inverse().letters)


def projective_word(p, v):
    return standard_word(p, v, projective=True)


def injective_word(p, v):
    return standard_word(p, v, projective=False)


def standard_module(p, v, kind, field=QQ):
    if kind == "projective":
        return realize(p, projective_word(p, v), field)
    if kind == "injective":
        return realize(p, injective_word(p, v), field)
    if kind == "simple":
        return realize(p, Walk(basepoint=v), field)
    raise ValueError(f"unknown standard module kind {kind!r}")


class MorphismMatrix:
    """A representation morphism, kept as its nonzeros.

    `nonzeros` lists the entries (vertex, row, column, coefficient) that are
    not zero, in no fixed order; all arithmetic reads and makes them, so no
    engine path builds a block.  `blocks` (each vertex where both source
    and target are nonzero, in vertex order) and `block(v)` write the dense
    blocks out on each read, for output, the DTr oracle and tests.  The
    constructor takes blocks and checks them; `_adopt` wraps nonzeros,
    unchecked.  A map also keeps what `compose` joins on and its
    `check_intertwining` verdict, which a graph map of `knit` gets when made
    together with its `run` (s, t, d, k): it sends basis position s + i of
    the source's string module to t + d * i of the target's, i < k, d = +-1.
    """

    __slots__ = ("source", "target", "nonzeros", "run", "_by_middle", "_verdict")

    def __init__(self, source, target, blocks):
        field, dims, nonzeros = source.field, source.dims, []
        for v, b in blocks.items():
            if v not in dims:
                raise CompositionError(f"block at unknown vertex {v!r}")
            if b.shape != (target.dims[v], dims[v]):
                raise CompositionError(f"block at {v} has shape {b.shape}")
            if b.field is not field and b.field != field:
                raise CompositionError(f"block at {v} is over {b.field!r}, not {field!r}")
            nonzeros += [(v, i, j, a) for i, row in enumerate(b.rows) for j, a in enumerate(row) if a]
        self.source, self.target, self.nonzeros = source, target, nonzeros
        self.run = self._by_middle = self._verdict = None

    @classmethod
    def _adopt(cls, source, target, nonzeros):
        """Wrap a list of nonzeros (vertex, row, column, coefficient), unchecked."""
        f = object.__new__(cls)
        f.source, f.target, f.nonzeros = source, target, nonzeros
        f.run = f._by_middle = f._verdict = None
        return f

    @property
    def blocks(self):
        """{vertex: block} on the common support, in vertex order."""
        return {v: self.block(v) for v in flat_offsets(self.source, self.target)[0]}

    def block(self, v):
        """The block at vertex v; an empty Mat off the common support."""
        b = Mat.zeros(self.source.field, self.target.dims[v], self.source.dims[v])
        for w, i, j, a in self.nonzeros:
            if w == v:
                b.rows[i][j] = a
        return b

    def check_intertwining(self):
        """f_t M(a) == M'(a) f_s for every arrow a: s -> t, entry by entry.

        Both sides are summed into one difference per entry (a, i, j) in one
        pass over the map's nonzeros x = f_v[i][k]: x meets M(a)'s row k for
        each arrow a into v, and M'(a)'s column i for each arrow a out of v.
        """
        if self.source.field is not self.target.field:
            _same_field(self.source, self.target)
        if self._verdict is None:
            self._verdict = self._intertwines()
        return self._verdict

    def _intertwines(self):
        at_row, at_col = self.source.actions[0], self.target.actions[1]
        diff = {}
        for v, i, k, x in self.nonzeros:
            for a, j, c in at_row.get((v, k), ()):  # (f_t M(a))[i][j] += x M(a)[k][j]
                diff[a, i, j] = diff.get((a, i, j), 0) + x * c
            for a, r, c in at_col.get((v, i), ()):  # (M'(a) f_s)[r][k] -= M'(a)[r][i] x
                diff[a, r, k] = diff.get((a, r, k), 0) - c * x
        return not _entries(diff, self.source.field)

    def compose(self, first):
        """self o first (apply `first`, then self): first's nonzero (v, k, j) meets
        self's nonzeros (v, i, k) on the middle coordinate (v, k)."""
        if first.target.dims != self.source.dims:
            raise CompositionError("composition shape mismatch")
        src, tgt = first.source, self.target
        if src.field is not tgt.field:
            _same_field(src, tgt)
        if self._by_middle is None:
            self._by_middle = {}
            for v, i, k, b in self.nonzeros:
                self._by_middle.setdefault((v, k), []).append((i, b))
        by_middle, acc = self._by_middle, {}
        for v, k, j, a in first.nonzeros:
            for i, b in by_middle.get((v, k), ()):
                acc[v, i, j] = acc.get((v, i, j), 0) + b * a
        return MorphismMatrix._adopt(src, tgt, _entries(acc, src.field))

    def add(self, other):
        if self.source.field is not other.source.field:
            _same_field(self.source, other.source)
        if self.source.dims != other.source.dims or self.target.dims != other.target.dims:
            raise CompositionError("sum of maps between different modules")
        acc = _by_position(self.nonzeros)
        for v, i, j, a in other.nonzeros:
            acc[v, i, j] = acc.get((v, i, j), 0) + a
        return MorphismMatrix._adopt(self.source, self.target, _entries(acc, self.source.field))

    def scale(self, c):
        acc = {(v, i, j): c * a for v, i, j, a in self.nonzeros}
        return MorphismMatrix._adopt(self.source, self.target, _entries(acc, self.source.field))

    def neg(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.nonzeros

    def rank(self):
        """The sum of the blocks' ranks, counted from the nonzeros by `entry_rank`."""
        return entry_rank(self.source.field, [((v, i), (v, j), a) for v, i, j, a in self.nonzeros])

    def is_mono(self):
        return self.rank() == self.source.total_dim

    def is_epi(self):
        return self.rank() == self.target.total_dim

    def is_invertible(self):
        return self.source.dims == self.target.dims and self.is_mono()

    def flatten(self):
        """Row-major entries of every block in vertex order; absent blocks have none."""
        dims = self.source.dims
        offsets, size = flat_offsets(self.source, self.target)
        out = [0] * size
        for v, i, j, a in self.nonzeros:
            out[offsets[v] + i * dims[v] + j] = a
        return out

    def as_dict(self):
        f = self.source.field
        return {
            v: [[f.to_str(x) for x in row] for row in self.block(v).rows]
            for v in self.source.p.quiver.vertices
        }

    def __eq__(self, other):
        return (
            isinstance(other, MorphismMatrix)
            and self.source.dims == other.source.dims
            and self.target.dims == other.target.dims
            and _by_position(self.nonzeros) == _by_position(other.nonzeros)
        )

    def __repr__(self):
        return f"MorphismMatrix({self.source.dim_vector()} -> {self.target.dim_vector()})"


def _entries(acc, field):
    """The nonzeros (*key, x) of a dict of sums x by key, reduced mod p."""
    char = field.characteristic
    if char:
        return [(*key, x % char) for key, x in acc.items() if x % char]
    return [(*key, x) for key, x in acc.items() if x]


def _by_position(nonzeros):
    return {(v, i, j): a for v, i, j, a in nonzeros}


def _same_field(M, N):
    """Plain-int scalars cannot tell GF(3) from GF(5), so the maps must say it."""
    if M.field != N.field:
        raise CompositionError(f"cannot combine maps over {M.field!r} and {N.field!r}")


def morphism_from_flat(M, N, vec):
    """The morphism M -> N whose `flatten()` is the list vec: its nonzero entries."""
    offsets, size = flat_offsets(M, N)
    if len(vec) != size:
        raise ValueError(f"flat morphism of length {len(vec)} does not fit Hom(M, N)")
    nonzeros = []
    for v, o in offsets.items():
        c = M.dims[v]
        nonzeros += [(v, *divmod(k, c), a) for k, a in enumerate(vec[o : o + N.dims[v] * c]) if a]
    return MorphismMatrix._adopt(M, N, nonzeros)


def flat_runs(M, N, runs):
    """The flat vectors (`MorphismMatrix.flatten`) of the unit graph maps from
    the string module M to N, one per run (s, t, d, k) (`MorphismMatrix.run`)."""
    offsets, size = flat_offsets(M.rep, N.rep)
    dims, one, out = M.rep.dims, M.rep.field.one(), []
    for s, t, d, k in runs:
        vec = [0] * size
        for i in range(k):
            (v, j), (_, r) = M.basis[s + i], N.basis[t + d * i]
            vec[offsets[v] + r * dims[v] + j] = one
        out.append(vec)
    return out


def hom_flat_dim(M, N):
    return sum(N.dims[v] * M.dims[v] for v in M.p.quiver.vertices)


def flat_offsets(M, N):
    """({vertex: index of its block's first entry}, length) of the flat coordinates of
    Hom(M, N); the vertices are those where both are nonzero, in vertex order."""
    offsets, i, theirs = {}, 0, N.dims
    for v, d in M.dims.items():
        e = theirs[v]
        if d and e:
            offsets[v] = i
            i += d * e
    return offsets, i


class HomBasis:
    __slots__ = ("source", "target", "basis", "dimension")

    def __init__(self, source, target, basis):
        self.source = source
        self.target = target
        self.basis = basis
        self.dimension = len(basis)

    def __repr__(self):
        return f"HomBasis(dim {self.dimension})"


def hom_basis(M, N):
    """Solve the intertwining equations; canonical reduced-echelon kernel basis.

    The unknowns are the flat coordinates of Hom(M, N).  For an arrow
    a: s -> t, the equation at entry (i, j) of f_t M(a) - N(a) f_s reads
    each nonzero c = M(a)[k][j] as the coefficient c of f_t[i][k], and each
    nonzero c = N(a)[i][k] as the coefficient -c of f_s[k][j]; only the
    equations some nonzero reaches are written.
    """
    if M.p != N.p or M.field != N.field:
        raise CompositionError("Hom spaces need a common presentation and field")
    field = M.field
    offsets, total = flat_offsets(M, N)
    if total == 0:
        return HomBasis(M, N, [])
    arrow, eqs = M.p.quiver.arrow_by_label, {}
    for a, k, j, c in M.nonzeros:
        t = arrow[a].target
        o, d = offsets.get(t), M.dims[t]  # o is None only when N is zero at t
        for i in range(N.dims[t]):
            eq = eqs.setdefault((a, i, j), {})
            eq[o + i * d + k] = eq.get(o + i * d + k, 0) + c
    for a, i, k, c in N.nonzeros:
        s = arrow[a].source
        o, d = offsets.get(s), M.dims[s]  # o is None only when M is zero at s
        for j in range(d):
            eq = eqs.setdefault((a, i, j), {})
            eq[o + k * d + j] = eq.get(o + k * d + j, 0) - c
    char, rows = field.characteristic, []
    for eq in eqs.values():
        row = [0] * total
        for x, c in eq.items():
            row[x] = c % char if char else c
        rows.append(row)
    basis = [morphism_from_flat(M, N, vec) for vec in nullspace(Mat(field, rows, total))]
    return HomBasis(M, N, basis)


def compose_chain(fs):
    """Compose [f1, ..., fk] in application order: returns fk o ... o f1."""
    if not fs:
        raise ValueError("compose_chain needs at least one morphism")
    out = fs[0]
    for f in fs[1:]:
        out = f.compose(out)
    return out


def is_isomorphic(M, N):
    """Exact isomorphism test for indecomposable representations of one presentation.

    Complete for indecomposables: if M and N are isomorphic, Hom(M, N) is
    isomorphic to End(M), which is local, so the non-isomorphisms form the
    proper subspace rad End(M).  A basis of Hom(M, N) cannot lie inside a
    proper subspace, so some basis element is invertible.
    """
    if M.dims != N.dims:
        return False
    if M.total_dim == 0:
        return True
    return any(f.is_invertible() for f in hom_basis(M, N).basis)


def end_radical(M):
    """rad End(M) as a basis of morphisms; M indecomposable.

    Precondition: End(M) is local with residue field k, as for every string
    module.  So f = lambda(f) * 1 + n with n nilpotent, and rad End(M) is the
    kernel of the linear form lambda.  If the characteristic does not divide
    N = dim M, lambda(f) = trace(f) / N.  Else p <= N and f^q = lambda(f) * 1
    for the first q = p^a >= N (n^N = 0, and c^p = c in GF(p)), so lambda(f)
    is the first flat entry of f^q, a diagonal one.
    """
    field, basis = M.field, hom_basis(M, M).basis
    if not basis:
        return []
    char, n = field.characteristic, M.total_dim
    if char and n % char == 0:
        form = []
        for power in basis:
            q = 1
            while q < n:
                power, q = compose_chain([power] * char), q * char
            form.append(power.flatten()[0])
    else:
        inv = field.inv(field.of(n))
        form = [field.of(inv * sum(a for _, i, j, a in f.nonzeros if i == j)) for f in basis]
    flat = [f.flatten() for f in basis]
    return [
        morphism_from_flat(M, M, combination(field, coeffs, flat))
        for coeffs in nullspace(Mat(field, [form], len(basis)))
    ]
