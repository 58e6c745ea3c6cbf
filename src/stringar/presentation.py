"""Quivers with monomial relations: parsing, validation, finiteness.

The presentation grammar is line oriented:

    algebra <name>
    vertices <id> <id> ...
    arrow <label> <src> -> <dst>
    relation <label> <label> ...

'#' starts a comment.  Declaration order of vertices and arrows is kept
and is the canonical order for everything downstream.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import (
    CompositionError,
    InfiniteDimensionalError,
    NotStringAlgebraError,
    PresentationSyntaxError,
    UnknownLabelError,
)


class Arrow:
    __slots__ = ("label", "source", "target")

    def __init__(self, label, source, target):
        self.label = label
        self.source = source
        self.target = target

    def __eq__(self, other):
        return (
            isinstance(other, Arrow)
            and (self.label, self.source, self.target)
            == (other.label, other.source, other.target)
        )

    def __hash__(self):
        return hash((self.label, self.source, self.target))

    def __repr__(self):
        return f"Arrow({self.label}: {self.source} -> {self.target})"


class Quiver:
    """Finite quiver; vertex/arrow order is declaration order."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        # the cached checks hash and compare presentations often: plain tuples do both in C
        self._key = (self.vertices, tuple((a.label, a.source, a.target) for a in self.arrows))
        self._hash = hash(self._key)
        if len(set(self.vertices)) != len(self.vertices):
            raise PresentationSyntaxError("duplicate vertex identifier")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise PresentationSyntaxError("duplicate arrow label")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_by_label = {a.label: a for a in self.arrows}
        self.arrow_index = {a.label: i for i, a in enumerate(self.arrows)}
        for a in self.arrows:
            if a.source not in self.vertex_index:
                raise UnknownLabelError(f"arrow {a.label}: unknown vertex {a.source}")
            if a.target not in self.vertex_index:
                raise UnknownLabelError(f"arrow {a.label}: unknown vertex {a.target}")
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[a.source].append(a)
            self._in[a.target].append(a)

    def arrows_from(self, v):
        return self._out[v]

    def arrows_into(self, v):
        return self._in[v]

    def arrow(self, label):
        a = self.arrow_by_label.get(label)
        if a is None:
            raise UnknownLabelError(f"unknown arrow label {label!r}")
        return a

    def __eq__(self, other):
        return isinstance(other, Quiver) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


# A monomial relation is a composable tuple of arrow labels of length >= 2,
# written in diagram order (first-traversed arrow leftmost).
Monomial = tuple


class AlgebraPresentation:
    """A quiver with a normalized set of monomial relations."""

    def __init__(self, quiver, relations, name=""):
        self.name = name
        self.quiver = quiver
        rels = []
        for rel in relations:
            rel = tuple(rel)
            if len(rel) < 2:
                raise PresentationSyntaxError(
                    f"relation {' '.join(rel)}: monomial relations must have length >= 2"
                )
            for lab in rel:
                quiver.arrow(lab)
            for x, y in zip(rel, rel[1:]):
                if quiver.arrow(x).target != quiver.arrow(y).source:
                    raise CompositionError(
                        f"relation {' '.join(rel)}: {x} ends at "
                        f"{quiver.arrow(x).target} but {y} starts at {quiver.arrow(y).source}"
                    )
            if rel not in rels:
                rels.append(rel)
        # normalized generating set: no relation may contain another as a factor
        self.relations = tuple(
            r
            for r in rels
            if not any(s != r and _first_factor((s,), r) for s in rels)
        )
        self._max_rel_len = max((len(r) for r in self.relations), default=0)
        self._key = (name, quiver._key, self.relations)
        self._hash = hash(self._key)
        self.end_candidates = {}  # strings.attach_candidates, memoised by string end
        self.hooks = {}  # artheory._hook
        self.standard_words = {}  # modules.standard_word

    def path_in_ideal(self, labels):
        """True iff the path contains some relation as a contiguous factor."""
        return _first_factor(self.relations, tuple(labels)) is not None

    @property
    def max_relation_length(self):
        return self._max_rel_len

    def __eq__(self, other):
        return isinstance(other, AlgebraPresentation) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AlgebraPresentation({self.name!r})"


def _first_factor(relations, labels):
    """(offset, relation) for the first relation, in the given order, that is a
    contiguous factor of the label tuple, at its leftmost offset; None if none is."""
    for rel in relations:
        k = len(rel)
        for i in range(len(labels) - k + 1):
            if labels[i : i + k] == rel:
                return i, rel
    return None


def parse_presentation(text):
    """Parse presentation source text; see the module docstring for the grammar."""
    name = ""
    vertices = []
    arrow_specs = []
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]
        if kw == "algebra":
            if len(tokens) != 2:
                raise PresentationSyntaxError(
                    "algebra line needs exactly one name", line=lineno, column=len(kw) + 1
                )
            name = tokens[1]
        elif kw == "vertices":
            if len(tokens) < 2:
                raise PresentationSyntaxError(
                    "vertices line needs at least one identifier", line=lineno, column=len(kw) + 1
                )
            vertices.extend(tokens[1:])
        elif kw == "arrow":
            if len(tokens) != 5 or tokens[3] != "->":
                raise PresentationSyntaxError(
                    "expected: arrow <label> <src> -> <dst>", line=lineno, column=1
                )
            arrow_specs.append((tokens[1], tokens[2], tokens[4], lineno))
        elif kw == "relation":
            if len(tokens) < 3:
                raise PresentationSyntaxError(
                    "relations must list at least two arrow labels", line=lineno, column=len(kw) + 1
                )
            relations.append((tuple(tokens[1:]), lineno))
        else:
            raise PresentationSyntaxError(
                f"unknown directive {kw!r}", line=lineno, column=1
            )
    seen = set()
    for label, src, dst, lineno in arrow_specs:
        if label in seen:
            raise PresentationSyntaxError(f"duplicate arrow label {label!r}", line=lineno)
        seen.add(label)
        for v in (src, dst):
            if v not in vertices:
                raise UnknownLabelError(
                    f"arrow {label}: unknown vertex {v!r}", line=lineno
                )
    quiver = Quiver(vertices, [Arrow(l, s, t) for l, s, t, _ in arrow_specs])
    rels = []
    for rel, lineno in relations:
        try:
            AlgebraPresentation(quiver, [rel])
        except (CompositionError, UnknownLabelError) as exc:
            exc.line = lineno
            raise
        rels.append(rel)
    return AlgebraPresentation(quiver, rels, name=name)


def serialize_presentation(p):
    """Emit presentation source; byte-stable and reparses to an equal object."""
    lines = []
    if p.name:
        lines.append(f"algebra {p.name}")
    if p.quiver.vertices:
        lines.append("vertices " + " ".join(p.quiver.vertices))
    for a in p.quiver.arrows:
        lines.append(f"arrow {a.label} {a.source} -> {a.target}")
    for rel in p.relations:
        lines.append("relation " + " ".join(rel))
    return "\n".join(lines) + "\n"


class ConditionReport:
    __slots__ = ("key", "passed", "witness")

    def __init__(self, key, passed, witness=None):
        self.key = key
        self.passed = passed
        self.witness = witness

    def as_dict(self):
        return {"condition": self.key, "passed": self.passed, "witness": self.witness}

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL ({self.witness})"
        return f"({self.key}) {state}"


class ValidationReport:
    def __init__(self, conditions):
        self.conditions = conditions
        self.is_string_algebra = all(c.passed for c in conditions)

    def as_dict(self):
        return {
            "isStringAlgebra": self.is_string_algebra,
            "conditions": [c.as_dict() for c in self.conditions],
        }

    def __repr__(self):
        return f"ValidationReport(is_string_algebra={self.is_string_algebra})"


def validate_string_algebra(p):
    """Check the five string-algebra conditions; failures are data, not errors."""
    q = p.quiver
    conditions = []
    # each primed condition is the unprimed one over the opposite quiver
    for key, arrows_at, verb in (
        ("1", q.arrows_from, "emits"), ("1'", q.arrows_into, "receives")
    ):
        bad = next((v for v in q.vertices if len(arrows_at(v)) > 2), None)
        witness = None if bad is None else f"vertex {bad} {verb} >2 arrows"
        conditions.append(ConditionReport(key, bad is None, witness))
    # (2) and (2'): at most one arrow b before (after) each arrow a keeps the path b a (a b)
    for key, neighbours, path, noun in (
        ("2", lambda a: q.arrows_into(a.source), lambda a, b: (b.label, a.label), "predecessors"),
        ("2'", lambda a: q.arrows_from(a.target), lambda a, b: (a.label, b.label), "successors"),
    ):
        witness = None
        for a in q.arrows:
            live = [b.label for b in neighbours(a) if not p.path_in_ideal(path(a, b))]
            if len(live) > 1:
                witness = f"arrow {a.label} admits {noun} {', '.join(live)}"
                break
        conditions.append(ConditionReport(key, witness is None, witness))

    # (3) the ideal is monomial by construction: non-monomial input never parses
    conditions.append(ConditionReport("3", True, None))
    return ValidationReport(conditions)


@functools.lru_cache(maxsize=64)
def _first_failed_condition(p):
    return next((c for c in validate_string_algebra(p).conditions if not c.passed), None)


def require_string_algebra(p):
    """Raise NotStringAlgebraError, carrying the first failed condition, unless p passes all.

    The entry check of enumerate_strings, realize, knit (and so witness),
    the translates (tau, tau^-1, ar_sequence on either side), standard_word
    (and so the standard modules and find_tau_arrows), detect_local_patterns
    and audit_theorems; cached per presentation.
    """
    bad = _first_failed_condition(p)
    if bad is not None:
        raise NotStringAlgebraError(
            f"not a string algebra: condition ({bad.key}) fails: {bad.witness}", bad
        )


def _grow_path(p, path):
    """path b for each arrow b out of the end of path that keeps it relation-free, in order."""
    q = p.quiver
    out = []
    for b in q.arrows_from(q.arrow(path[-1]).target):
        cand = path + (b.label,)
        if not p.path_in_ideal(cand):
            out.append(cand)
    return out


def _layers(words, grow):
    """words, then each next layer grown from the last by grow, until a layer is empty."""
    while words:
        yield words
        words = [longer for word in words for longer in grow(word)]


def _pumps(p, words, grow):
    """True iff growing the one-letter words by grow attains every length.

    The one finiteness argument, for direct paths and for strings: every
    factor either kind of word forbids (two letters that do not compose, a
    backtrack, a relation or its inverse) has at most w + 1 letters, where
    w = max(longest relation, 2) - 1.  So a word of length at least w is
    allowed iff each factor of length w + 1 is, that is iff it is a walk in
    the finite graph on the allowed words of length w (the windows) with an
    edge n -> longer[1:] for each longer in grow(n).  Arbitrarily long words
    are arbitrarily long walks, which exist iff the graph has a cycle.
    """
    w = max(p.max_relation_length, 2) - 1
    windows = next(itertools.islice(_layers(words, grow), w - 1, None), [])
    index = {n: i for i, n in enumerate(windows)}
    succ = [[index[longer[1:]] for longer in grow(n)] for n in windows]
    color = [0] * len(succ)  # 0 unseen, 1 on stack, 2 done
    for start in range(len(succ)):
        if color[start]:
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


@functools.lru_cache(maxsize=64)
def has_unbounded_paths(p):
    """True iff relation-free direct paths of unbounded length exist; cached.

    Decided by _pumps over windows of max(longest relation, 2) - 1 arrows.
    """
    return _pumps(p, [(a.label,) for a in p.quiver.arrows], functools.partial(_grow_path, p))


def require_finite_dimensional(p, action):
    """Raise InfiniteDimensionalError unless p is finite-dimensional.

    The entry check of the translates (tau, tau^-1, ar_sequence, tau_orbit),
    standard_word and the DTr oracle.
    """
    if has_unbounded_paths(p):
        raise InfiniteDimensionalError(f"cannot {action}: infinitely many nonzero paths")


def nonzero_paths_from(p, v):
    """Relation-free paths starting at v, each a label tuple, by (length, order).

    The caller must know the count is finite (see has_unbounded_paths).
    """
    first = [(a.label,) for a in p.quiver.arrows_from(v)]
    layers = _layers(first, functools.partial(_grow_path, p))
    return [()] + [path for layer in layers for path in layer]


def nonzero_path_count(p):
    """Number of relation-free paths (trivial ones included); math.inf if unbounded."""
    if has_unbounded_paths(p):
        return math.inf
    return sum(len(nonzero_paths_from(p, v)) for v in p.quiver.vertices)
