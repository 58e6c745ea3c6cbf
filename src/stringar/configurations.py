"""Local quiver patterns, cycles of length three, path classes, theorem audits.

Audits A and B certify a triple from AR-quiver path lengths and the radical
table's depth tags where they can, building table sources only for the
triples a path leaves open, and sample seeded perturbations of its
irreducibles from the second radical layer where they cannot; every depth is
exact, and any counterexample is reported verbatim.
"""

from __future__ import annotations

import functools
import random

from .artheory import _Resolver, _arrows_into, _is_standard_word, _projective_tops, knit, tau_word
from .errors import BandFoundError, MeshInconsistencyError
from .fields import QQ
from .modules import GraphMap
from .presentation import require_string_algebra
from .radical import ZERO_DEPTH, RadicalTable
from .strings import canonical_walk, has_band


class PatternMatch:
    __slots__ = ("pattern_id", "binding", "conditions")

    def __init__(self, pattern_id, binding, conditions):
        self.pattern_id = pattern_id
        self.binding = binding
        self.conditions = conditions

    def as_dict(self):
        return {
            "pattern": self.pattern_id,
            "binding": {k: v for k, v in self.binding.items()},
            "conditions": [
                {"condition": c[0], "passed": c[1]} for c in self.conditions
            ],
        }

    def __repr__(self):
        return f"PatternMatch({self.pattern_id}, {self.binding})"


def _all_pass(conds):
    return all(ok for _, ok in conds)


def _relation_is_loop_power(p, loop_label):
    return any(all(lab == loop_label for lab in rel) for rel in p.relations)


def _simple_paths(p, src, length):
    """Directed simple paths of exactly `length` arrows from src, lexicographic."""
    out = []

    def grow(path, seen):
        if len(path) == length:
            out.append(tuple(path))
            return
        end = p.quiver.arrow(path[-1]).target if path else src
        for a in p.quiver.arrows_from(end):
            if a.target in seen:
                continue
            path.append(a.label)
            seen.add(a.target)
            grow(path, seen)
            seen.discard(a.target)
            path.pop()

    grow([], {src})
    return out


# the words of a condition that swap ends when the arrows are read backward
_WORDS = {
    True: {"link": "exit", "onward": "continuations", "back": "approaches",
           "into": "into", "end": "target", "gets": "receives"},
    False: {"link": "entry", "onward": "approaches", "back": "continuations",
            "into": "out of", "end": "source", "gets": "emits"},
}


class _Reading:
    """Arrows read forward, or backward (forward in the opposite algebra).

    Read backward, Q1, loop-out and Q3 are Q2, loop-in and Q4: each condition
    keeps its truth value, and its words swap ends.
    """

    def __init__(self, p, forward):
        q = p.quiver
        self.p, self.forward = p, forward
        self.ahead = q.arrows_from if forward else q.arrows_into
        self.behind = q.arrows_into if forward else q.arrows_from
        self.far = (lambda a: a.target) if forward else (lambda a: a.source)
        self.ids = ("Q1", "loop-out", "Q3") if forward else ("Q2", "loop-in", "Q4")
        self.words = _WORDS[forward]

    def say(self, text, *pair):
        """The condition's words, prefixed by "first then second" read in this direction."""
        if pair:
            text = " then ".join(pair if self.forward else pair[::-1]) + " " + text
        return text.format(**self.words)

    def ideal(self, *runs):
        """Whether the runs (labels or label tuples), joined in reading order, lie in the ideal."""
        runs = runs if self.forward else runs[::-1]
        return self.p.path_in_ideal(sum(((r,) if isinstance(r, str) else r for r in runs), ()))


def detect_local_patterns(p):
    """All bindings of the six local patterns, side conditions checked literally."""
    require_string_algebra(p)
    out = []
    q = p.quiver
    readings = (_Reading(p, True), _Reading(p, False))
    loops = [a for a in q.arrows if a.source == a.target]
    plain = [a for a in q.arrows if a.source != a.target]

    # a loop next to a bridge arrow: the two flavours split on loop-then-bridge
    for al in loops:
        a_v = al.source
        for r in readings:
            for be in r.ahead(a_v):
                if be.source == be.target:
                    continue
                x = r.far(be)
                extra = [c for c in q.arrows if a_v in (c.source, c.target) and c not in (al, be)]
                dies = (r.say("bridge {onward} die"),
                        all(r.ideal(be.label, d.label) for d in r.ahead(x)))
                only = (r.say("bridge is the only arrow {into} its {end}"), r.behind(x) == [be])
                conds = [
                    ("some power of the loop lies in the ideal", _relation_is_loop_power(p, al.label)),
                    (r.say("lies in the ideal", "loop", "bridge"), r.ideal(al.label, be.label)),
                    dies,
                    ("no other arrows at the loop vertex", not extra),
                    only,
                ]
                if _all_pass(conds):
                    out.append(PatternMatch(r.ids[0], {"a": a_v, "x": x}, conds))
                conds = [
                    ("loop squared lies in the ideal", p.path_in_ideal((al.label, al.label))),
                    (r.say("survives", "loop", "bridge"), not r.ideal(al.label, be.label)),
                    (r.say("no other arrows {into} the loop vertex"), r.behind(a_v) == [al]),
                    dies,
                    only,
                ]
                if _all_pass(conds):
                    out.append(PatternMatch(r.ids[1], {"1": a_v, "2": x}, conds))

    # parallel-route patterns: a shortcut arrow next to a longer route
    for alpha in plain:
        one, z = alpha.source, alpha.target
        for m in range(1, len(q.arrows) + 1):
            for route in _simple_paths(p, one, m):
                # the vertices the route visits after `one`; it must visit z only at its end
                stops = [q.arrow(lab).target for lab in route]
                if alpha.label in route or stops[-1] != z or z in stops[:-1]:
                    continue
                touched = {one, *stops}
                for r in readings:
                    start, end = (one, z) if r.forward else (z, one)
                    for be in r.ahead(end):
                        a_v = r.far(be)
                        if a_v in touched:
                            continue
                        conds = [
                            (r.say("lies in the ideal", "shortcut", "{link}"),
                             r.ideal(alpha.label, be.label)),
                            (r.say("survives", "route", "{link}"), not r.ideal(route, be.label)),
                            (r.say("{link} {onward} die"),
                             all(r.ideal(route, be.label, d.label) for d in r.ahead(a_v))),
                            (r.say("route {back} die"),
                             all(r.ideal(l.label, route) for l in r.behind(start))),
                            (r.say("{link} {end} {gets} nothing else"), r.behind(a_v) == [be]),
                        ]
                        if _all_pass(conds):
                            binding = {"1": start, "z": end, "a": a_v, "route": list(route), "m": m}
                            out.append(PatternMatch(r.ids[2], binding, conds))
    return out


def find_three_cycles(quiver):
    """Directed cycles of three irreducible arrows, canonical rotation, sorted."""
    seen = set()
    cycles = []
    arrows = quiver.arrows
    for a1 in arrows:
        for a2 in quiver.arrows_from(a1.target):
            for a3 in quiver.arrows_from(a2.target):
                if a3.target != a1.source:
                    continue
                triple = (a1, a2, a3)
                nodes = (a1.source, a2.source, a3.source)
                k = min(range(3), key=lambda i: nodes[i])
                rotated = tuple(nodes[(k + i) % 3] for i in range(3))
                arr = tuple(triple[(k + i) % 3] for i in range(3))
                key = tuple(id(a) for a in arr)
                if key not in seen:
                    seen.add(key)
                    cycles.append(arr)
    cycles.sort(key=lambda arr: (arr[0].source, arr[1].source, arr[2].source))
    return cycles


def find_tau_arrows(p, quiver=None, candidates=None, field=QQ):
    """Pairs (M, tau M) joined by an irreducible morphism.

    With a knitted quiver the meshes are scanned; with explicit candidate
    modules (the banded case) the arrows into each tau M are built locally,
    as `knit` builds them.
    """
    out = []
    if quiver is not None:
        for n in quiver.nodes:
            if n.projective:
                continue
            t = quiver.nodes[quiver.tau_pairs[n.index]]
            if quiver.arrows_between(n.index, t.index):
                out.append((n.module, t.module))
        return out
    if candidates is None:
        raise ValueError("need a knitted quiver or candidate modules")
    tops, resolve = _projective_tops(p), _Resolver(p, field)
    for M in candidates:
        if _is_standard_word(p, M.word.walk, projective=True):
            continue
        t_walk = canonical_walk(p, tau_word(p, M.word.walk))
        _, arrows = _arrows_into(p, t_walk, resolve, tops)
        if any(src.word.walk == M.word.walk for src, _ in arrows):
            out.append((M, resolve[t_walk.key][0]))
    return out


class PathClass:
    __slots__ = (
        "is_sectional",
        "is_presectional",
        "is_left_almost_presectional",
        "is_right_almost_presectional",
    )

    def __init__(self, s, ps, lap, rap):
        self.is_sectional = s
        self.is_presectional = ps
        self.is_left_almost_presectional = lap
        self.is_right_almost_presectional = rap

    def as_dict(self):
        return {
            "sectional": self.is_sectional,
            "presectional": self.is_presectional,
            "leftAlmostPresectional": self.is_left_almost_presectional,
            "rightAlmostPresectional": self.is_right_almost_presectional,
        }


def path_class(quiver, node_indices):
    """Classify a directed path of Gamma nodes."""
    idx = list(node_indices)
    for a, b in zip(idx, idx[1:]):
        if not quiver.arrows_between(a, b):
            raise MeshInconsistencyError(
                f"{quiver.nodes[a].text} -> {quiver.nodes[b].text} is not an arrow"
            )

    sectional = all(
        quiver.tau_of(idx[j]) != idx[j - 2] or quiver.tau_of(idx[j]) is None
        for j in range(2, len(idx))
    )

    def presectional_range(lo, hi):
        for i in range(lo + 1, hi):
            if quiver.tau_of(idx[i + 1]) == idx[i - 1]:
                if len(quiver.arrows_between(idx[i - 1], idx[i])) < 2:
                    return False
        return True

    n = len(idx) - 1
    presectional = presectional_range(0, n)
    lap = (
        n >= 2
        and presectional_range(0, n - 1)
        and quiver.tau_of(idx[n]) == idx[n - 2]
    )
    rap = (
        n >= 2
        and presectional_range(1, n)
        and quiver.tau_of(idx[2]) == idx[0]
    )
    return PathClass(sectional, presectional, lap, rap)


class AuditReport:
    def __init__(self, algebra, samples, seed, audits, stats):
        self.algebra = algebra
        self.samples = samples
        self.seed = seed
        self.audits = audits
        self.stats = stats
        self.passed = all(a["passed"] for a in audits.values())

    def as_dict(self):
        return {
            "algebra": self.algebra,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "stats": self.stats,
            "audits": self.audits,
        }


def audit_theorems(p, samples=32, seed=0, field=QQ):
    """Run the four structure audits over the knitted quiver.

    (A) no composite of three irreducibles of depth exactly 6 whose two
        pair composites both stay at depth <= 2;
    (B) every triple composite of depth >= 4 has depth >= 6;
    (C) every 3-cycle carries a block-mono and a block-epi;
    (D) 3-cycles exist iff some irreducible M -> tau M exists.

    A and B read sampled irreducibles a + r, r a graph-map sum in rad^2.  A triple
    x -> y -> z -> w is first read from `table.tags(x, w, (4, 5, 6))`: every
    composite f: x -> w has depth(f) in the pair's tags or ZERO_DEPTH, A
    fires only at depth 6 and B only at 4 or 5.  So a triple whose pair
    (x, w) has none of those tags passes both for every choice of
    irreducibles; it is skipped, with no generator, draw or compose.  Every
    tag of (x, w) is 0 with x = w or the length of an AR-quiver path from x
    to w, so `tags` answers a pair that ends no path of 4, 5 or 6 arrows with
    no source built; W(30) builds 10 of its 471 sources.  A source that
    cannot be built fails in the query that reads it.  A kept triple seeds
    its generator with its index among all triples; sample 0 is the bare
    triple.  Each distinct draw (arrow index and coefficients) is built,
    composed and reduced once per audit, so the report is the same as
    recomposing every sample; a triple whose arrows have no rad^2 run draws
    the bare triple every time, and a violation of it is reported for every
    sample index.
    samples < 1 is a ValueError: an audit that draws nothing passes vacuously.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    require_string_algebra(p)
    if has_band(p):
        raise BandFoundError("audits need a band-free presentation")
    quiver = knit(p, field)
    table = RadicalTable(quiver)
    arrows = quiver.arrows
    index = {a: i for i, a in enumerate(arrows)}
    triples = [
        (index[a1], index[a2], index[a3])
        for a1 in arrows
        for a2 in quiver.arrows_from(a1.target)
        for a3 in quiver.arrows_from(a2.target)
    ]
    ends = [(quiver.nodes[a.source], quiver.nodes[a.target]) for a in arrows]
    kept = [
        (t_ix, triple) for t_ix, triple in enumerate(triples)
        if table.tags(arrows[triple[0]].source, arrows[triple[2]].target, (4, 5, 6))
    ]
    rad2 = {i: table.layer(*ends[i], 2) for i in {i for _, triple in kept for i in triple}}
    a_violations, b_violations = [], []
    zero = field.zero()
    draw = [field.of(c) for c in range(-3, 4)]  # draw[rng.randrange(7)] is randint(-3, 3)

    @functools.cache
    def perturbed(key):
        """Arrow i plus each coefficient times its rad^2 basis map, for key = (i, coefficients)."""
        i, cs = key
        f = arrows[i].morphism
        if any(cs):
            f = f.add(GraphMap(*f.modules, {r: c for g, c in zip(rad2[i], cs) if c for r in g.terms}))
        return f

    @functools.cache
    def pair(k1, k2):
        """The composite of two perturbed arrows and its depth."""
        h = perturbed(k2).compose(perturbed(k1))
        return h, table.depth(h, ends[k1[0]][0], ends[k2[0]][1])

    @functools.cache
    def evaluate(key):
        """The depths d21, d32, dtot of a triple key, and the violated audit's list or None."""
        k1, k2, k3 = key
        h21, d21 = pair(k1, k2)
        dtot = table.depth(perturbed(k3).compose(h21), ends[k1[0]][0], ends[k3[0]][1])
        d32 = pair(k2, k3)[1]
        shallow = dtot == 6 and d21 <= 2 and d32 <= 2
        return d21, d32, dtot, a_violations if shallow else b_violations if 4 <= dtot < 6 else None

    for t_ix, triple in kept:
        rng = random.Random(f"{seed}:{t_ix}")
        for s_ix in range(samples):
            # one draw from -3..3 per rad^2 run; sample 0 is the bare canonical triple
            key = tuple((i, tuple(draw[rng.randrange(7)] if s_ix else zero for _ in rad2[i]))
                        for i in triple)
            *ds, hit = evaluate(key)
            if hit is None:
                continue
            (x, _), (y, _), (z, w) = (ends[i] for i in triple)
            pair12, pair23, total = (None if d == ZERO_DEPTH else d for d in ds)
            hit.append({
                "triple": [x.text, y.text, z.text, w.text],
                "sample": s_ix,
                "depths": {"pair12": pair12, "pair23": pair23, "total": total},
            })

    cycles = find_three_cycles(quiver)
    c_violations = []
    for arr in cycles:
        monos = [a.morphism.is_mono() for a in arr]
        epis = [a.morphism.is_epi() for a in arr]
        if not (any(monos) and any(epis)):
            c_violations.append(
                {"cycle": [quiver.nodes[a.source].text for a in arr]}
            )
    pairs = find_tau_arrows(p, quiver=quiver)
    d_ok = bool(cycles) == bool(pairs)

    audits = {
        "A-no-shallow-triple-at-6": {
            "passed": not a_violations,
            "counterexamples": a_violations,
        },
        "B-depth-4-implies-6": {
            "passed": not b_violations,
            "counterexamples": b_violations,
        },
        "C-cycles-mix-mono-epi": {
            "passed": not c_violations,
            "counterexamples": c_violations,
        },
        "D-cycles-iff-translate-arrows": {
            "passed": d_ok,
            "counterexamples": []
            if d_ok
            else [{"cycles": len(cycles), "translateArrows": len(pairs)}],
        },
    }
    stats = {
        "nodes": len(quiver.nodes),
        "arrows": len(arrows),
        "triples": len(triples),
        "threeCycles": len(cycles),
        "translateArrowPairs": len(pairs),
    }
    return AuditReport(p.name or "", samples, seed, audits, stats)
