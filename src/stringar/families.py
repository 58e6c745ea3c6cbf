"""The three named algebra families and their deep-composite witnesses.

Witness chains are assembled from canonical irreducible matrices of the
knitted quiver by one search for all three families: a path into an anchor
module (a three-cycle's node for W, a module L for U and V), a cycle at the
anchor, and a path out of it; the last map into the anchor gets the cycle
added on top.  Every candidate is verified by exact radical depth before it
is returned, so a successful witness is a checked one.
"""

from __future__ import annotations

import functools

from .artheory import knit
from .errors import WitnessConstructionError
from .fields import QQ
from .modules import compose_chain, standard_module
from .radical import ZERO_DEPTH, RadicalTable
from .strings import Letter, Walk


class FamilySpec:
    __slots__ = ("family", "m", "n", "presentation")

    def __init__(self, family, m, n, presentation):
        self.family = family
        self.m = m
        self.n = n
        self.presentation = presentation

    @property
    def parameters(self):
        return (self.n,) if self.family == "W" else (self.m, self.n)

    def __repr__(self):
        return f"FamilySpec({self.family}{self.parameters})"


def make_family(family, m=None, n=None):
    """Build W(n), U(m, n-1) or V(m, n-2) from the theorem parameters."""
    from .presentation import parse_presentation
    from .strings import has_band

    family = family.upper()
    if family == "W":
        if n is None or n < 2:
            raise ValueError("the W family needs n >= 2")
        verts = [str(i) for i in range(1, n + 2)]
        lines = [f"algebra W{n}", "vertices " + " ".join(verts), "arrow a 1 -> 1"]
        for i in range(1, n + 1):
            lines.append(f"arrow b{i} {i} -> {i + 1}")
        lines.append("relation a a")
        lines.append("relation b1 b2")
        p = parse_presentation("\n".join(lines))
        return FamilySpec("W", None, n, p)
    if family == "U":
        if m is None or n is None or m < 2 or n < 2:
            raise ValueError("the U family needs m, n >= 2")
        beta_count = n - 1
    elif family == "V":
        if m is None or n is None or m < 2 or n < 3:
            raise ValueError("the V family needs m >= 2 and n >= 3")
        beta_count = n - 2
    else:
        raise ValueError(f"unknown family {family!r}")
    verts = (
        ["1"]
        + [f"a{i}" for i in range(2, m + 1)]
        + [f"b{i}" for i in range(2, beta_count + 1)]
        + ["x"]
        + (["w"] if family == "V" else [])
    )
    lines = [f"algebra {family}{m}_{n}", "vertices " + " ".join(verts)]
    gsrc = ["1"] + [f"a{i}" for i in range(2, m + 1)]
    for i in range(1, m + 1):
        lines.append(f"arrow g{i} {gsrc[i - 1]} -> {gsrc[i] if i < m else 'x'}")
    bsrc = ["1"] + [f"b{i}" for i in range(2, beta_count + 1)]
    for i in range(1, beta_count + 1):
        lines.append(
            f"arrow b{i} {bsrc[i - 1]} -> {bsrc[i] if i < beta_count else 'x'}"
        )
    if family == "V":
        lines.append(f"arrow al a{m} -> w")
    lines.append(f"relation g{m - 1} g{m}")
    p = parse_presentation("\n".join(lines))
    if has_band(p):
        raise WitnessConstructionError("family presentation unexpectedly has bands")
    return FamilySpec(family, m, n, p)


class FamilyWitness:
    """A verified chain h_1, ..., h_n with its paths and distinguished modules."""

    __slots__ = (
        "spec",
        "chain",
        "node_path",
        "phi_nodes",
        "rho_nodes",
        "distinguished",
        "expected_depth",
        "depths",
        "quiver",
        "table",
    )

    def __init__(self, spec, chain, node_path, phi_nodes, rho_nodes, distinguished,
                 expected_depth, depths, quiver, table):
        self.spec = spec
        self.chain = chain
        self.node_path = node_path
        self.phi_nodes = phi_nodes
        self.rho_nodes = rho_nodes
        self.distinguished = distinguished
        self.expected_depth = expected_depth
        self.depths = depths
        self.quiver = quiver
        self.table = table

    def as_dict(self):
        return {
            "family": self.spec.family,
            "parameters": list(self.spec.parameters),
            "expectedDepth": self.expected_depth,
            "verified": True,
            "depths": self.depths,
            "chainNodes": [n.text for n in self.node_path],
            "phi": [n.text for n in self.phi_nodes],
            "rho": [n.text for n in self.rho_nodes],
            "distinguished": {k: v.text for k, v in self.distinguished.items()},
        }


def _ell_walk(m, betas):
    """The distinguished L of U(m, n-1) (betas = n - 1) or V(m, n-2) (betas = n - 2),
    straight from its definition: g_m b_betas^- ... b_1^- g_1 ... g_{m-1}."""
    return Walk(
        (Letter(f"g{m}"),)
        + tuple(Letter(f"b{i}", True) for i in range(betas, 0, -1))
        + tuple(Letter(f"g{i}") for i in range(1, m))
    )


def _cycles(quiver, length, node):
    """Arrow paths of the given length from `node` back to it, depth-first along arrows_from;
    each step goes only to nodes in back[k], those with a path of the k arrows left to `node`."""
    back = quiver.reach(node, length - 1, into=True)
    out = []

    def grow(path):
        if len(path) == length:
            out.append(tuple(path))
            return
        live = back[length - len(path) - 1]
        for a in quiver.arrows_from(path[-1].target if path else node):
            if a.target in live:
                path.append(a)
                grow(path)
                path.pop()

    grow([])
    return out


def _into_paths(quiver, node):
    """k -> [(path, composite)] for the paths of k arrows into `node` with a nonzero
    composite, memoised: those of k - 1 extended at their start along arrows_into,
    in depth-first order."""

    @functools.cache
    def paths(k):
        out = []
        for path, f in paths(k - 1) if k > 1 else [((), None)]:
            for a in quiver.arrows_into(path[0].source if path else node):
                g = f.compose(a.morphism) if path else a.morphism
                if not g.is_zero():
                    out.append(((a,) + path, g))
        return out

    return paths


def _forward_paths(quiver, node, keep, f):
    """(path, a_{k-1} ... a_1 f) for each path a_1 ... a_k from `node`, k = len(keep) - 1,
    whose i-th arrow ends in keep[i] and whose composite up to a_{k-1} is nonzero;
    depth-first along arrows_from, a branch cut before composing when it leaves `keep`.
    """
    path = []

    def grow(g):
        for a in quiver.arrows_from(path[-1].target if path else node):
            if a.target not in keep[len(path) + 1]:
                continue
            if len(path) == len(keep) - 2:
                yield (*path, a), g
                continue
            h = a.morphism.compose(g)
            if not h.is_zero():
                path.append(a)
                yield from grow(h)
                path.pop()

    return grow(f)


def _path_nodes(quiver, path):
    """The nodes visited by a nonempty arrow path."""
    return [quiver.nodes[path[0].source]] + [quiver.nodes[a.target] for a in path]


def _perturber():
    """(rho, f) -> f + rho o f for a map f into the cycle's node.

    Each cycle is composed once per search.  f + rho o f = (1 + rho) o f and
    1 + rho is invertible (rho is radical), so the result is zero exactly
    when f is: a path's plain composite decides a zero prefix for every rho.
    """
    cycle = functools.cache(lambda rho: compose_chain([a.morphism for a in rho]))

    def perturb(rho, f):
        return f.add(cycle(rho).compose(f))

    return perturb


def _chain_depths(table, perturb, rho, path, perturb_at, prefix, expected, suffix_ok, prefix_ok):
    """The path's chain with the cycle added after position perturb_at, checked.

    `prefix` is the composite h_{n-1}...h_1 of that chain, built by the
    caller.  Returns (chain, nodes, depths) with the depths of the chain, its
    suffix h_n...h_2 and its prefix; None unless the whole chain has depth
    `expected` and the suffix and the prefix pass their checks.  The suffix
    is checked first.
    """
    chain = [a.morphism for a in path]
    chain[perturb_at] = perturb(rho, chain[perturb_at])
    nodes = _path_nodes(table.quiver, path)
    d_total = table.depth(chain[-1].compose(prefix), nodes[0], nodes[-1])
    if d_total != expected:
        return None
    d_suffix = table.depth(compose_chain(chain[1:]), nodes[1], nodes[-1])
    if not suffix_ok(d_suffix):
        return None
    d_prefix = table.depth(prefix, nodes[0], nodes[-2])
    if not prefix_ok(d_prefix):
        return None
    depths = {
        "total": d_total,
        "prefix": _depth_or_none(d_prefix),
        "suffix": _depth_or_none(d_suffix),
    }
    return chain, nodes, depths


def _depth_or_none(d):
    return None if d == ZERO_DEPTH else d


def require_witness_parameters(spec):
    """Raise ValueError unless the family has witness chains: W(n) needs n >= 3."""
    if spec.family == "W" and spec.n < 3:
        raise ValueError("W-family witness chains need n >= 3")


def witness(spec, field=QQ):
    """A verified witness chain of the family; see _search.

    The search tries the candidates of a fixed order and returns the first
    that passes `_chain_depths`.  Before composing anything it skips only
    candidates that provably fail: no end y ahead with rad^expected(x, y) != 0,
    and a partial composite that is zero.
    """
    require_witness_parameters(spec)
    quiver = knit(spec.presentation, field)
    return _search(spec, quiver, RadicalTable(quiver))


def _search(spec, quiver, table):
    """The first chain, in a fixed order, that passes `_chain_depths`.

    A chain is an into-path of j - 1 arrows to an anchor node b, then a path of
    n - j + 1 arrows from b; a cycle rho at b is added after the into-path.
    The order is: anchor, position j, rho, into-path, forward path.  W(n): the
    anchors are the rotations of the three-cycles, j = 2..n.  U and V: the
    anchors are the nodes L, the distinguished L first, with their cycles of
    2m (V: 2m + 1) arrows, those through the simple S first; j = n.
    """
    n = spec.n
    if spec.family == "W":
        from .configurations import find_three_cycles

        expected, positions = n + 3, range(2, n + 1)
        anchors = ((rho[0].source, [rho]) for cyc in find_three_cycles(quiver)
                   for rho in (cyc[r:] + cyc[:r] for r in range(3)))
        suffix_ok, prefix_ok = (lambda d: d >= n), (lambda d: True)
        distinguished = lambda b_node, nodes: {}
    else:
        m, v = spec.m, f"a{spec.m}"
        expected, positions = n + 2 * m + (1 if spec.family == "V" else 0), (n,)
        s_node = quiver.node_of(Walk(basepoint=v))
        first = quiver.node_of(_ell_walk(m, n - 1 if spec.family == "U" else n - 2)).index
        avoids_s = lambda c: not any(a.source == s_node.index for a in c)
        anchors = ((li, sorted(_cycles(quiver, expected - n, li), key=avoids_s))
                   for li in [first] + [x.index for x in quiver.nodes if x.index != first])
        suffix_ok = prefix_ok = lambda d: d <= n - 1

        def distinguished(b_node, nodes):
            P, I = (quiver.node_of(standard_module(spec.presentation, v, kind, quiver.field).word)
                    for kind in ("projective", "injective"))
            return {"P": P, "S": s_node, "I": I, "L": quiver.nodes[b_node], "N": nodes[-1]}

    perturb = _perturber()
    intos = functools.cache(lambda b_node: _into_paths(quiver, b_node))

    @functools.cache
    def kept(start, b_node, steps):
        """keep[i]: the nodes i arrows past b_node on a path of `steps` arrows
        to a y with rad^expected(start, y) != 0."""
        layers = quiver.reach(b_node, steps)  # layers[i]: the nodes i arrows past b_node
        keep = [{y for y in layers[steps] if table.reaches(start, y, expected)}]
        for layer in layers[steps - 1::-1]:
            keep.append({a.source for y in keep[-1] for a in quiver.arrows_into(y)
                         if a.source in layer})
        return keep[::-1]

    def live(b_node, j):
        """The into-paths of j - 1 arrows to b_node through which a candidate can pass."""
        for into, plain in intos(b_node)(j - 1):
            keep = kept(into[0].source, b_node, n - j + 1)
            if keep[0]:
                yield into, plain, keep

    for b_node, cycles in anchors:
        for j in positions:  # the cycle sits at chain position j
            for rho in cycles:
                for into, plain, keep in live(b_node, j):
                    tails = _forward_paths(quiver, b_node, keep, perturb(rho, plain))
                    for tail, prefix in tails:  # tail: h_j ... h_n; prefix: h_{n-1} ... h_1
                        path = into + tail
                        hit = _chain_depths(table, perturb, rho, path, j - 2, prefix, expected,
                                            suffix_ok, prefix_ok)
                        if hit:
                            chain, nodes, depths = hit
                            return FamilyWitness(
                                spec, chain, nodes, nodes[:j], _path_nodes(quiver, rho),
                                distinguished(b_node, nodes), expected, depths, quiver, table,
                            )
    raise WitnessConstructionError(
        f"no verified witness chain found for {spec!r}; flagging as an open discrepancy"
    )
