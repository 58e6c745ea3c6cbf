"""The three named algebra families and their deep-composite witnesses.

Witness chains are assembled from canonical irreducible matrices of the
knitted quiver: a sectional approach path into a module L, a cycle at L
through the relevant simple, and one exit arrow; the middle morphism gets
the cycle added on top.  Every candidate is verified by exact radical
depth before it is returned, so a successful witness is a checked one.
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


def _u_module_words(spec):
    """Distinguished walks of U(m, n-1) straight from their definitions."""
    m, n = spec.m, spec.n
    g = lambda i: Letter(f"g{i}")
    b = lambda i: Letter(f"b{i}")
    gbar1 = tuple(g(i) for i in range(1, m))  # g1 ... g_{m-1}
    ell = (g(m),) + tuple(Letter(f"b{i}", True) for i in range(n - 1, 0, -1)) + gbar1
    nn = tuple(Letter(f"b{i}", True) for i in range(n - 2, 0, -1)) + gbar1
    ix = tuple(b(i) for i in range(1, n)) + (Letter(f"g{m}", True),)
    return Walk(ell), (Walk(nn) if nn else None), Walk(ix)


def _paths(quiver, length, node, forward):
    """Arrow paths of the given length leaving (forward) or entering `node`.

    Each path is listed in arrow order; the order of the list is a depth-first
    search along arrows_from (forward) or arrows_into from `node`.
    """
    out = []

    def grow(path):
        if len(path) == length:
            out.append(tuple(path) if forward else tuple(reversed(path)))
            return
        if forward:
            frontier = quiver.arrows_from(path[-1].target if path else node)
        else:
            frontier = quiver.arrows_into(path[-1].source if path else node)
        for a in frontier:
            path.append(a)
            grow(path)
            path.pop()

    grow([])
    return out


def _path_nodes(quiver, path):
    """The nodes visited by a nonempty arrow path."""
    return [quiver.nodes[path[0].source]] + [quiver.nodes[a.target] for a in path]


def _perturber():
    """(rho, arrow) -> f + rho o f for the arrow's map f, each built once per search."""
    cycle = functools.cache(lambda rho: compose_chain([a.morphism for a in rho]))

    @functools.cache
    def perturb(rho, arrow):
        return arrow.morphism.add(cycle(rho).compose(arrow.morphism))

    return perturb


def _chain_with_cycle(path, perturb, rho, perturb_at):
    """Morphism chain of the path with the cycle composite added after position perturb_at."""
    chain = [a.morphism for a in path]
    chain[perturb_at] = perturb(rho, path[perturb_at])
    return chain


def _chain_depths(table, chain, prefix, nodes, expected, suffix_ok, prefix_ok):
    """Depths of the chain, its suffix h_n...h_2 and its prefix h_{n-1}...h_1.

    `prefix` is the composite h_{n-1}...h_1, built by the caller.  None unless
    the whole chain has depth `expected` and the suffix and the prefix pass
    their checks; the suffix is checked first.
    """
    d_total = table.depth(chain[-1].compose(prefix), nodes[0], nodes[-1])
    if d_total != expected:
        return None
    d_suffix = table.depth(compose_chain(chain[1:]), nodes[1], nodes[-1])
    if not suffix_ok(d_suffix):
        return None
    d_prefix = table.depth(prefix, nodes[0], nodes[-2])
    if not prefix_ok(d_prefix):
        return None
    return {
        "total": d_total,
        "prefix": _depth_or_none(d_prefix),
        "suffix": _depth_or_none(d_suffix),
    }


def _depth_or_none(d):
    return None if d == ZERO_DEPTH else d


def witness(spec, field=QQ):
    p = spec.presentation
    quiver = knit(p, field)
    table = RadicalTable(quiver)
    if spec.family in ("U", "V"):
        return _witness_uv(spec, quiver, table)
    return _witness_w(spec, quiver, table)


def _witness_uv(spec, quiver, table):
    m, n = spec.m, spec.n
    expected = n + 2 * m + (1 if spec.family == "V" else 0)
    cycle_len = expected - n
    phi_len = n - 1
    s_node = quiver.node_of(Walk(basepoint=f"a{m}"))
    l_candidates = list(quiver.nodes)
    if spec.family == "U":
        ell, _, _ = _u_module_words(spec)
        l_first = quiver.node_of(ell)
        l_candidates = [l_first] + [x for x in l_candidates if x.index != l_first.index]
    perturb = _perturber()
    for l_node in l_candidates:
        cycles = [
            c
            for c in _paths(quiver, cycle_len, l_node.index, forward=True)
            if c[-1].target == l_node.index
        ]
        cycles.sort(key=lambda c: (not any(a.source == s_node.index for a in c),))
        if not cycles:
            continue
        phis = _paths(quiver, phi_len, l_node.index, forward=False)
        for exit_arrow in quiver.arrows_from(l_node.index):
            for rho in cycles:
                for phi in phis:
                    w = _assemble_uv(
                        spec, quiver, table, phi, rho, exit_arrow, expected, perturb
                    )
                    if w is not None:
                        return w
    raise WitnessConstructionError(
        f"no verified witness chain found for {spec!r}; "
        "flagging as an open discrepancy"
    )


def _assemble_uv(spec, quiver, table, phi, rho, exit_arrow, expected, perturb):
    n = spec.n
    path = phi + (exit_arrow,)
    nodes = _path_nodes(quiver, path)
    chain = _chain_with_cycle(path, perturb, rho, perturb_at=n - 2)

    def shallow(d):
        return d <= n - 1

    prefix = compose_chain(chain[:-1])
    depths = _chain_depths(table, chain, prefix, nodes, expected, shallow, shallow)
    if depths is None:
        return None
    m = spec.m
    s_node = quiver.node_of(Walk(basepoint=f"a{m}"))
    distinguished = {
        "P": _std_node(quiver, spec.presentation, f"a{m}", "projective"),
        "S": s_node,
        "I": _std_node(quiver, spec.presentation, f"a{m}", "injective"),
        "L": quiver.nodes[exit_arrow.source],
        "N": quiver.nodes[exit_arrow.target],
    }
    return FamilyWitness(
        spec, chain, nodes, nodes[:-1], _path_nodes(quiver, rho), distinguished,
        expected, depths, quiver, table,
    )


def _std_node(quiver, p, v, kind):
    mod = standard_module(p, v, kind, quiver.field)
    return quiver.node_of(mod.word)


def _witness_w(spec, quiver, table):
    from .configurations import find_three_cycles

    n = spec.n
    if n < 3:
        raise ValueError("W-family witness chains need n >= 3")
    expected = n + 3
    rotations = []
    for cyc in find_three_cycles(quiver):
        for r in range(3):
            rotations.append(cyc[r:] + cyc[:r])
    perturb = _perturber()
    for rho in rotations:
        b_node = rho[0].source
        for j in range(2, n + 1):  # the cycle sits at chain position j
            outs = _paths(quiver, n + 1 - j, b_node, forward=True)
            for into in _paths(quiver, j - 1, b_node, forward=False):
                head = compose_chain(_chain_with_cycle(into, perturb, rho, perturb_at=j - 2))
                prefixes = {(): head}  # out[:k] -> h_{j-1+k} ... h_1, for this head only

                def prefix(steps):
                    f = prefixes.get(steps)
                    if f is None:
                        f = prefixes[steps] = steps[-1].morphism.compose(prefix(steps[:-1]))
                    return f

                for out in outs:
                    phi = into + out
                    nodes = _path_nodes(quiver, phi)
                    chain = _chain_with_cycle(phi, perturb, rho, perturb_at=j - 2)
                    depths = _chain_depths(
                        table, chain, prefix(out[:-1]), nodes, expected,
                        suffix_ok=lambda d: d >= n, prefix_ok=lambda d: True,
                    )
                    if depths is not None:
                        return FamilyWitness(
                            spec, chain, nodes, nodes[:j], _path_nodes(quiver, rho), {},
                            expected, depths, quiver, table,
                        )
    raise WitnessConstructionError(f"no verified witness chain found for {spec!r}")
