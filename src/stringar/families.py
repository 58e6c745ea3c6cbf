"""The three named algebra families and their deep-composite witnesses.

A witness chain is the paper's construction, written out as node words by
`chain_words` from the family parameters alone: a path into an anchor
module (a three-cycle's node for W, a module L for U and V), a cycle rho at
the anchor, and a path out of it.  `witness` resolves the words to nodes of
the knitted quiver, takes the one irreducible map of each step, adds
rho o f on top of the map f into the anchor, and verifies the chain by exact
radical depth before it is returned, so a successful witness is a checked
one.  The search these words were read off is kept as a test oracle.
"""

from __future__ import annotations

from .artheory import knit
from .errors import StringAlgebraError, WitnessConstructionError
from .fields import QQ
from .modules import compose_chain, standard_module
from .radical import ZERO_DEPTH, RadicalTable
from .strings import Walk, walk_from_text


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


def chain_words(spec):
    """(chain words, rho words, j) of the family's witness, from its parameters.

    The paper's construction: the chain h_1, ..., h_n runs through the n + 1
    chain words, and the cycle rho through the rho words sits at the anchor,
    the j-th chain word, so rho o h_{j-1} is added on top of h_{j-1}.  W(n):
    b2 ... b(n-1) shrinks to e(2), then the three-cycle's node b1^- a b1 and
    a b1, with j = n.  U and V, beta = n - 1 (U) or n - 2 (V): g_m grows by
    b_beta^- ... b_2^- (V: on to b_1^- g_1 ... g_{m-1} al), then L, then N;
    rho is the cycle of 2m (V: 2m + 1) arrows at L through the simple at a_m.
    """
    n = spec.n
    if spec.family == "W":
        chain = [" ".join(f"b{i}" for i in range(2, k)) for k in range(n, 2, -1)]
        return chain + ["e(2)", "b1^- a b1", "a b1"], ["b1^- a b1", "a^- b1", "b1", "b1^- a b1"], n
    m, v = spec.m, spec.family == "V"
    beta = n - 2 if v else n - 1

    def word(*runs):
        return " ".join(x for run in runs for x in run)

    g_down = lambda k: [f"g{i}^-" for i in range(k, 0, -1)]  # g_k^- ... g_1^-
    b_up = lambda k: [f"b{i}" for i in range(1, k + 1)]  # b_1 ... b_k
    b_down = lambda k: [f"b{i}^-" for i in range(beta, k - 1, -1)]  # b_beta^- ... b_k^-
    g_m, ell = f"g{m}", word(g_down(m - 1), b_up(beta), [f"g{m}^-"])
    chain = [g_m] + [word([g_m], b_down(k)) for k in range(beta, 1, -1)]
    chain += [word([g_m], b_down(1), [f"g{i}" for i in range(1, m)], ["al"])] if v else []
    chain += [ell, word(g_down(m - 1), b_up(beta - 1))]
    rho = [ell] + [word(g_down(k), b_up(beta), [f"g{m}^-"]) for k in range(m - 2, -1, -1)]
    rho += [f"e(a{m})"] + [word([f"g{i}" for i in range(k, m)]) for k in range(m - 1, 1, -1)]
    rho += [word(g_down(m - 1), b_up(beta))] + ([ell + " al"] if v else []) + [ell]
    return chain, rho, n


def _nodes(quiver, words):
    """The node of each word; raises WitnessConstructionError naming a word that is none."""
    nodes = []
    for word in words:
        try:
            nodes.append(quiver.node_of(walk_from_text(word)))
        except StringAlgebraError as exc:
            raise WitnessConstructionError(f"witness word {word} names no node: {exc}") from None
    return nodes


def _arrow_maps(quiver, nodes):
    """The map of the one arrow of each step of the node path; raises
    WitnessConstructionError naming a step with no arrow or several."""
    maps = []
    for x, y in zip(nodes, nodes[1:]):
        arrows = quiver.arrows_between(x.index, y.index)
        if len(arrows) != 1:
            raise WitnessConstructionError(
                f"witness step {x.text} -> {y.text} has {len(arrows)} arrows, not one")
        maps.append(arrows[0].morphism)
    return maps


def _chain_depths(table, chain, nodes, expected, suffix_ok, prefix_ok):
    """{"total", "prefix", "suffix"}: the depths of the chain h_1, ..., h_n
    between the nodes, of its prefix h_{n-1}...h_1 and of its suffix
    h_n...h_2.  Raises WitnessConstructionError unless the whole chain has
    depth `expected` and the suffix and the prefix pass their checks, checked
    in that order.
    """
    prefix = compose_chain(chain[:-1])
    d_total = table.depth(chain[-1].compose(prefix), nodes[0], nodes[-1])
    if d_total != expected:
        raise WitnessConstructionError(f"witness chain has depth {d_total}, not {expected}")
    d_suffix = table.depth(compose_chain(chain[1:]), nodes[1], nodes[-1])
    if not suffix_ok(d_suffix):
        raise WitnessConstructionError(f"witness suffix h_n...h_2 has depth {d_suffix}")
    d_prefix = table.depth(prefix, nodes[0], nodes[-2])
    if not prefix_ok(d_prefix):
        raise WitnessConstructionError(f"witness prefix h_(n-1)...h_1 has depth {d_prefix}")
    return {"total": d_total, "prefix": _depth_or_none(d_prefix), "suffix": _depth_or_none(d_suffix)}


def _depth_or_none(d):
    return None if d == ZERO_DEPTH else d


def require_witness_parameters(spec):
    """Raise ValueError unless the family has witness chains: W(n) needs n >= 3."""
    if spec.family == "W" and spec.n < 3:
        raise ValueError("W-family witness chains need n >= 3")


def witness(spec, field=QQ):
    """The verified witness chain of the family: `chain_words` resolved to
    nodes, each step's irreducible map, rho o f added to the map f into the
    anchor, and the depths checked by `_chain_depths`.  W(n) has depth n + 3
    and a suffix of depth at least n; U(m, n) has depth n + 2m, V(m, n)
    n + 2m + 1, and both a prefix and a suffix of depth at most n - 1.
    Raises WitnessConstructionError naming the word, step or check that fails.
    """
    require_witness_parameters(spec)
    quiver = knit(spec.presentation, field)
    table = RadicalTable(quiver)
    words, rho_words, j = chain_words(spec)
    nodes, rho_nodes = _nodes(quiver, words), _nodes(quiver, rho_words)
    chain, rho = _arrow_maps(quiver, nodes), compose_chain(_arrow_maps(quiver, rho_nodes))
    chain[j - 2] = chain[j - 2].add(rho.compose(chain[j - 2]))
    n = spec.n
    if spec.family == "W":
        expected, suffix_ok, prefix_ok, distinguished = n + 3, (lambda d: d >= n), (lambda d: True), {}
    else:
        v = f"a{spec.m}"
        expected = n + 2 * spec.m + (1 if spec.family == "V" else 0)
        suffix_ok = prefix_ok = lambda d: d <= n - 1
        P, I = (quiver.node_of(standard_module(spec.presentation, v, kind, field).word)
                for kind in ("projective", "injective"))
        S = quiver.node_of(Walk(basepoint=v))
        distinguished = {"P": P, "S": S, "I": I, "L": nodes[-2], "N": nodes[-1]}
    depths = _chain_depths(table, chain, nodes, expected, suffix_ok, prefix_ok)
    return FamilyWitness(spec, chain, nodes, nodes[:j], rho_nodes, distinguished, expected,
                         depths, quiver, table)
