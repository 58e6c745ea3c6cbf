"""The unpruned witness search, kept as the oracle for the pruned one.

It lists every arrow path of the chain's length, in the order of
`stringar.families`, and composes and checks each candidate in full: no
Hom lookup, no zero-prefix cut, no depth test before composing.  It takes
seconds where the pruned search takes milliseconds beyond W(9) or V(3,4).
"""

import functools

from stringar.configurations import find_three_cycles
from stringar.families import _u_module_words
from stringar.modules import compose_chain
from stringar.radical import ZERO_DEPTH
from stringar.strings import Walk


def _paths(quiver, length, node, forward):
    """Arrow paths of `length` leaving (forward) or entering `node`, depth-first."""
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


def _nodes(quiver, path):
    return [quiver.nodes[path[0].source]] + [quiver.nodes[a.target] for a in path]


def _perturber():
    """(rho, arrow) -> f + rho o f for the arrow's map f, each built once."""
    cycle = functools.cache(lambda rho: compose_chain([a.morphism for a in rho]))

    @functools.cache
    def perturb(rho, arrow):
        return arrow.morphism.add(cycle(rho).compose(arrow.morphism))

    return perturb


def _chain(path, perturb, rho, perturb_at):
    chain = [a.morphism for a in path]
    chain[perturb_at] = perturb(rho, path[perturb_at])
    return chain


def _depths(table, chain, prefix, nodes, expected, suffix_ok, prefix_ok):
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
        "prefix": None if d_prefix == ZERO_DEPTH else d_prefix,
        "suffix": None if d_suffix == ZERO_DEPTH else d_suffix,
    }


def candidates(spec, quiver, table):
    """Yield ((rho, path, perturb_at), depths) for every candidate in search order.

    depths is None for a candidate that fails; the first one that passes is
    the witness.  The caller stops reading there.
    """
    if spec.family == "W":
        yield from _candidates_w(spec, quiver, table)
    else:
        yield from _candidates_uv(spec, quiver, table)


def _candidates_w(spec, quiver, table):
    n = spec.n
    expected = n + 3
    perturb = _perturber()
    for cyc in find_three_cycles(quiver):
        for r in range(3):
            rho = cyc[r:] + cyc[:r]
            b_node = rho[0].source
            for j in range(2, n + 1):
                outs = _paths(quiver, n + 1 - j, b_node, forward=True)
                for into in _paths(quiver, j - 1, b_node, forward=False):
                    head = compose_chain(_chain(into, perturb, rho, j - 2))
                    prefixes = {(): head}  # out[:k] -> h_{j-1+k} ... h_1

                    def prefix(steps):
                        f = prefixes.get(steps)
                        if f is None:
                            f = prefixes[steps] = steps[-1].morphism.compose(prefix(steps[:-1]))
                        return f

                    for out in outs:
                        path = into + out
                        depths = _depths(
                            table, _chain(path, perturb, rho, j - 2), prefix(out[:-1]),
                            _nodes(quiver, path), expected,
                            suffix_ok=lambda d: d >= n, prefix_ok=lambda d: True,
                        )
                        yield (rho, path, j - 2), depths


def _candidates_uv(spec, quiver, table):
    m, n = spec.m, spec.n
    expected = n + 2 * m + (1 if spec.family == "V" else 0)
    s_node = quiver.node_of(Walk(basepoint=f"a{m}"))
    l_candidates = list(quiver.nodes)
    if spec.family == "U":
        l_first = quiver.node_of(_u_module_words(spec)[0])
        l_candidates = [l_first] + [x for x in l_candidates if x.index != l_first.index]

    perturb = _perturber()

    def shallow(d):
        return d <= n - 1

    for l_node in l_candidates:
        cycles = [
            c
            for c in _paths(quiver, expected - n, l_node.index, forward=True)
            if c[-1].target == l_node.index
        ]
        cycles.sort(key=lambda c: (not any(a.source == s_node.index for a in c),))
        if not cycles:
            continue
        phis = _paths(quiver, n - 1, l_node.index, forward=False)
        for exit_arrow in quiver.arrows_from(l_node.index):
            for rho in cycles:
                for phi in phis:
                    path = phi + (exit_arrow,)
                    chain = _chain(path, perturb, rho, n - 2)
                    depths = _depths(
                        table, chain, compose_chain(chain[:-1]), _nodes(quiver, path),
                        expected, shallow, shallow,
                    )
                    yield (rho, path, n - 2), depths
