"""The unpruned witness search, kept as the oracle for the pruned one.

It lists every arrow path of the chain's length, in the order of
`stringar.families`, and composes and checks each candidate in full: no
Hom lookup, no zero-prefix cut, no depth test before composing.  It takes
seconds where the pruned search takes milliseconds beyond W(9) or V(3,4).
"""

import functools

from stringar.configurations import find_three_cycles
from stringar.families import _ell_walk
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

    The order is: anchor b with its cycles, position j, cycle rho, every path
    of j - 1 arrows into b, every path of n - j + 1 arrows out of b.  The L
    candidates of V run in plain node order, not with V's distinguished L
    first as in the search, so a first L that changed the witness shows here.
    depths is None for a candidate that fails; the first one that passes is
    the witness.  The caller stops reading there.
    """
    n = spec.n
    if spec.family == "W":
        expected, positions = n + 3, range(2, n + 1)
        anchors = ((rho[0].source, [rho]) for cyc in find_three_cycles(quiver)
                   for rho in (cyc[r:] + cyc[:r] for r in range(3)))
        suffix_ok, prefix_ok = (lambda d: d >= n), (lambda d: True)
    else:
        expected, positions = n + 2 * spec.m + (1 if spec.family == "V" else 0), (n,)
        anchors = _l_anchors(spec, quiver, expected - n)
        suffix_ok = prefix_ok = lambda d: d <= n - 1
    perturb = _perturber()
    for b_node, cycles in anchors:
        for j in positions:
            intos = _paths(quiver, j - 1, b_node, forward=False)
            outs = _paths(quiver, n + 1 - j, b_node, forward=True)
            for rho in cycles:
                for into in intos:
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
                            _nodes(quiver, path), expected, suffix_ok, prefix_ok,
                        )
                        yield (rho, path, j - 2), depths


def _l_anchors(spec, quiver, length):
    """(L, its closed paths of `length` arrows, those through S first) per node L,
    U's distinguished L first."""
    s_node = quiver.node_of(Walk(basepoint=f"a{spec.m}"))
    l_candidates = [x.index for x in quiver.nodes]
    if spec.family == "U":
        l_first = quiver.node_of(_ell_walk(spec.m, spec.n - 1)).index
        l_candidates = [l_first] + [x for x in l_candidates if x != l_first]
    for li in l_candidates:
        cycles = [c for c in _paths(quiver, length, li, forward=True) if c[-1].target == li]
        cycles.sort(key=lambda c: (not any(a.source == s_node.index for a in c),))
        yield li, cycles
