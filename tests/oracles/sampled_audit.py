"""The per-sample audit loop, kept as the oracle for the draw-keyed one.

Every sample rebuilds its three perturbed arrow maps, composes them and
reduces all three composites, whether or not an earlier sample drew the
same coefficients.  It returns the A and B counterexample lists of
`audit_theorems` and, per sample, the key of its draw: one
`(arrow index, coefficients)` pair per arrow, the coefficients being the
draws from -3..3 as field scalars (all zero for the bare sample 0), and the
sample's record (triple, sample index and depths) as the report gives one.
"""

import random

from stringar.artheory import knit
from stringar.modules import morphism_from_flat
from stringar.radical import ZERO_DEPTH, RadicalTable
from tests.conftest import layer_space


def sampled_audit(p, samples, seed, field):
    quiver = knit(p, field)
    table = RadicalTable(quiver)
    arrows = quiver.arrows
    index = {a: i for i, a in enumerate(arrows)}
    triples = []
    for a1 in arrows:
        for a2 in quiver.arrows_from(a1.target):
            for a3 in quiver.arrows_from(a2.target):
                triples.append((a1, a2, a3))

    def perturbed(rng, f, x, y):
        """f plus one draw from -3..3 per row of rad^2(x, y) times that row."""
        space = layer_space(table, x, y, 2)
        vec, drawn, coefficients = [field.zero()] * space.n, False, []
        for row in space.rows:
            c = rng.randint(-3, 3)
            coefficients.append(field.of(c))
            if c:
                c, drawn = field.of(c), True
                vec = [a + c * b for a, b in zip(vec, row)]
        f = f.add(morphism_from_flat(x.module.rep, y.module.rep, vec)) if drawn else f
        return f, tuple(coefficients)

    a_violations, b_violations, draws, spots = [], [], [], []
    for t_ix, (a1, a2, a3) in enumerate(triples):
        ends = [(quiver.nodes[a.source], quiver.nodes[a.target]) for a in (a1, a2, a3)]
        rng = random.Random(f"{seed}:{t_ix}")
        for s_ix in range(samples):
            hs, key = [], []
            for (x, y), arrow in zip(ends, (a1, a2, a3)):
                if s_ix:
                    f, coefficients = perturbed(rng, arrow.morphism, x, y)
                else:
                    rows = table.layer(x, y, 2)
                    f, coefficients = arrow.morphism, tuple(field.zero() for _ in rows)
                hs.append(f)
                key.append((index[arrow], coefficients))
            draws.append(tuple(key))
            h21 = hs[1].compose(hs[0])
            h32 = hs[2].compose(hs[1])
            total = hs[2].compose(h21)
            d21 = table.depth(h21, ends[0][0], ends[1][1])
            d32 = table.depth(h32, ends[1][0], ends[2][1])
            dtot = table.depth(total, ends[0][0], ends[2][1])
            spot = {
                "triple": [ends[0][0].text, ends[1][0].text, ends[2][0].text, ends[2][1].text],
                "sample": s_ix,
                "depths": {
                    "pair12": None if d21 == ZERO_DEPTH else d21,
                    "pair23": None if d32 == ZERO_DEPTH else d32,
                    "total": None if dtot == ZERO_DEPTH else dtot,
                },
            }
            spots.append(spot)
            if dtot == 6 and d21 <= 2 and d32 <= 2:
                a_violations.append(spot)
            if dtot != ZERO_DEPTH and 4 <= dtot < 6:
                b_violations.append(spot)
    return a_violations, b_violations, draws, spots
