"""`QQ` against the all-`Fraction` rationals: the same answers, entry for entry.

`QQ` keeps integral rationals as `int`; the oracle field in
`tests/oracles/fraction_rationals.py` makes every element a `Fraction`.
On the ladder inputs and the seeded band-free algebras of `test_stress`,
every printed answer (as the CLI's JSON prints it) must be the same string
over both fields.
"""

from fractions import Fraction

import pytest

from stringar import (
    QQ,
    RadicalTable,
    audit_theorems,
    hom_basis,
    knit,
    make_family,
    tau_orbit,
    walk_to_text,
    witness,
)
from tests.conftest import LADDER, table_rows
from tests.oracles.fraction_rationals import FractionRationals
from tests.test_stress import _band_free_algebras

FRACTIONS = FractionRationals()
AUDIT_SAMPLES = 2  # the oracle field is slow; two draws per triple still run every audit
ORBIT_STEPS = 3


def _answers(p, field, spec=None):
    G = knit(p, field)
    T = RadicalTable(G)
    out = {
        "knit": G.to_json(),
        "modules": [n.module.rep.as_dict() for n in G.nodes],
        "arrows": [a.morphism.as_dict() for a in G.arrows],
        "rows": {
            key: [(t, pivot, [field.to_str(x) for x in row]) for t, pivot, row in rows]
            for key, rows in table_rows(T).items()
        },
        "dims": [T.profile(x, y).as_dict() for x in T.nodes for y in T.nodes],
        "audit": audit_theorems(p, samples=AUDIT_SAMPLES, field=field).as_dict(),
        "hom": [
            [h.dimension, [f.as_dict() for f in h.basis]]
            for x in G.nodes
            for y in G.nodes
            for h in [hom_basis(x.module.rep, y.module.rep)]
        ],
        "orbits": [],
    }
    for x in G.nodes:
        orbit = tau_orbit(p, x.module, ORBIT_STEPS, field)
        out["orbits"].append(
            ([walk_to_text(m.word.walk) for m in orbit.modules], orbit.hit_projective)
        )
    if spec is not None:
        out["witness"] = witness(spec, field).as_dict()  # node path, ρ nodes, depths
    return out, G


def _assert_same_answers(p, spec=None):
    want, oracle_quiver = _answers(p, FRACTIONS, spec)
    got, _ = _answers(p, QQ, spec)
    entries = [x for a in oracle_quiver.arrows for b in a.morphism.blocks.values()
               for row in b.rows for x in row]
    assert entries and all(type(x) is Fraction for x in entries)  # the oracle is not QQ
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("name", list(LADDER))
def test_ladder_answers_match_the_fraction_field(name):
    family, m, n = LADDER[name]
    spec = make_family(family, m=m, n=n)
    _assert_same_answers(spec.presentation, spec)


@pytest.mark.parametrize("i", range(8))
def test_band_free_answers_match_the_fraction_field(i):
    _assert_same_answers(_band_free_algebras()[i])
