"""The radical table is its graph maps: each pair keeps its runs with their
deepest level, and the runs are a basis of every radical layer.

The `radical` docstring proves that distinct graph maps share no flat
coordinate, so the runs' unit vectors, ordered by level and then pivot, are
the echelon rows that the old per-level fold (`tests/oracles/fold.py`)
computed.  Checked here on every pair of the ladder, S0-S7 and the
band-free string algebras of a seeded `random_presentations` slice, over
QQ, GF(2), GF(3) and GF(5); and against solved Hom dimensions.
"""

import functools
import re

import pytest

from stringar import field_for_characteristic, hom_basis, knit
from stringar.errors import MeshInconsistencyError
from stringar.modules import GraphMap, MorphismMatrix
from stringar.radical import RadicalTable
from tests.conftest import table_rows
from tests.morphisms import identity_morphism
from tests.oracles import fold
from tests.test_radical_engine import _ladder_and_stress, _shortcut_algebras

CHARS = [0, 2, 3, 5]


@functools.lru_cache(maxsize=None)
def _table(i, char):
    """The full table of `_shortcut_algebras()[i]` over the field of char."""
    T = RadicalTable(knit(_shortcut_algebras()[i], field_for_characteristic(char)))
    table_rows(T)  # builds every source
    return T


def _support(T, xi, yi, run):
    """The entries (vertex, row, column) that the graph map of a run sets,
    from its nonzeros."""
    f = GraphMap(T.nodes[xi].module, T.nodes[yi].module, {run: T.field.one()})
    return {(v, i, j) for v, i, j, _ in f.nonzeros}


@pytest.mark.parametrize("char", CHARS)
def test_the_rows_are_the_old_fold(char):
    """Every pair's rows, and the set of pairs, equal the per-level fold's."""
    for i in range(len(_shortcut_algebras())):
        T = _table(i, char)
        assert table_rows(T) == fold.table(T.quiver), i


@pytest.mark.parametrize("char", CHARS)
def test_run_supports_are_pairwise_disjoint(char):
    """Distinct runs of a pair set no entry in common, and no pair holds two
    keys of one map: a one-position run has the step +1."""
    pairs = runs = 0
    for i in range(len(_shortcut_algebras())):
        T = _table(i, char)
        for (xi, yi), levels in T._pairs.items():
            supports = [_support(T, xi, yi, run) for run in levels]
            assert all(len(s) == run[3] for s, run in zip(supports, levels))
            assert len(set().union(*supports)) == sum(map(len, supports)), (i, xi, yi)
            assert all(k > 1 or d == 1 for _, _, d, k in levels)
            pairs += 1
            runs += len(levels)
    assert pairs > 10_000 and runs > pairs


def test_run_levels_do_not_depend_on_the_field():
    """Each pair's {run: level} is the same over QQ, GF(2), GF(3) and GF(5)."""

    def levels(T):
        return {(T.nodes[x].text, T.nodes[y].text): kept for (x, y), kept in T._pairs.items()}

    for i in range(len(_shortcut_algebras())):
        over_qq = levels(_table(i, 0))
        assert all(levels(_table(i, char)) == over_qq for char in CHARS[1:]), i


@pytest.mark.parametrize("char", [0, 2])
def test_hom_dimension_is_the_number_of_runs(char):
    """dim Hom(x, y), solved by `hom_basis`, is the number of the pair's runs
    (the identity among them on the diagonal), on every pair of the ladder
    and S0-S7."""
    field = field_for_characteristic(char)
    for p in _ladder_and_stress():
        T = RadicalTable(knit(p, field))
        for x in T.nodes:
            for y in T.nodes:
                dim = hom_basis(x.module.rep, y.module.rep).dimension
                assert dim == len(T._runs(x.index, y.index)), (p.name, x.text, y.text)


def test_a_run_that_overlaps_another_is_refused_naming_the_pair():
    """A corrupted arrow run that shares entries with the pair's true run
    reaches the table, and `depth`'s first read of the pair's entries
    refuses it."""
    G = _table(0, 0).quiver
    a = next(a for a in G.arrows if next(iter(a.morphism.terms))[3] > 1)
    [(s, t, d, k)] = a.morphism.terms
    T = RadicalTable(G)
    T._out[a.source].append((a.target, (s, t, d, k - 1)))
    T._in[a.target].append((a.source, (s, t, d, k - 1)))
    x, y = G.nodes[a.source], G.nodes[a.target]
    assert T.reaches(a.source, a.target, 1)  # the levels are read, no entry
    name = re.escape(f"{x.text} -> {y.text}: runs ")
    with pytest.raises(MeshInconsistencyError, match=name + ".* share an entry"):
        T.depth(MorphismMatrix._adopt(a.morphism.source, a.morphism.target, a.morphism.nonzeros), x, y)
    assert (a.source, a.target) not in T._owners


@pytest.mark.parametrize("dim, run", [(1, (0, 0, 1, 1)), (3, (0, 2, -1, 2))])
def test_a_radical_run_on_the_identity_is_refused(dim, run):
    """A loop arrow on x whose run sends a position of x to itself puts the
    identity in the radical: each query that builds x's source or column
    refuses it, and nothing is stored.  On a node of dimension 1 the run is
    the identity's own key; on one of dimension 3 it fixes position 1 only."""
    G = _table(0, 0).quiver
    x = next(x for x in G.nodes if x.module.total_dim == dim)
    xi = x.index
    message = re.escape(f"the identity of {x.text} lies in the radical")
    queries = [lambda T: T.reaches(xi, xi), lambda T: T.tags(xi, xi, (0, 1)),
               lambda T: T.profile(x, x), lambda T: T.layer(x, x, 1),
               lambda T: T.depth(identity_morphism(x.module.rep), x, x),
               lambda T: T._build(xi, "target")]
    for query in queries:
        T = RadicalTable(G)
        T._out[xi].append((xi, run))
        T._in[xi].append((xi, run))
        for _ in range(2):
            with pytest.raises(MeshInconsistencyError, match=message):
                query(T)
        assert T._pairs == {} and T._levels == {} and T._columns == set()
