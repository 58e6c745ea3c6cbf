import ast
import pathlib
import random
from fractions import Fraction

import pytest

from stringar import (
    NotAStringError,
    compose_chain,
    field_for_characteristic,
    knit,
    realize,
    walk_from_text,
)
from stringar.artheory import tau_oracle
from stringar.families import make_family
from stringar.fields import (
    Mat, QQ, PrimeField, Subspace, nullspace, reduce, rref, solve,
)
from stringar.modules import end_radical, hom_basis
from stringar.radical import RadicalTable
from tests.conftest import LADDER, layer_space, pair_rows, table_rows
from tests.oracles import fold, gauss_jordan

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stringar"


def test_rref_rank_kernel():
    m = Mat(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert len(rref([list(r) for r in m.rows], QQ)[0]) == 2
    ker = nullspace(m)
    assert len(ker) == 1
    for row in m.rows:
        s = sum((a * b for a, b in zip(row, ker[0])), Fraction(0))
        assert s == 0


def test_solve_consistent_and_inconsistent():
    m = Mat(QQ, [[1, 1], [0, 1]])
    x = solve(m, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    m2 = Mat(QQ, [[1, 1], [2, 2]])
    assert solve(m2, [Fraction(1), Fraction(3)]) is None


def test_subspace_rref_is_canonical():
    a = Subspace(QQ, 3, [[Fraction(1), Fraction(1), Fraction(0)],
                         [Fraction(0), Fraction(1), Fraction(1)]])
    b = Subspace(QQ, 3, [[Fraction(0), Fraction(2), Fraction(2)],
                         [Fraction(2), Fraction(2), Fraction(0)],
                         [Fraction(1), Fraction(2), Fraction(1)]])
    assert a == b
    assert a.dim == 2
    assert a.contains([Fraction(1), Fraction(2), Fraction(1)])
    assert not a.contains([Fraction(1), Fraction(0), Fraction(0)])


def test_prime_field_arithmetic():
    F = PrimeField(7)
    x = F.of(3)
    assert F.of(x * x) == 2
    assert F.of(x * F.inv(F.of(5))) == (3 * pow(5, -1, 7)) % 7
    assert [F.of(-1), F.of(10), F.parse("-8"), F.inv(6)] == [6, 3, 6, 6]
    assert {type(y) for y in (x, F.zero(), F.one(), F.parse("9"), F.inv(3))} == {int}
    with pytest.raises(ValueError):
        PrimeField(6)


def test_rationals_are_ints_when_integral():
    made = [QQ.zero(), QQ.one(), QQ.of(Fraction(4, 2)), QQ.of(-3), QQ.of(Fraction(1, 2)),
            QQ.parse("4/2"), QQ.parse("-7"), QQ.parse("3/6")]
    inverses = [QQ.inv(x) for x in (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(-1, 3))]
    assert [(x, type(x)) for x in made + inverses] == [
        (0, int), (1, int), (2, int), (-3, int), (Fraction(1, 2), Fraction),
        (2, int), (-7, int), (Fraction(1, 2), Fraction),
        (1, int), (-1, int), (Fraction(1, 2), Fraction), (2, int),
        (Fraction(-3, 2), Fraction), (-3, int),
    ]
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    F = PrimeField(7)
    assert F.of(F.inv(F.of(3)) * F.of(3)) == F.one()
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero())


def test_integer_input_is_reduced_without_floats():
    s = Subspace(QQ, 2, [[2, 1]])
    assert s.rows == [[1, Fraction(1, 2)]]
    pivots, rows = rref([[2, 1], [4, 3]], QQ)
    assert (pivots, rows) == ([0, 1], [[1, 0], [0, 1]])
    x = solve(Mat(QQ, [[2, 0], [0, 3]]), [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 3)]
    assert not any(isinstance(a, float) for a in [*s.rows[0], *rows[0], *rows[1], *x])


def test_fraction_pivots_leave_integral_entries_as_ints():
    """A row scaled by a Fraction inverse, or eliminated with it, keeps ints where integral."""
    _, rows = rref([[2, 1], [4, 3]], QQ)
    s = Subspace(QQ, 2, [[2, 1], [4, 3]])
    t = Subspace(QQ, 3, [[2, 4, 1], [0, 3, 6]])
    inserted = Subspace(QQ, 3)
    for vec in [[3, 0, 6], [0, 2, 1]]:
        inserted.insert(vec)
    assert rows == s.rows == [[1, 0], [0, 1]]
    assert t.rows == [[1, 0, Fraction(-7, 2)], [0, 1, 2]]
    assert inserted.rows == [[1, 0, 2], [0, 1, Fraction(1, 2)]]
    entries = [x for m in (rows, s.rows, t.rows, inserted.rows) for r in m for x in r]
    assert {type(x) for x in entries if x == int(x)} == {int}


def _random_entry(rng, field):
    """A field element as the library keeps it: over QQ an int where integral."""
    if field.characteristic:
        return rng.randrange(field.characteristic)
    if rng.random() < 0.6:
        return rng.randint(-3, 3)
    return field.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


@pytest.mark.parametrize("char, count", [(0, 3000), (2, 1000), (3, 1000), (5, 1000)])
def test_rref_matches_gauss_jordan(char, count):
    """On seeded random matrices, sparse or dense and of any rank, `rref`
    gives the Gauss-Jordan oracle's pivots and rows, entry types included."""
    field, rng = field_for_characteristic(char), random.Random(20261019 + char)
    for _ in range(count):
        nrows, ncols, density = rng.randint(1, 6), rng.randint(1, 6), rng.random()
        rows = [[_random_entry(rng, field) if rng.random() < density else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:  # a combination of two rows: rank below nrows
            c = _random_entry(rng, field)
            rows[-1] = [field.of(a + c * b) for a, b in zip(rows[0], rows[1])]
        got = rref(rows, field)
        want = gauss_jordan.rref([list(r) for r in rows], field)
        assert got == want, rows
        assert [list(map(type, r)) for r in got[1]] == [list(map(type, r)) for r in want[1]], rows


def test_insert_stores_an_integral_fraction_as_an_int():
    """A residue that picks up an integral Fraction by elimination and has a unit
    pivot is stored as an int, by `Subspace.insert`, by `rref` and by the
    oracle's tagged `append`."""
    s = Subspace(QQ, 3, [[1, 0, Fraction(1, 2)]])
    assert s.insert([1, 1, Fraction(3, 2)])
    assert s.rows == [[1, 0, Fraction(1, 2)], [0, 1, 1]] and type(s.rows[1][2]) is int
    assert rref([[1, 0, Fraction(1, 2)], [1, 1, Fraction(3, 2)]], QQ) == (s.pivots, s.rows)
    rows = [(None, 0, [1, 0, Fraction(1, 2)])]
    assert fold.append(QQ, rows, [1, 1, Fraction(3, 2)], None)
    assert rows[1] == (None, 1, s.rows[1]) and type(rows[1][2][2]) is int


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_subspace_insert_matches_gauss_jordan(char):
    """Seeded inserts, one at a time, some of them combinations of earlier ones:
    after each, the basis is the oracle's RREF of all inserted so far, entry
    types included, and `insert` says whether the dimension grew."""
    field, rng = field_for_characteristic(char), random.Random(20261020 + char)
    grown = kept = 0
    for _ in range(400):
        n, density = rng.randint(1, 6), rng.random()
        s, inserted = Subspace(field, n), []
        for _ in range(rng.randint(1, 7)):
            if len(inserted) > 1 and rng.random() < 0.3:
                c = _random_entry(rng, field)
                v = [field.of(a + c * b) for a, b in zip(inserted[0], inserted[-1])]
            else:
                v = [_random_entry(rng, field) if rng.random() < density else 0 for _ in range(n)]
            dim = s.dim
            grew = s.insert(v)
            inserted.append(v)
            pivots, rows = gauss_jordan.rref([list(r) for r in inserted], field)
            assert (s.pivots, s.rows) == (pivots, rows), inserted
            assert [list(map(type, r)) for r in s.rows] == [list(map(type, r)) for r in rows]
            assert grew == (len(pivots) > dim)
            grown, kept = grown + grew, kept + (not grew)
    assert grown > 500 and kept > 200


def test_subspaces_over_two_fields_differ():
    """Equal rows over two fields are two subspaces, as they are two `Mat`s."""
    assert Subspace(PrimeField(2), 2, [[1, 0]]) != Subspace(PrimeField(3), 2, [[1, 0]])
    assert Subspace(PrimeField(3), 2, [[1, 0]]) == Subspace(PrimeField(3), 2, [[1, 0]])
    assert Subspace(QQ, 2, [[1, 0]]) != Subspace(PrimeField(2), 2, [[1, 0]])
    assert Mat(PrimeField(2), [[1, 0]]) != Mat(PrimeField(3), [[1, 0]])


def test_a_subspace_owns_its_rows(w3):
    """A Subspace copies what it is given: tuples and generators build the same
    rows as lists, and changing the input or a layer's rows changes nothing else."""
    v = [1, 0]
    s = Subspace(QQ, 2, [v])
    assert s == Subspace(QQ, 2, [(1, 0)]) == Subspace(QQ, 2, (w for w in [[1, 0]]))
    v[1] = 5
    assert s.rows == [[1, 0]]
    T = RadicalTable(knit(w3))
    pairs = [(x, y, n) for x in T.nodes for y in T.nodes for n in range(1, 4)
             if len(T.layer(x, y, n)) == 1]
    assert pairs
    for x, y, n in pairs:
        before = repr(pair_rows(T, x.index, y.index))
        layer_space(T, x, y, n).rows[0][0] = 99
        assert repr(pair_rows(T, x.index, y.index)) == before


def _integral_fractions(rows):
    return [x for r in rows for x in r if type(x) is Fraction and x.denominator == 1]


def test_subspace_keeps_no_integral_fraction_built_or_inserted():
    """The constructor and `insert` both store `rref` rows: ints where integral,
    also when a row holding Fractions is scaled by an int or eliminated by one."""
    built = Subspace(QQ, 3, [[2, 0, 1], [2, 1, 3]])
    grown = Subspace(QQ, 3, [[2, 0, 1]])
    assert grown.insert([2, 1, 3])
    halves = Subspace(QQ, 3, [[2, 1, 0]])
    assert halves.insert([1, 0, 1])  # the residue [0, -1/2, 1] is scaled by the int -2
    assert built.rows == grown.rows == [[1, 0, Fraction(1, 2)], [0, 1, 2]]
    assert halves.rows == [[1, 0, 1], [0, 1, -2]]
    pairs = [(built, grown)]
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 5)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        one_by_one = Subspace(QQ, n)
        for v in vecs:
            one_by_one.insert(v)
        pairs.append((Subspace(QQ, n, vecs), one_by_one))
    assert all(a.rows == b.rows for a, b in pairs)
    assert not _integral_fractions([r for a, b in pairs for r in a.rows + b.rows] + halves.rows)


def test_prime_field_residues_are_reduced():
    """1 - 2 * 2 = -3 is zero in GF(3): a residue must come back as 0, not -3."""
    F = PrimeField(3)
    s = Subspace(F, 2, [[1, 2]])
    assert s.contains([2, 1])
    assert not s.insert([2, 1]) and s.rows == [[1, 2]]
    assert reduce([0], [[1, 2]], [2, 1], 3) == [0, 0]
    assert fold.reduce([(1, 0, [1, 2])], [2, 1], 3) == ([0, 0], 1)
    assert not fold.append(F, [(1, 0, [1, 2])], [2, 1], 0)


@pytest.mark.parametrize("char", [2, 3, 5])
def test_prime_field_entries_are_ints_below_p(char):
    """Every stored scalar over GF(p) is an int in [0, p): the reductions reach every site."""
    field = field_for_characteristic(char)
    p = make_family("U", m=2, n=2).presentation
    T = RadicalTable(knit(p, field))
    M = T.nodes[5].module
    matrices = [b for a in T.quiver.arrows for b in a.morphism.blocks.values()]
    matrices += list(tau_oracle(p, M, field).maps.values())
    entries = [x for m in matrices for r in m.rows for x in r]
    entries += [x for rows in table_rows(T).values() for _, _, row in rows for x in row]
    entries += [x for f in end_radical(M.rep) for x in f.flatten()]
    entries += [x for f in hom_basis(M.rep, T.nodes[7].module.rep).basis for x in f.flatten()]
    degrees = [T.degree(a.morphism, side, T.nodes[a.source], T.nodes[a.target])
               for a in T.quiver.arrows for side in ("left", "right")]
    entries += [x for d in degrees if d.is_finite for x in d.witness.flatten()]
    assert any(d.is_finite for d in degrees)
    assert entries and all(type(x) is int and 0 <= x < char for x in entries)


def _division_scopes(tree):
    """The enclosing `Class.function` of every `/` in a module's syntax tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_field_inverses_divide():
    """`int / int` is a float, so every division must go through `field.inv`."""
    found = [
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in _division_scopes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("fields.py", "Rationals.inv")]


@pytest.mark.parametrize("name", list(LADDER))
def test_ladder_entries_are_ints_over_qq(name):
    family, m, n = LADDER[name]
    T = RadicalTable(knit(make_family(family, m=m, n=n).presentation))
    arrows = [x for a in T.quiver.arrows for b in a.morphism.blocks.values()
              for row in b.rows for x in row]
    rows = [x for rows in table_rows(T).values() for _, _, row in rows for x in row]
    assert arrows and rows
    assert {type(x) for x in arrows} == {type(x) for x in rows} == {int}


def test_knit_over_prime_field(w3):
    F = field_for_characteristic(32003)
    G = knit(w3, F)
    assert len(G.nodes) == 12 and len(G.arrows) == 16


def test_witness_depth_over_prime_field(w3):
    F = field_for_characteristic(32003)
    G = knit(w3, F)
    T = RadicalTable(G)

    def arrow(src, dst):
        s, d = G.node_of(walk_from_text(src)), G.node_of(walk_from_text(dst))
        return G.arrows_between(s.index, d.index)[0].morphism

    f1 = arrow("b2", "e(2)")
    f2 = arrow("e(2)", "b1^- a b1")
    f3 = arrow("b1^- a b1", "a b1")
    rho = compose_chain([
        arrow("b1^- a b1", "a^- b1"), arrow("a^- b1", "b1"), arrow("b1", "b1^- a b1"),
    ])
    total = compose_chain([f1, f2.add(rho.compose(f2)), f3])
    src = G.node_of(walk_from_text("b2"))
    dst = G.node_of(walk_from_text("a b1"))
    assert T.depth(total, src, dst) == 6


def test_realize_rejects_invalid_string(w3):
    with pytest.raises(NotAStringError):
        realize(w3, walk_from_text("b1 b2"))
    with pytest.raises(NotAStringError):
        realize(w3, walk_from_text("b1 b1^-"))
