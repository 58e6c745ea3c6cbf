import ast
import pathlib
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
from stringar.families import make_family
from stringar.fields import Mat, QQ, PrimeField, Subspace, nullspace, rref, solve
from stringar.radical import RadicalTable
from tests.conftest import LADDER

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stringar"


def test_rref_rank_kernel():
    m = Mat.from_int_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    ker = nullspace(m)
    assert len(ker) == 1
    for row in m.rows:
        s = sum((a * b for a, b in zip(row, ker[0])), Fraction(0))
        assert s == 0


def test_solve_consistent_and_inconsistent():
    m = Mat.from_int_rows(QQ, [[1, 1], [0, 1]])
    x = solve(m, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    m2 = Mat.from_int_rows(QQ, [[1, 1], [2, 2]])
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
    assert (x * x).v == 2
    assert (x / F.of(5)).v == (3 * pow(5, -1, 7)) % 7
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
    assert F.inv(F.of(3)) * F.of(3) == F.one()
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero())


def test_integer_input_is_reduced_without_floats():
    s = Subspace(QQ, 2, [[2, 1]])
    assert s.rows == [[1, Fraction(1, 2)]]
    pivots, rows = rref([[2, 1], [4, 3]], QQ)
    assert (pivots, rows) == ([0, 1], [[1, 0], [0, 1]])
    x = solve(Mat.from_int_rows(QQ, [[2, 0], [0, 3]]), [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 3)]
    assert not any(isinstance(a, float) for a in [*s.rows[0], *rows[0], *rows[1], *x])


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
    assert found == [("fields.py", "Rationals.inv"), ("fields.py", "PrimeField.inv")]


@pytest.mark.parametrize("name", list(LADDER))
def test_ladder_entries_are_ints_over_qq(name):
    family, m, n = LADDER[name]
    T = RadicalTable(knit(make_family(family, m=m, n=n).presentation))
    arrows = [x for a in T.quiver.arrows for b in a.morphism.blocks.values()
              for row in b.rows for x in row]
    rows = [x for rows in T._tagged.values() for _, _, row in rows for x in row]
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
