import contextlib
import signal
import time

import pytest

from stringar import knit, parse_presentation
from stringar.families import make_family
from stringar.fields import Subspace
from stringar.modules import flat_offsets
from stringar.radical import RadicalTable


def _flat_cells(M, N, offsets, run):
    """The flat indices where the graph map M -> N of a run is 1; offsets is
    `flat_offsets(M.rep, N.rep)[0]`."""
    s, t, d, k = run
    return [offsets[v] + N.basis[t + d * i][1] * M.rep.dims[v] + j
            for i, (v, j) in enumerate(M.basis[s : s + k])]


def pair_rows(T, xi, yi):
    """The rows (level, pivot, unit vector) of the runs of the pair (xi, yi) of
    the RadicalTable T, deepest level first, then by pivot: each layer's RREF
    basis, written from the runs with no `flatten`, so an oracle for the order
    of `T.layer`."""
    M, N, rows = T.nodes[xi].module, T.nodes[yi].module, []
    offsets, size = flat_offsets(M.rep, N.rep)
    for run, m in T._runs(xi, yi).items():
        row, cells = [0] * size, _flat_cells(M, N, offsets, run)
        for c in cells:
            row[c] = 1
        rows.append((m, min(cells), row))
    return sorted(rows, key=lambda row: (-row[0], row[1]))


def reaches(T, xi, yi, n):
    """True when rad^n(x, y) != 0 for node indices xi, yi of the RadicalTable
    T; n = 0 asks Hom(x, y) != 0.  Its basis is the runs of level n or more."""
    return any(m >= n for m in T._runs(xi, yi).values())


def table_rows(T):
    """{(source, target index): its `pair_rows`} of the RadicalTable T, every
    source built: the whole table as the row pins read it."""
    for x in T.nodes:
        T._level(x.index)
    return {key: pair_rows(T, *key) for key in T._pairs}


def layer_space(T, x, y, n):
    """rad^n(x, y) as a Subspace: the span of the flat vectors of `T.layer`."""
    rows = [g.flatten() for g in T.layer(x, y, n)]
    return Subspace(T.field, flat_offsets(x.module.rep, y.module.rep)[1], rows)


W3_SOURCE = """\
algebra W3
vertices 1 2 3 4
arrow a 1 -> 1
arrow b1 1 -> 2
arrow b2 2 -> 3
arrow b3 3 -> 4
relation a a
relation b1 b2
"""

# one shortcut arrow next to a two-arrow route, the shortcut continuation dies
EX3_SOURCE = """\
algebra EX3
vertices 1 2 3 4
arrow g1 1 -> 2
arrow g2 2 -> 3
arrow al 1 -> 3
arrow be 3 -> 4
relation al be
"""

# loop with an incoming bridge: the translate-periodic pattern
LOOP_IN_SOURCE = """\
algebra LOOPIN
vertices 1 2
arrow a 1 -> 1
arrow b 2 -> 1
relation a a
"""

# two parallel arrows: bands, and meshes whose two middle terms are one module
KRONECKER_SOURCE = """\
algebra KRON
vertices 1 2
arrow a 1 -> 2
arrow b 1 -> 2
"""



TEST_DEADLINE = 120  # seconds per test; the slowest takes about 11 s


@contextlib.contextmanager
def _deadline(seconds=5):
    """Raise TimeoutError in the block once it has run for seconds, by SIGALRM;
    where SIGALRM does not exist, run it with no deadline.  An enclosing
    deadline's alarm is set again on exit to what is left of it."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(*_):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)  # what the enclosing alarm had left
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Every test fails after TEST_DEADLINE seconds instead of hanging the
    suite, also in the set-up of a session or module fixture it is first to use."""
    with _deadline(TEST_DEADLINE):
        yield


# the benchmark's ladder inputs, by make_family parameters
LADDER = {
    "W3": ("W", None, 3), "W5": ("W", None, 5), "W7": ("W", None, 7), "W9": ("W", None, 9),
    "U2_2": ("U", 2, 2), "U3_3": ("U", 3, 3), "U4_4": ("U", 4, 4),
    "V2_3": ("V", 2, 3), "V3_4": ("V", 3, 4),
}


@pytest.fixture(scope="session")
def w3():
    return parse_presentation(W3_SOURCE)


@pytest.fixture(scope="session")
def ex3():
    return parse_presentation(EX3_SOURCE)


@pytest.fixture(scope="session")
def loop_in():
    return parse_presentation(LOOP_IN_SOURCE)


@pytest.fixture(scope="session")
def u21():
    return make_family("U", m=2, n=2).presentation


@pytest.fixture(scope="session")
def u22():
    return make_family("U", m=2, n=3).presentation


@pytest.fixture(scope="session")
def u31():
    return make_family("U", m=3, n=2).presentation


@pytest.fixture(scope="session")
def v21():
    return make_family("V", m=2, n=3).presentation


@pytest.fixture(scope="session")
def w3_quiver(w3):
    return knit(w3)


@pytest.fixture(scope="session")
def w3_table(w3_quiver):
    return RadicalTable(w3_quiver)


@pytest.fixture(scope="session")
def u21_quiver(u21):
    return knit(u21)


@pytest.fixture(scope="session")
def u21_table(u21_quiver):
    return RadicalTable(u21_quiver)
