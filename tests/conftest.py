import contextlib
import signal
import time

import pytest

from stringar import knit, parse_presentation
from stringar.families import make_family
from stringar.radical import RadicalTable

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
