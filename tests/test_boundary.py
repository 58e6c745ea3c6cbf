"""Entry points that build standard words or meshes refuse a bad presentation
with a domain error code, before any work that assumes a finite-dimensional
string algebra: that work can fail with an internal-bug code, or never end.

Every call runs under a SIGALRM deadline, so a call that never returns
fails here instead of hanging the suite.
"""

import signal

import pytest

from stringar import parse_presentation
from stringar.artheory import ar_sequence
from stringar.configurations import find_tau_arrows
from stringar.errors import InfiniteDimensionalError, NotStringAlgebraError
from stringar.modules import injective_word, projective_word, standard_module
from stringar.strings import walk_from_text
from tests.conftest import TEST_DEADLINE, _deadline

# vertex 2 emits three arrows, fails condition (1); reversed, it fails (1')
THREE_OUT = "vertices 1 2 3 4\narrow a 2 -> 1\narrow b 2 -> 3\narrow c 2 -> 4\n"
THREE_IN = "vertices 1 2 3 4\narrow a 1 -> 2\narrow b 3 -> 2\narrow c 4 -> 2\n"
# a b and a c are both nonzero: condition (2') fails
TWO_SUCCESSORS = "vertices 1 2 3\narrow a 1 -> 2\narrow b 2 -> 3\narrow c 2 -> 3\n"
# a string algebra with a loop a and no relation a a: a a a ... never ends
LOOP = "vertices 1 2\narrow a 1 -> 1\narrow b 1 -> 2\nrelation a b\n"


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM, so no deadline")
def test_a_deadline_expires_and_restores_the_test_deadline():
    """The block past its deadline raises; the per-test alarm then runs on."""
    with pytest.raises(TimeoutError, match="no answer within 0.05 s"), _deadline(0.05):
        while True:
            pass
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert TEST_DEADLINE - 5 < left <= TEST_DEADLINE


@pytest.mark.parametrize("side", ["startingAt", "endingAt"])
@pytest.mark.parametrize("walk", ["trivial", "arrow"])
@pytest.mark.parametrize("src, trivial", [(THREE_OUT, "e(1)"), (THREE_IN, "e(2)")],
                         ids=["three-out", "three-in"])
def test_ar_sequence_rejects_a_non_string_algebra_on_either_side(src, trivial, walk, side):
    p = parse_presentation(src)
    with _deadline(), pytest.raises(NotStringAlgebraError):
        ar_sequence(p, walk_from_text(trivial if walk == "trivial" else "a"), side)


STANDARD_CALLS = {
    "projective_word": lambda p: projective_word(p, "1"),
    "injective_word": lambda p: injective_word(p, "1"),
    "standard_module-projective": lambda p: standard_module(p, "1", "projective"),
    "standard_module-injective": lambda p: standard_module(p, "1", "injective"),
    "find_tau_arrows": lambda p: find_tau_arrows(p, candidates=[]),
}


@pytest.mark.parametrize("src, error", [(LOOP, InfiniteDimensionalError),
                                        (TWO_SUCCESSORS, NotStringAlgebraError)],
                         ids=["infinite", "two-successors"])
@pytest.mark.parametrize("call", list(STANDARD_CALLS))
def test_standard_words_reject_a_bad_presentation(call, src, error):
    p = parse_presentation(src)
    with _deadline(), pytest.raises(error):
        STANDARD_CALLS[call](p)
