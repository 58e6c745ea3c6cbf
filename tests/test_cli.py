import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from stringar import families, knit, parse_presentation
from stringar.cli import main
from stringar.radical import RadicalTable
from stringar.strings import walk_from_text
from tests.conftest import EX3_SOURCE, W3_SOURCE

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def w3_file(tmp_path):
    f = tmp_path / "w3.alg"
    f.write_text(W3_SOURCE)
    return str(f)


@pytest.fixture()
def ex3_file(tmp_path):
    f = tmp_path / "ex3.alg"
    f.write_text(EX3_SOURCE)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys, w3_file):
    code, out, _ = run(capsys, "validate", w3_file)
    assert code == 0
    assert "string algebra" in out
    assert "nonzero paths: 10" in out


def test_strings_json(capsys, w3_file):
    code, out, _ = run(capsys, "strings", w3_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["strings"]) == 12


def test_bands(capsys, ex3_file):
    code, out, _ = run(capsys, "bands", ex3_file, "--max-len", "6")
    assert code == 0
    assert out.strip()  # the cycle through the parallel route


def test_module_and_tau(capsys, w3_file):
    code, out, _ = run(capsys, "module", w3_file, "b2 b3")
    assert code == 0 and "dims" in out
    code, out, _ = run(capsys, "tau", w3_file, "e(2)")
    assert code == 0 and out.strip() == "e(3)"


def test_tau_orbit(capsys, w3_file):
    code, out, _ = run(capsys, "tau-orbit", w3_file, "e(2)", "--steps", "5")
    assert code == 0
    assert "e(2) -> e(3) -> e(4)" in out and "projective" in out


def test_knit_dot_census(capsys, w3_file):
    code, out, _ = run(capsys, "knit", w3_file, "--dot")
    assert code == 0
    assert out.count("style=dotted") == 8
    assert out.count(" -> ") == 24


def test_knit_json_matches_family_flag(capsys, w3_file):
    code1, out1, _ = run(capsys, "knit", w3_file, "--json")
    code2, out2, _ = run(capsys, "knit", "--family", "W", "--n", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_hom(capsys, w3_file):
    code, out, _ = run(capsys, "hom", w3_file, "e(4)", "b3")
    assert code == 0 and "dim Hom = 1" in out


def test_radical_profile(capsys, w3_file):
    code, out, _ = run(capsys, "radical-profile", w3_file, "b2", "a b1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["layerDims"][6] == 1
    assert data["layerDims"][7] == 0


def test_depth_path(capsys, w3_file):
    code, out, _ = run(capsys, "depth", w3_file, "e(4)", "b3", "b2 b3")
    assert code == 0 and out.strip() == "2"


def test_depth_builds_only_the_first_source(capsys, monkeypatch, w3_file):
    """depth reads rad(x, y) for the path's ends, so only x's rows are built."""
    built, build = [], RadicalTable._build

    def recorded(self, xi, side):
        built.append(self.nodes[xi].text)
        return build(self, xi, side)

    monkeypatch.setattr(RadicalTable, "_build", recorded)
    words = ("e(4)", "b3", "b2 b3")
    code, out, _ = run(capsys, "depth", w3_file, *words)
    assert code == 0 and out.strip() == "2"
    first = knit(parse_presentation(W3_SOURCE)).node_of(walk_from_text(words[0]))
    assert built == [first.text]


def test_depth_family_matches_file(capsys, w3_file):
    words = ("e(4)", "b3", "b2 b3")
    code, out, _ = run(capsys, "depth", "--family", "W", "--n", "3", *words)
    assert code == 0
    assert (code, out) == run(capsys, "depth", w3_file, *words)[:2]


def test_degree_theta(capsys):
    code, out, _ = run(
        capsys, "degree", "--family", "U", "--m", "2", "--n", "2",
        "--theta", "a2", "--side", "left",
    )
    assert code == 0 and out.strip() == "d_l = 3"


def test_cg_quiver(capsys):
    code, out, _ = run(
        capsys, "cg-quiver", "--family", "U", "--m", "2", "--n", "2",
        "--vertex", "a2", "--side", "ending", "--json",
    )
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 4


def test_detect(capsys, ex3_file):
    code, out, _ = run(capsys, "detect", ex3_file, "--json")
    assert code == 0
    assert any(m["pattern"] == "Q3" for m in json.loads(out)["matches"])


def test_audit_exit_zero_and_deterministic(capsys, w3_file):
    code1, out1, _ = run(capsys, "audit", w3_file, "--samples", "4", "--seed", "7", "--json")
    code2, out2, _ = run(capsys, "audit", w3_file, "--samples", "4", "--seed", "7", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_witness_u23_json(capsys):
    code, out, _ = run(
        capsys, "witness", "--family", "U", "--m", "2", "--n", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["expectedDepth"] == 7
    assert data["verified"] is True


def test_family_prints_source(capsys):
    code, out, _ = run(capsys, "family", "--family", "W", "--n", "3")
    assert code == 0
    assert out == W3_SOURCE


def test_domain_error_exit_one(capsys, ex3_file):
    code, _, err = run(capsys, "strings", ex3_file)
    assert code == 1
    assert "band" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("depth", "zz", "b3"), "[unknown-label] unknown arrow label 'zz'"),
        (("degree", "--side", "left", "--source", "zz", "--target", "b3"),
         "[unknown-label] unknown arrow label 'zz'"),
        (("radical-profile", "e(9)", "b3"), "[unknown-label] unknown vertex '9'"),
        (("radical-profile", "b1 b2", "b3"),
         "[not-a-string] b1 b2: subwalk is the relation b1 b2 (letter 0)"),
        (("degree", "--side", "left", "--theta", "9"), "[unknown-label] unknown vertex '9'"),
        (("degree", "--side", "right", "--iota", "9"), "[unknown-label] unknown vertex '9'"),
        (("cg-quiver", "--vertex", "9", "--side", "ending"),
         "[unknown-label] unknown vertex '9'"),
    ],
)
def test_bad_word_or_vertex_is_a_domain_error(capsys, w3_file, argv, message):
    code, out, err = run(capsys, argv[0], w3_file, *argv[1:])
    assert (code, out, err) == (1, "", f"stringar: {message}\n")


def test_char_two_audit_and_witness(capsys):
    code, out, _ = run(capsys, "audit", "--family", "U", "--m", "2", "--n", "2",
                       "--char", "2", "--samples", "4")
    assert code == 0 and out.endswith("PASS\n")
    code, out, _ = run(capsys, "witness", "--family", "W", "--n", "3", "--char", "2")
    assert code == 0 and "depths: total=6" in out


def test_usage_error_exit_three(w3_file):
    with pytest.raises(SystemExit) as exc:
        main(["degree", w3_file])  # --side is required
    assert exc.value.code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (("witness", "--family", "W", "--n", "2"), "W-family witness chains need n >= 3"),
        (("witness", "--family", "U", "--m", "2"), "the U family needs m, n >= 2"),
        (("family", "--family", "W", "--n", "0"), "the W family needs n >= 2"),
        (("knit", "--family", "W", "--n", "3", "--char", "4"), "4 is not prime"),
        (("audit", "--family", "W", "--n", "3", "--samples", "0"),
         "--samples must be at least 1, got 0"),
        (("audit", "--family", "W", "--n", "3", "--samples", "-1"),
         "--samples must be at least 1, got -1"),
        (("tau-orbit", "--family", "W", "--n", "3", "e(2)", "--steps", "-1"),
         "--steps must be at least 0, got -1"),
        (("strings", "--family", "W", "--n", "3", "--max-len", "-1"),
         "--max-len must be at least 0, got -1"),
        (("bands", "--family", "W", "--n", "3", "--max-len", "-1"),
         "--max-len must be at least 0, got -1"),
    ],
    ids=["witness-W2", "witness-U-no-n", "family-W0", "knit-char4", "audit-samples0",
         "audit-samples-1", "tau-orbit-steps-1", "strings-max-len-1", "bands-max-len-1"],
)
def test_bad_parameters_are_usage_errors(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(families, "knit", lambda *a: pytest.fail("knitted a rejected input"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"stringar: usage error: {message}\n")


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_degree_bound_below_nilpotency_is_a_usage_error(capsys, bound):
    code, out, err = run(
        capsys, "degree", "--family", "U", "--m", "2", "--n", "2",
        "--theta", "a2", "--side", "left", "--bound", bound,
    )
    assert (code, out) == (3, "")
    assert err == (
        f"stringar: usage error: degree bound {bound} is below the nilpotency index 7; "
        "no witness found, result inconclusive\n"
    )


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (("--iota", "1"), "rad P(1) -> P(1) is not irreducible: rad P(1) has 2"),
        (("--iota", "x"), "rad P(x) -> P(x) is not irreducible: rad P(x) has 0"),
        (("--theta", "x"), "I(x) -> I(x)/soc is not irreducible: I(x)/soc has 2"),
        (("--theta", "1"), "I(1) -> I(1)/soc is not irreducible: I(1)/soc has 0"),
    ],
)
def test_reducible_standard_map_is_a_domain_error(capsys, side, argv, message):
    code, out, err = run(
        capsys, "degree", "--family", "U", "--m", "2", "--n", "2", *argv, "--side", side
    )
    assert (code, out) == (1, "")
    assert err == f"stringar: [not-irreducible] {message} indecomposable summands\n"


def test_missing_input_exit_three(capsys):
    code, _, err = run(capsys, "strings")
    assert code == 3 and "no input" in err


def test_both_inputs_exit_three(capsys, w3_file):
    code, _, err = run(capsys, "strings", w3_file, "--family", "W", "--n", "3")
    assert code == 3 and "not both" in err


def test_output_file(capsys, w3_file, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "knit", w3_file, "--dot", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().count("style=dotted") == 8


def test_char_flag(capsys, w3_file):
    code, out, _ = run(capsys, "strings", w3_file, "--char", "5", "--json")
    assert code == 0
    assert len(json.loads(out)["strings"]) == 12


def test_output_dir_env(capsys, w3_file, tmp_path, monkeypatch):
    monkeypatch.setenv("STRINGAR_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "strings", w3_file, "--output", "census.txt")
    assert code == 0 and out == ""
    assert (tmp_path / "census.txt").read_text().count("\n") == 12


# three arrows out of vertex 1 break condition (1)
THREE_OUT_SOURCE = """\
algebra BAD
vertices 1 2 3 4
arrow a 1 -> 2
arrow b 1 -> 3
arrow c 1 -> 4
"""


@pytest.fixture()
def three_out_file(tmp_path):
    f = tmp_path / "bad.alg"
    f.write_text(THREE_OUT_SOURCE)
    return str(f)


@pytest.mark.parametrize(
    "argv",
    [["strings"], ["knit"], ["audit"], ["tau", "a"], ["module", "a"], ["hom", "a", "b"],
     ["detect"]],
    ids=lambda argv: argv[0],
)
def test_non_string_algebra_is_rejected(capsys, three_out_file, argv):
    code, out, err = run(capsys, argv[0], three_out_file, *argv[1:])
    assert (code, out) == (1, "")
    assert err == (
        "stringar: [not-string-algebra] not a string algebra: "
        "condition (1) fails: vertex 1 emits >2 arrows\n"
    )


def test_validate_reports_a_non_string_algebra(capsys, three_out_file):
    code, out, _ = run(capsys, "validate", three_out_file)
    assert code == 0
    assert out == (
        "algebra BAD\n"
        "  condition (1): FAIL: vertex 1 emits >2 arrows\n"
        "  condition (1'): pass\n"
        "  condition (2): pass\n"
        "  condition (2'): pass\n"
        "  condition (3): pass\n"
        "NOT a string algebra\n"
        "nonzero paths: 7\n"
    )


def test_consecutive_calls_match_fresh_runs(w3_file):
    """The parser is built once per process; later calls answer as a fresh process does."""
    calls = [
        ["hom", w3_file],  # usage error: the target word is missing
        ["strings", w3_file, "--max-len", "2"],
        ["hom", w3_file, "e(4)", "b3", "--json"],
    ]
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    codes = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        fresh = subprocess.run(
            [sys.executable, "-m", "stringar.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
        codes.append(code)
    assert codes == [3, 0, 0]
    assert json.loads(out.getvalue())["dimension"] == 1


# a loop with no relation on itself: finite-dimensional only away from vertex 1
INFINITE_SOURCE = """\
vertices 1 2
arrow a 1 -> 1
arrow b 1 -> 2
relation a b
"""


@pytest.mark.parametrize(
    "argv",
    [["tau", "b"], ["tau", "a"], ["tau-orbit", "b", "--steps", "2"],
     ["tau-orbit", "e(2)", "--steps", "1"]],
    ids=lambda argv: " ".join(argv),
)
def test_translates_need_a_finite_dimensional_algebra(capsys, tmp_path, argv):
    f = tmp_path / "inf.alg"
    f.write_text(INFINITE_SOURCE)
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "stringar: [infinite-dimensional] cannot translate: infinitely many nonzero paths\n"


def test_knit_on_an_infinite_dimensional_algebra_finds_its_band(capsys, tmp_path):
    f = tmp_path / "inf.alg"
    f.write_text(INFINITE_SOURCE)
    code, out, err = run(capsys, "knit", str(f))
    assert (code, out) == (1, "")
    assert err == "stringar: [band-found] cannot knit: the presentation has bands\n"


def test_unreadable_presentation_is_a_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "nonexist.alg")
    code, out, err = run(capsys, "module", missing, "a")
    assert (code, out) == (3, "")
    assert err == f"stringar: usage error: cannot read {missing}: No such file or directory\n"
    bad = tmp_path / "latin1.alg"
    bad.write_bytes(b"algebra \xe9\nvertices 1\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (3, "")
    assert err.startswith(f"stringar: usage error: cannot read {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1
    code, _, err = run(capsys, "strings", str(tmp_path))
    assert (code, err) == (3, f"stringar: usage error: cannot read {tmp_path}: Is a directory\n")


def test_unwritable_output_is_a_usage_error(capsys, w3_file, tmp_path):
    target = str(tmp_path / "nonexistent" / "x")
    code, out, err = run(capsys, "knit", w3_file, "--output", target)
    assert (code, out) == (3, "")
    assert err == f"stringar: usage error: cannot write {target}: No such file or directory\n"
    code, _, err = run(capsys, "knit", w3_file, "--output", str(tmp_path))
    assert (code, err) == (3, f"stringar: usage error: cannot write {tmp_path}: Is a directory\n")
