"""Outputs pinned by sha256 digests, order included.

The digests were captured when tau orbits were still checked by DTr and
the local patterns, the string-algebra conditions and the degree search
still had one body per direction; the mesh-checked orbits and the folded
bodies must give the same bytes.
"""

import contextlib
import functools
import hashlib
import io
import json
import os

import pytest

from stringar import cli, configurations
from stringar.artheory import tau_orbit
from stringar.configurations import audit_theorems, detect_local_patterns
from stringar.errors import StringAlgebraError
from stringar.families import make_family, witness
from stringar.fields import field_for_characteristic
from stringar.modules import realize
from stringar.presentation import (
    has_unbounded_paths,
    nonzero_path_count,
    nonzero_paths_from,
    parse_presentation,
    serialize_presentation,
    validate_string_algebra,
)
from stringar.strings import enumerate_strings, find_bands, has_band, walk_to_text
from tests.conftest import EX3_SOURCE, KRONECKER_SOURCE, W3_SOURCE, table_rows
from tests.test_stress import _band_free_algebras, random_presentations


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=False).encode()).hexdigest()


def _presentation(name):
    sources = {"W3": W3_SOURCE, "EX3": EX3_SOURCE, "KRON": KRONECKER_SOURCE}
    if name in sources:
        return parse_presentation(sources[name])
    fam, nums = name[0], [int(x) for x in name[1:].split("_")]
    if fam == "W":
        return make_family("W", n=nums[0]).presentation
    return make_family(fam, m=nums[0], n=nums[1]).presentation


@functools.lru_cache(maxsize=None)
def _generated():
    return tuple(random_presentations(20261018, 3000))


def _detect_or_error(p):
    try:
        return [m.as_dict() for m in detect_local_patterns(p)]
    except StringAlgebraError as exc:
        return exc.code


def test_generated_presentations_cover_every_pattern_and_condition():
    found = {
        d["pattern"] for out in map(_detect_or_error, _generated())
        if isinstance(out, list) for d in out
    }
    assert found == {"Q1", "Q2", "loop-out", "loop-in", "Q3", "Q4"}
    failed = {
        c.key for p in _generated() for c in validate_string_algebra(p).conditions if not c.passed
    }
    assert failed == {"1", "1'", "2", "2'"}


def detect_digest():
    return _digest([_detect_or_error(p) for p in _generated()])


def validate_digest():
    return _digest([validate_string_algebra(p).as_dict() for p in _generated()])


def test_detect_is_pinned():
    assert detect_digest() == DETECT_DIGEST


def test_validate_is_pinned():
    assert validate_digest() == VALIDATE_DIGEST


def word_layer_digest():
    """The word layer on the string algebras among the first 800 generated
    presentations: bands, unbounded paths, strings (length at most 4 where
    there are bands), bands up to length 6, the path count and, where it is
    finite, the paths from each vertex."""
    out = []
    for p in _generated()[:800]:
        if not validate_string_algebra(p).is_string_algebra:
            continue
        banded, unbounded = has_band(p), has_unbounded_paths(p)
        strings = enumerate_strings(p, max_len=4 if banded else None)
        paths = None if unbounded else [nonzero_paths_from(p, v) for v in p.quiver.vertices]
        out.append([
            banded, unbounded, [walk_to_text(w.walk) for w in strings],
            [walk_to_text(b) for b in find_bands(p, 6)], str(nonzero_path_count(p)), paths,
        ])
    return _digest(out)


def test_word_layer_is_pinned():
    assert word_layer_digest() == WORD_LAYER_DIGEST


ORBIT_ALGEBRAS = ["W3", "U2_2", "EX3", "V2_3", "U3_3", "KRON"]


def orbit_digest(name, char):
    """Six steps from every string (length at most 3 where there are bands)."""
    p, field = _presentation(name), field_for_characteristic(char)
    words = enumerate_strings(p, max_len=3 if has_band(p) else None)
    orbits = []
    for w in words:
        orbit = tau_orbit(p, realize(p, w.walk, field), 6, field)
        orbits.append([[walk_to_text(m.word.walk) for m in orbit.modules], orbit.hit_projective])
    return _digest(orbits)


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("name", ORBIT_ALGEBRAS)
def test_tau_orbits_are_pinned(name, char):
    assert orbit_digest(name, char) == ORBIT_DIGESTS[f"{name}@{char}"]


DEGREE_ALGEBRAS = ["W3", "W5", "U2_2", "U3_3", "V2_3"]


def degree_digest(name, tmp_path, monkeypatch):
    """`degree --json` through the CLI, both sides: every AR arrow, then
    `--iota u` and `--theta u` for every vertex u (some are domain errors).

    The quiver and its table are built once per algebra (the CLI builds them
    per command); every other step is the command's own.
    """
    path = os.path.join(tmp_path, name + ".alg")
    p = _presentation(name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_presentation(p))
    knit = functools.lru_cache(maxsize=None)(cli.knit)
    monkeypatch.setattr(cli, "knit", knit)
    monkeypatch.setattr(cli, "RadicalTable", functools.lru_cache(maxsize=None)(cli.RadicalTable))
    G = knit(p, field_for_characteristic(0))
    maps = [["--source", G.nodes[a.source].text, "--target", G.nodes[a.target].text] for a in G.arrows]
    maps += [[flag, v] for flag in ("--iota", "--theta") for v in p.quiver.vertices]
    outputs = []
    for args in maps:
        for side in ("left", "right"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["degree", path, *args, "--side", side, "--json"])
            outputs.append([rc, out.getvalue(), err.getvalue()])
    return _digest(outputs)


@pytest.mark.parametrize("name", DEGREE_ALGEBRAS)
def test_degree_json_is_pinned(name, tmp_path, monkeypatch):
    assert degree_digest(name, tmp_path, monkeypatch) == DEGREE_DIGESTS[name]


AUDIT_ALGEBRAS = ["W3", "W5", "U2_2", "U3_4", "V2_3"] + [f"S{i}" for i in range(8)]
AUDIT_GRID = [(seed, samples) for seed in (0, 1, 2) for samples in (1, 5, 32)]


def _audit_presentation(name):
    if name.startswith("S"):
        return _band_free_algebras()[int(name[1:])]
    return _presentation(name)


def _share_quivers(monkeypatch):
    """Knit and tabulate each algebra once; every audit of it reuses both."""
    monkeypatch.setattr(configurations, "knit", functools.lru_cache(maxsize=None)(configurations.knit))
    monkeypatch.setattr(
        configurations, "RadicalTable", functools.lru_cache(maxsize=None)(configurations.RadicalTable)
    )


def audit_digest(name, char, monkeypatch):
    """`audit_theorems(...).as_dict()` for seeds 0-2 and samples 1, 5 and 32."""
    _share_quivers(monkeypatch)
    p, field = _audit_presentation(name), field_for_characteristic(char)
    return _digest([audit_theorems(p, samples=n, seed=s, field=field).as_dict() for s, n in AUDIT_GRID])


@pytest.mark.parametrize("char", [0, 2, 3, 5])
@pytest.mark.parametrize("name", AUDIT_ALGEBRAS)
def test_audits_are_pinned(name, char, monkeypatch):
    assert audit_digest(name, char, monkeypatch) == AUDIT_DIGESTS[f"{name}@{char}"]


def audit_cli_digest(name, monkeypatch):
    """`audit --json` through the CLI over QQ, GF(2), GF(3) and GF(5), same grid."""
    _share_quivers(monkeypatch)
    fam, nums = name[0], [int(x) for x in name[1:].split("_")]
    sizes = ["--n", str(nums[0])] if fam == "W" else ["--m", str(nums[0]), "--n", str(nums[1])]
    outputs = []
    for char in (0, 2, 3, 5):
        for seed, samples in AUDIT_GRID:
            argv = ["audit", "--family", fam, *sizes, "--char", str(char), "--seed", str(seed),
                    "--samples", str(samples), "--json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            outputs.append([rc, out.getvalue(), err.getvalue()])
    return _digest(outputs)


@pytest.mark.parametrize("name", AUDIT_ALGEBRAS[:5])
def test_audit_json_is_pinned(name, monkeypatch):
    assert audit_cli_digest(name, monkeypatch) == AUDIT_CLI_DIGESTS[name]


# captured before the refactor
def table_digest(name, char):
    """Every stored row of RadicalTable, with its tag and pivot, per node pair."""
    from stringar import RadicalTable, knit

    p = _band_free_algebras()[int(name[1:])] if name.startswith("S") else _presentation(name)
    T = RadicalTable(knit(p, field_for_characteristic(char)))
    tagged = table_rows(T)
    rows = {f"{xi},{yi}": [[t, pv, [str(x) for x in row]] for t, pv, row in tagged[(xi, yi)]]
            for xi, yi in sorted(tagged)}
    return _digest([T.nilpotency, rows])


TABLE_ALGEBRAS = ["W3", "W5", "W7", "W9", "U2_2", "U3_3", "U4_4", "V2_3", "V3_4",
                  "S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7"]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_radical_table_rows_are_pinned(char):
    """The table's rows, captured while _build still composed MorphismMatrix objects."""
    got = {name: table_digest(name, char)[:16] for name in TABLE_ALGEBRAS}
    assert got == TABLE_DIGESTS


def knit_map_digest(name, char):
    """`knit(...).to_json()`, then every arrow map and every mesh's left and
    right maps as their sorted nonzeros, keyed by node words.  Row spaces
    (`table_digest`) do not see a sign or a permuted coordinate; these do."""
    from stringar import knit

    q = knit(_audit_presentation(name), field_for_characteristic(char))
    word = lambda i: q.nodes[i].text

    def entries(f):
        return sorted([v, i, j, q.field.to_str(a)] for v, i, j, a in f.nonzeros)

    arrows = [[word(a.source), word(a.target), entries(a.morphism)] for a in q.arrows]
    meshes = {
        word(x): [[walk_to_text(m.word.walk), entries(l), entries(r)]
                  for m, l, r in zip(seq.middle, seq.left_maps, seq.right_maps)]
        for x, seq in sorted(q.meshes.items())
    }
    return _digest([q.to_json(), arrows, meshes])


KNIT_MAP_CASES = [(name, char) for char in (0, 2, 3) for name in TABLE_ALGEBRAS] + [("W24", 0)]


@pytest.mark.parametrize("name, char", KNIT_MAP_CASES)
def test_knit_maps_are_pinned(name, char):
    """Captured while knit still located shared positions by identity tokens
    (GF(2) after it placed them on one line of positions)."""
    assert knit_map_digest(name, char)[:16] == KNIT_MAP_DIGESTS[f"{name}@{char}"]


WITNESS_GRID = (
    [("W", None, n) for n in range(3, 16)]
    + [("U", m, n) for m in range(2, 7) for n in range(2, 8)]
    + [("V", m, n) for m in range(2, 7) for n in range(3, 8)]
)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_witnesses_are_pinned(char):
    """`witness(...).as_dict()` on W(3..15), U(2..6, 2..7) and V(2..6, 3..7),
    captured while W and U/V still had one search each and V tried its L
    candidates in node order."""
    field = field_for_characteristic(char)
    got = {
        f"{fam}{n}" if fam == "W" else f"{fam}{m}_{n}":
            _digest(witness(make_family(fam, m=m, n=n), field).as_dict())[:16]
        for fam, m, n in WITNESS_GRID
    }
    assert got == WITNESS_DIGESTS


DETECT_DIGEST = "bc81a2a3539924cf3e5fa88347df18358507ac34aa262a7317020f8cac4f86ea"
VALIDATE_DIGEST = "08177cf819143711e41401366770f1c5e0a6e753e14d5606621e5efa825610de"
# captured while strings and direct paths were still grown by separate loops
WORD_LAYER_DIGEST = "8504eed75f36c429ef4da1ba048841703e097305b4cba1f83fad0f0c61257472"
ORBIT_DIGESTS = {
    "W3@0": "3343a7a0ba251bece093d3a858f3bdd91dae8cf0daa8827d038d0cf3b84ac4a8",
    "W3@2": "3343a7a0ba251bece093d3a858f3bdd91dae8cf0daa8827d038d0cf3b84ac4a8",
    "W3@3": "3343a7a0ba251bece093d3a858f3bdd91dae8cf0daa8827d038d0cf3b84ac4a8",
    "U2_2@0": "7a23bf3a3cb74c360b6d78965b9ec6430f86fbeede2a3ff79bb74fcb945e315f",
    "U2_2@2": "7a23bf3a3cb74c360b6d78965b9ec6430f86fbeede2a3ff79bb74fcb945e315f",
    "U2_2@3": "7a23bf3a3cb74c360b6d78965b9ec6430f86fbeede2a3ff79bb74fcb945e315f",
    "EX3@0": "fbd9614b25c1caa781e98ee997e7bfcd2ba3d33885b91d6e2192c71c876ad3f1",
    "EX3@2": "fbd9614b25c1caa781e98ee997e7bfcd2ba3d33885b91d6e2192c71c876ad3f1",
    "EX3@3": "fbd9614b25c1caa781e98ee997e7bfcd2ba3d33885b91d6e2192c71c876ad3f1",
    "V2_3@0": "08b00c6fad53783cc58b86513f16208b08e8fef72823913dcdbb1cd25baad0fc",
    "V2_3@2": "08b00c6fad53783cc58b86513f16208b08e8fef72823913dcdbb1cd25baad0fc",
    "V2_3@3": "08b00c6fad53783cc58b86513f16208b08e8fef72823913dcdbb1cd25baad0fc",
    "U3_3@0": "89857b888dd38275e729aa616dcd97dc18585abb986aa4a5f0230f9e1821f5c2",
    "U3_3@2": "89857b888dd38275e729aa616dcd97dc18585abb986aa4a5f0230f9e1821f5c2",
    "U3_3@3": "89857b888dd38275e729aa616dcd97dc18585abb986aa4a5f0230f9e1821f5c2",
    "KRON@0": "479fc0cdbbf9a0a6e66fe3b15c7e81ac0d53ba670afaa4089ee154889bcf40dc",
    "KRON@2": "479fc0cdbbf9a0a6e66fe3b15c7e81ac0d53ba670afaa4089ee154889bcf40dc",
    "KRON@3": "479fc0cdbbf9a0a6e66fe3b15c7e81ac0d53ba670afaa4089ee154889bcf40dc",
}
DEGREE_DIGESTS = {
    "W3": "57a705de383bc06d4a829cf097687ecedfd5e81e42fce41836d4c2ddebdfeaed",
    "W5": "e7661d8d0d6fe20435e653e9955d4e0867c5abfaeefd0fba745eb087fa64e467",
    "U2_2": "44000d65944f597112b76c01e2cc0ab03b0504af521e9689775e80c6c0993204",
    "U3_3": "f0a385fdbcd87f283a0510e93e4e2cab8ddaba4dd1a953a7f6b45e4acd1024a0",
    "V2_3": "1e3d7aaf60564f43c0b382af1809d7160ea7a2d625d5d26546f19a70f58a59c7",
}
# captured with the per-sample audit loop, before each distinct draw was evaluated once
AUDIT_DIGESTS = {
    "W3@0": "f071dce99ebd45bc5168da7d314a1b5ad6fa4f101f922d2ef1f28d77576fe338",
    "W3@2": "f071dce99ebd45bc5168da7d314a1b5ad6fa4f101f922d2ef1f28d77576fe338",
    "W3@3": "f071dce99ebd45bc5168da7d314a1b5ad6fa4f101f922d2ef1f28d77576fe338",
    "W3@5": "f071dce99ebd45bc5168da7d314a1b5ad6fa4f101f922d2ef1f28d77576fe338",
    "W5@0": "6066d0d0e9f6b4edd91ec04498f2739781c9c5021ef0348de539c74c30c4db38",
    "W5@2": "6066d0d0e9f6b4edd91ec04498f2739781c9c5021ef0348de539c74c30c4db38",
    "W5@3": "6066d0d0e9f6b4edd91ec04498f2739781c9c5021ef0348de539c74c30c4db38",
    "W5@5": "6066d0d0e9f6b4edd91ec04498f2739781c9c5021ef0348de539c74c30c4db38",
    "U2_2@0": "a3664a582cc67d1d0e9cb15edc26cd9dfd9cb6e558f1773300184a342a691111",
    "U2_2@2": "a3664a582cc67d1d0e9cb15edc26cd9dfd9cb6e558f1773300184a342a691111",
    "U2_2@3": "a3664a582cc67d1d0e9cb15edc26cd9dfd9cb6e558f1773300184a342a691111",
    "U2_2@5": "a3664a582cc67d1d0e9cb15edc26cd9dfd9cb6e558f1773300184a342a691111",
    "U3_4@0": "3956cd5ffc3bea570fe00d4bee8784a375544b623417a0f8da4ede006004f351",
    "U3_4@2": "3956cd5ffc3bea570fe00d4bee8784a375544b623417a0f8da4ede006004f351",
    "U3_4@3": "3956cd5ffc3bea570fe00d4bee8784a375544b623417a0f8da4ede006004f351",
    "U3_4@5": "3956cd5ffc3bea570fe00d4bee8784a375544b623417a0f8da4ede006004f351",
    "V2_3@0": "cd1b637a3fb3235f6efe494d111d6c0361131e429870670e0e90c751263d5277",
    "V2_3@2": "cd1b637a3fb3235f6efe494d111d6c0361131e429870670e0e90c751263d5277",
    "V2_3@3": "cd1b637a3fb3235f6efe494d111d6c0361131e429870670e0e90c751263d5277",
    "V2_3@5": "cd1b637a3fb3235f6efe494d111d6c0361131e429870670e0e90c751263d5277",
    "S0@0": "4f042d587e3e27eddfc642cbb3f9f0cc243de5a137aa4d7c15f604426a95ebc6",
    "S0@2": "4f042d587e3e27eddfc642cbb3f9f0cc243de5a137aa4d7c15f604426a95ebc6",
    "S0@3": "4f042d587e3e27eddfc642cbb3f9f0cc243de5a137aa4d7c15f604426a95ebc6",
    "S0@5": "4f042d587e3e27eddfc642cbb3f9f0cc243de5a137aa4d7c15f604426a95ebc6",
    "S1@0": "5347fd6d37e106fa0f32905530141836137bf950a7da0a9b3ddb18bac7dc650a",
    "S1@2": "5347fd6d37e106fa0f32905530141836137bf950a7da0a9b3ddb18bac7dc650a",
    "S1@3": "5347fd6d37e106fa0f32905530141836137bf950a7da0a9b3ddb18bac7dc650a",
    "S1@5": "5347fd6d37e106fa0f32905530141836137bf950a7da0a9b3ddb18bac7dc650a",
    "S2@0": "ada69e39986a2b68657e4f4eed6397fa78b0de8481be7ad18d9050457e39d9d1",
    "S2@2": "ada69e39986a2b68657e4f4eed6397fa78b0de8481be7ad18d9050457e39d9d1",
    "S2@3": "ada69e39986a2b68657e4f4eed6397fa78b0de8481be7ad18d9050457e39d9d1",
    "S2@5": "ada69e39986a2b68657e4f4eed6397fa78b0de8481be7ad18d9050457e39d9d1",
    "S3@0": "9a3c03cc9e9182b4d49c0b73fff14420469f9556353df79528a87ade149ac9ff",
    "S3@2": "9a3c03cc9e9182b4d49c0b73fff14420469f9556353df79528a87ade149ac9ff",
    "S3@3": "9a3c03cc9e9182b4d49c0b73fff14420469f9556353df79528a87ade149ac9ff",
    "S3@5": "9a3c03cc9e9182b4d49c0b73fff14420469f9556353df79528a87ade149ac9ff",
    "S4@0": "266af3607162b769efcd6a934e391fd9990deb3e9d409d8b31252611d1aaac95",
    "S4@2": "266af3607162b769efcd6a934e391fd9990deb3e9d409d8b31252611d1aaac95",
    "S4@3": "266af3607162b769efcd6a934e391fd9990deb3e9d409d8b31252611d1aaac95",
    "S4@5": "266af3607162b769efcd6a934e391fd9990deb3e9d409d8b31252611d1aaac95",
    "S5@0": "54c877c6ecfbd6ea87d069529e286e94bc8e4cee12989bfded2190dcd13e660a",
    "S5@2": "54c877c6ecfbd6ea87d069529e286e94bc8e4cee12989bfded2190dcd13e660a",
    "S5@3": "54c877c6ecfbd6ea87d069529e286e94bc8e4cee12989bfded2190dcd13e660a",
    "S5@5": "54c877c6ecfbd6ea87d069529e286e94bc8e4cee12989bfded2190dcd13e660a",
    "S6@0": "45901260ad68f47adf8a34f227db29312e5d06d4b468558bca8b0431afcd80f0",
    "S6@2": "45901260ad68f47adf8a34f227db29312e5d06d4b468558bca8b0431afcd80f0",
    "S6@3": "45901260ad68f47adf8a34f227db29312e5d06d4b468558bca8b0431afcd80f0",
    "S6@5": "45901260ad68f47adf8a34f227db29312e5d06d4b468558bca8b0431afcd80f0",
    "S7@0": "2dc4ef37281ddace2986dacb6b8bcdf9477a14289ac4149a25992cca9e82b014",
    "S7@2": "2dc4ef37281ddace2986dacb6b8bcdf9477a14289ac4149a25992cca9e82b014",
    "S7@3": "2dc4ef37281ddace2986dacb6b8bcdf9477a14289ac4149a25992cca9e82b014",
    "S7@5": "2dc4ef37281ddace2986dacb6b8bcdf9477a14289ac4149a25992cca9e82b014",
}
AUDIT_CLI_DIGESTS = {
    "W3": "5407518c7e13327a4b5043964f9d83275eb93feb8829783a3532fbb3582809e0",
    "W5": "f0eae7b33bf6b87d5f2989cd424af16082940122d63eca22fdd845aaeb49e4df",
    "U2_2": "85f7d2326ff5ff58c95fcd71bf9c45ae5abe9634fc811b9c49fee227ef45c6c2",
    "U3_4": "4dceba83f0e8bab103ba3bc887f1575f54f73162da9cd8a75428014216aec536",
    "V2_3": "97c2908c2041261c81e15c3ed69a0ef58dc6b0936fd138de49017d9a5625367d",
}


# the same over QQ, GF(2) and GF(3): every stored entry on these inputs is 0 or 1
TABLE_DIGESTS = {
    "W3": "4989d19c2ea7bcd8",
    "W5": "08c9602c67b2b688",
    "W7": "d4e143dac476fc3c",
    "W9": "1449721b42adfc3e",
    "U2_2": "4d41ee28938627ae",
    "U3_3": "737f55eb2d2119b7",
    "U4_4": "3be885ebf0aed478",
    "V2_3": "b128b414d2652912",
    "V3_4": "932c68f77b4a879e",
    "S0": "813b52e44cfabd0c",
    "S1": "5503331f92eeb47d",
    "S2": "83cccd5019714100",
    "S3": "4f2d316a1b9840a2",
    "S4": "eb65f408be3a77bd",
    "S5": "5433036432ba807c",
    "S6": "4f19b4dcba39d7d3",
    "S7": "1d1cd4edabf56c00",
}

# captured while knit still located shared positions by identity tokens
KNIT_MAP_DIGESTS = {
    "W3@0": "010ad0eb7d6ed31f",
    "W5@0": "80101cfcd47ca4d3",
    "W7@0": "461a6fb589357142",
    "W9@0": "50f396a7a56403c2",
    "U2_2@0": "5fbff5a083205401",
    "U3_3@0": "56ac482de0fde4c1",
    "U4_4@0": "04b3f3fc5d1bee33",
    "V2_3@0": "f6a837c51cdec767",
    "V3_4@0": "cef813191d364aeb",
    "S0@0": "90812697c8c92728",
    "S1@0": "fd6a1e334936be11",
    "S2@0": "d9c1832068ece33a",
    "S3@0": "9e5690a6c0d1a615",
    "S4@0": "78dd84ac3b84042b",
    "S5@0": "7658329ec0236b8c",
    "S6@0": "d3f6b873951ed19a",
    "S7@0": "5b02da856ae242f5",
    "W3@3": "c51b1225216bce99",
    "W5@3": "6a3598f7f1bdaac1",
    "W7@3": "267adea5ce94c341",
    "W9@3": "3c852817bd26f2b7",
    "U2_2@3": "3c358038eee88e4a",
    "U3_3@3": "6fc6a7955c95a918",
    "U4_4@3": "b6e85d56cf933067",
    "V2_3@3": "fe4cbefd0930c79e",
    "V3_4@3": "e7b09bf261c9e05a",
    "S0@3": "fe45fc51959e924c",
    "S1@3": "b27b362d2f0a8bd1",
    "S2@3": "7be6594f8e085821",
    "S3@3": "33d798d276dc9d63",
    "S4@3": "424dcfb5e0a13cb0",
    "S5@3": "f9ba11b33db141d2",
    "S6@3": "0984550cdc0b9d7d",
    "S7@3": "6084902eae1ce1a3",
    "W3@2": "4f778f8f45827993",
    "W5@2": "75574b65408e978c",
    "W7@2": "9af0761262a36c31",
    "W9@2": "91c41b5f7bb30858",
    "U2_2@2": "b65f1737bc6c88cc",
    "U3_3@2": "09e7605ca0ef3671",
    "U4_4@2": "d86b22ffa264fa1a",
    "V2_3@2": "00577bd89c62ed8b",
    "V3_4@2": "d1f7eebbd3166886",
    "S0@2": "6ccf5ad745e1ea32",
    "S1@2": "d968a436fe2379b0",
    "S2@2": "605baedcc61964b0",
    "S3@2": "81835c154bd5e303",
    "S4@2": "deb14609d9b4d9bb",
    "S5@2": "e976be77f35381a8",
    "S6@2": "4cf35cb39974d412",
    "S7@2": "6527fedc15ab0893",
    "W24@0": "204f9d1f1f2cf8ee",
}

# the same over QQ, GF(2) and GF(3)
WITNESS_DIGESTS = {
    "W3": "d10c26282da2c9e3", "W4": "512ef82fd46b7236", "W5": "11e0e25352bcb1cc",
    "W6": "d8591b13db0b61a3", "W7": "f06a3e7c0bb285a8", "W8": "440511db04f70f21",
    "W9": "077b1fe504d0b427", "W10": "3f635aa94bb3fd6e", "W11": "bbe275691392b0c0",
    "W12": "0c39df0f487906ae", "W13": "bc9003b236a0adbf", "W14": "93b93d9aba4d2d3c",
    "W15": "b82454f062953141", "U2_2": "e8061417095bfcd2",
    "U2_3": "91f4b2d6ccf862a9", "U2_4": "7e262fc43e6f53ca",
    "U2_5": "ce8240c8be353a28", "U2_6": "63d7a6c3ab1deb6e",
    "U2_7": "00fef9e8fdeb3c21", "U3_2": "3e64d4d1282d79e8",
    "U3_3": "abb080c58e6886da", "U3_4": "801eea97e6b6f45e",
    "U3_5": "6998fdc749a22b4c", "U3_6": "f02af6f577bddbf8",
    "U3_7": "118aeab4d9e25a48", "U4_2": "10bc77c42fc35a08",
    "U4_3": "f8444d8e4973e30f", "U4_4": "8b4ff355d7802517",
    "U4_5": "1c55a795e1edd332", "U4_6": "cd7369335ba0fcc3",
    "U4_7": "143c0b3deca0266b", "U5_2": "ac22bb6cbc368e09",
    "U5_3": "4858cbda7b360501", "U5_4": "0a04ee88881e45f7",
    "U5_5": "d8c0782e916f72a4", "U5_6": "082f15b13ab5406b",
    "U5_7": "8b7bfd87d7e89e24", "U6_2": "2a2e859719b9d085",
    "U6_3": "5a401d3e094e8ea5", "U6_4": "5a9ef78b6568846c",
    "U6_5": "89ad458bddbc4394", "U6_6": "7b50bf6d5862eb02",
    "U6_7": "5834dc0bd00251c5", "V2_3": "90886ec27af201e7",
    "V2_4": "e80c530c8580d8f1", "V2_5": "15aa57ca03c40b0c",
    "V2_6": "16580fcd04cf0718", "V2_7": "2daa3b8b0b06d89d",
    "V3_3": "ddc1bddbc7881cd1", "V3_4": "9ba001ce966797b3",
    "V3_5": "cef91573d3f31a36", "V3_6": "bcd8fbd00e938c97",
    "V3_7": "da64d406082399a4", "V4_3": "2ec6052ef5e70c56",
    "V4_4": "6897a8fb09aa61c3", "V4_5": "fa6fba10d23c7c7b",
    "V4_6": "a969230740189158", "V4_7": "05b6c76645151320",
    "V5_3": "5ce452647c889c00", "V5_4": "ffb48fee4c0eb3fc",
    "V5_5": "4fbf55de66607028", "V5_6": "8f72d270c5db0a8e",
    "V5_7": "97b83e48a034d568", "V6_3": "fbbb5cd7da40431f",
    "V6_4": "d65734c48232be67", "V6_5": "bb412f1630a333d2",
    "V6_6": "e5a7c01cebfeb08d", "V6_7": "8a32d900a427db53",
}
