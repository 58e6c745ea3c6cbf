"""The draw-keyed audit against the per-sample loop it replaced.

`audit_theorems` evaluates each distinct perturbation once; the oracle in
`tests/oracles/sampled_audit.py` recomposes every sample.  Both must give
the same counterexamples in the same order with the same sample indices,
also when a fake depth forces violations (audits never fail on string
algebras, so the recording path is otherwise never taken).  The oracle has
no depth-tag certificate: the tests that compare it on forced violations
turn the certificate off, and one test checks that no triple it drops
could have failed.
"""

import functools
import hashlib
import json

import pytest

from stringar import configurations
from stringar.artheory import knit
from stringar.configurations import audit_theorems
from stringar.families import make_family
from stringar.fields import field_for_characteristic
from stringar.modules import MorphismMatrix
from stringar.presentation import validate_string_algebra
from stringar.radical import ZERO_DEPTH, RadicalTable
from stringar.strings import has_band
from tests.oracles.sampled_audit import sampled_audit
from tests.test_radical_engine import _ladder_and_stress, _path_lengths
from tests.test_stress import random_presentations

A, B = "A-no-shallow-triple-at-6", "B-depth-4-implies-6"


@functools.lru_cache(maxsize=None)
def _generated_band_free():
    """The first ten band-free string algebras among the seeded presentations."""
    out = [
        p for p in random_presentations(20261018, 400)
        if validate_string_algebra(p).is_string_algebra and not has_band(p)
    ]
    return tuple(out[:10])


def _counterexamples(report):
    return report.audits[A]["counterexamples"], report.audits[B]["counterexamples"]


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
def test_draw_keyed_audit_matches_the_per_sample_loop(char):
    field = field_for_characteristic(char)
    assert len(_generated_band_free()) == 10
    for p in _generated_band_free():
        for seed in (0, 1):
            report = audit_theorems(p, samples=5, seed=seed, field=field)
            a, b, *_ = sampled_audit(p, 5, seed, field)
            assert _counterexamples(report) == (a, b)


@pytest.fixture
def uncertified(monkeypatch):
    """Every triple kept: `tags` reports every depth the fake depths give, so
    the table certifies no triple before sampling and every triple is drawn."""
    monkeypatch.setattr(RadicalTable, "tags", lambda self, xi, yi, among: set(range(8)))


def _fake_depth(self, f, source, target):
    """A depth in 0..7 or ZERO_DEPTH that depends only on f's entries and its ends.

    An entry is hashed as `field.to_str` gives it, with " (mod p)" over GF(p):
    the text the pins below were captured with.
    """
    field = f.source.field
    mod = f" (mod {field.characteristic})" if field.characteristic else ""
    entries = ", ".join(field.to_str(x) + mod for x in f.flatten())
    text = f"([{entries}], {source.index}, {target.index})"
    d = int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) % 9
    return ZERO_DEPTH if d == 8 else d


def _forced_presentation(name):
    if name.startswith("G"):
        return _generated_band_free()[int(name[1:])]
    fam, m, n = name[0], int(name[1]), int(name[3])
    return make_family(fam, m=m, n=n).presentation


FORCED = [("U2_2", 3), ("V2_3", 0), ("V2_3", 2), ("G3", 2)]


@pytest.mark.usefixtures("uncertified")
@pytest.mark.parametrize("name,char", FORCED)
def test_forced_violations_match_the_oracle_and_the_pin(name, char, monkeypatch):
    monkeypatch.setattr(RadicalTable, "depth", _fake_depth)
    p, field = _forced_presentation(name), field_for_characteristic(char)
    report = audit_theorems(p, samples=5, seed=1, field=field)
    a, b, *_ = sampled_audit(p, 5, 1, field)
    assert a and b
    assert _counterexamples(report) == (a, b)
    text = json.dumps(report.as_dict(), sort_keys=False)
    assert hashlib.sha256(text.encode()).hexdigest() == FORCED_DIGESTS[f"{name}@{char}"]


@pytest.mark.usefixtures("uncertified")
@pytest.mark.parametrize("name,char", [("U3_4", 0), ("V2_3", 3)])
def test_sampling_composes_once_per_distinct_key(name, char, monkeypatch):
    """At most one compose per distinct triple draw and one per distinct pair draw."""
    p, field = _forced_presentation(name), field_for_characteristic(char)
    _, _, draws, _ = sampled_audit(p, 32, 0, field)
    quiver = knit(p, field)
    table = RadicalTable(quiver)
    monkeypatch.setattr(configurations, "knit", lambda p, field: quiver)
    monkeypatch.setattr(configurations, "RadicalTable", lambda quiver: table)
    calls = []
    compose = MorphismMatrix.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(MorphismMatrix, "compose", counted)
    report = audit_theorems(p, samples=32, seed=0, field=field)
    triples = set(draws)
    pairs = {k[:2] for k in triples} | {k[1:] for k in triples}
    assert len(draws) == 32 * report.stats["triples"]
    assert 0 < len(calls) <= len(triples) + len(pairs) < len(draws)


def _draw_free(p, field):
    """The triples (as node texts, in audit order) whose three arrows have no rad^2 row."""
    quiver = knit(p, field)
    table = RadicalTable(quiver)
    ends = [(quiver.nodes[a.source], quiver.nodes[a.target]) for a in quiver.arrows]
    triples = [
        (a1, a2, a3)
        for a1 in quiver.arrows
        for a2 in quiver.arrows_from(a1.target)
        for a3 in quiver.arrows_from(a2.target)
    ]
    rad2 = {id(a): table.layer(x, y, 2) for a, (x, y) in zip(quiver.arrows, ends)}
    texts = [[quiver.nodes[a.source].text for a in t] + [quiver.nodes[t[2].target].text]
             for t in triples]
    return [text for t, text in zip(triples, texts) if not any(rad2[id(a)] for a in t)], triples


@pytest.mark.usefixtures("uncertified")
@pytest.mark.parametrize("family,m,n,char", [("V", 2, 3, 0), ("W", None, 5, 3)])
def test_a_violating_draw_free_triple_reports_every_sample(family, m, n, char, monkeypatch):
    """A fake depth of 5 everywhere breaks B on every sample of every triple."""
    monkeypatch.setattr(RadicalTable, "depth", lambda self, f, source, target: 5)
    p, field = make_family(family, m=m, n=n).presentation, field_for_characteristic(char)
    free, triples = _draw_free(p, field)
    report = audit_theorems(p, samples=4, seed=3, field=field)
    a, b, *_ = sampled_audit(p, 4, 3, field)
    assert _counterexamples(report) == (a, b) == ([], b)
    assert len(b) == 4 * len(triples) and free
    for text in free:
        assert [s["sample"] for s in b if s["triple"] == text] == [0, 1, 2, 3]


def _path_kept_starts(quiver):
    """The nodes x of the triples x -> y -> z -> w with a path of 4, 5 or 6
    arrows from x to w."""
    starts = set()
    for a1 in quiver.arrows:
        lengths = _path_lengths(quiver, a1.source, 6)
        if any(not lengths.get(a3.target, set()).isdisjoint((4, 5, 6))
               for a2 in quiver.arrows_from(a1.target) for a3 in quiver.arrows_from(a2.target)):
            starts.add(a1.source)
    return starts


@pytest.mark.parametrize("family,m,n,char,most", [("U", 3, 4, 0, 0), ("W", None, 30, 5, 10)])
def test_the_audit_builds_only_the_starts_of_path_kept_triples(family, m, n, char, most, monkeypatch):
    """A triple x -> y -> z -> w with no path of 4, 5 or 6 arrows from x to w
    is certified with no source built: the audit builds only sources x of the
    other triples, none on U(3,4) and 10 of W(30)'s 471."""
    p, field = make_family(family, m=m, n=n).presentation, field_for_characteristic(char)
    starts = _path_kept_starts(knit(p, field))
    built, build = [], RadicalTable._build

    def recorded(self, ci, side):
        built.append((ci, side))
        return build(self, ci, side)

    monkeypatch.setattr(RadicalTable, "_build", recorded)
    assert audit_theorems(p, field=field).passed
    assert len(starts) == most
    assert len(built) <= most and {ci for ci, _ in built} <= starts
    assert all(side == "source" for _, side in built)


# W(3..9)'s kept triples: the first one's perturbed samples reach depth 6
W_KEPT = [("b2", "e(2)", "b1^- a b1", "a b1"), ("b2 b3", "b2", "e(2)", "b1^- a b1")]


@pytest.mark.parametrize("char", [0, 2, 3], ids=["QQ", "GF2", "GF3"])
def test_the_tags_certify_every_dropped_triple(char, monkeypatch):
    """No sample of a triple the audit drops has a total of depth 4, 5 or 6,
    on the ladder and S0-S7; W(3..9) keeps the triples of W_KEPT.

    A fake depth of 5 breaks B on every sample of a kept triple, so the
    triples that report names are the kept ones.
    """
    field = field_for_characteristic(char)
    for p in _ladder_and_stress():
        *_, spots = sampled_audit(p, 8, 0, field)
        with monkeypatch.context() as m:
            m.setattr(RadicalTable, "depth", lambda self, f, source, target: 5)
            report = audit_theorems(p, samples=8, seed=0, field=field)
        kept = {tuple(s["triple"]) for s in report.audits[B]["counterexamples"]}
        totals = {}
        for s in spots:
            totals.setdefault(tuple(s["triple"]), set()).add(s["depths"]["total"])
        assert kept <= totals.keys()
        for triple, depths in totals.items():
            assert triple in kept or depths.isdisjoint({4, 5, 6}), (p.name, triple, depths)
        if p.name.startswith("W"):
            assert sorted(kept) == sorted(W_KEPT) and 6 in totals[W_KEPT[0]]


# captured with the per-sample loop, before each distinct draw was evaluated once
FORCED_DIGESTS = {
    "U2_2@3": "dcaad5780ed6566b4d636407847c755da67214e504c375a1661260881ee6c473",
    "V2_3@0": "d42ee39273a01aed45211290b72f36f703be3d131727d2028173bc228c5270c0",
    "V2_3@2": "70596bf7cbfe820757c218a26570232082f3bd2657d5c29db6e6531f11c2dbca",
    "G3@2": "e35714dccb6554986265be95b61d0f7630e4d2c4ba8f6ac6ae89dce4c7e46c11",
}
