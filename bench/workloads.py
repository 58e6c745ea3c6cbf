"""Inputs, timed operations and output checks of the stringar benchmark.

Every comparison with the reference uses data that does not depend on a
choice of basis: node words, arrow and translate pairs, dimension vectors,
radical layer dimensions, depths, witness node paths, audit verdicts, and
the exit code and standard output of CLI commands that print no basis.  A
different Hom basis therefore never reads as a wrong answer.

The workloads drive stringar only through its public functions.  The seed
shapes the inputs (job order, audit perturbation seeds, the CLI command
draw); stringar never sees it.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import time

# EX3 from the test suite: a shortcut arrow next to a two-arrow route.
EX3_SOURCE = """\
algebra EX3
vertices 1 2 3 4
arrow g1 1 -> 2
arrow g2 2 -> 3
arrow al 1 -> 3
arrow be 3 -> 4
relation al be
"""

LADDER = ["W3", "W5", "W7", "W9", "U2_2", "U3_3", "U4_4", "V2_3", "V3_4"]
AUDITS = [("U3_4", 0), ("W5", 3), ("V2_3", 3)]
AUDIT_SAMPLES = 32
CLI_ALGEBRAS = ["W3", "U2_2", "EX3", "V2_3", "U3_3"]
CLI_KINDS = [
    "validate", "strings", "module", "tau", "tau-orbit", "hom", "knit",
    "cg-quiver", "detect", "radical-profile", "depth", "degree",
]
CLI_PER_CELL = 4  # commands drawn per (algebra, kind): 5 * 12 * 4 = 240
CLI_POOL_CAP = 12  # reference candidates kept per (algebra, kind)
CLI_DRAW_SEED = 0
BANDED_MAX_LEN = 3  # string length bound for an algebra with bands (EX3)

# Known defects, run outside the timed loop and reported on their own.
# Each reference is the answer the program should give once it is fixed.
PROBES = {
    "witness-W3-char2": "witness W(3) over GF(2) fails with [mesh-inconsistency]",
    "audit-U2_2-char2": "audit U(2,2) over GF(2) fails with [mesh-inconsistency]",
    "cli-depth-family": "depth --family W --n 3 takes the first word as a file, exits 3",
}
CLI_PROBE_ARGV = ["depth", "--family", "W", "--n", "3", "e(4)", "b3", "b2 b3"]


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key(name, char):
    return f"{name}@{char}"


def family_spec(sa, name):
    """FamilySpec for W<n>, U<m>_<n> or V<m>_<n> (theorem parameters)."""
    fam, nums = name[0], [int(x) for x in name[1:].split("_")]
    if fam == "W":
        return sa.make_family("W", n=nums[0])
    return sa.make_family(fam, m=nums[0], n=nums[1])


def presentation(sa, name):
    if name == "EX3":
        return sa.parse_presentation(EX3_SOURCE)
    return family_spec(sa, name).presentation


def expected_depth(name):
    """The paper's witness depth: W(n) n+3, U(m,n-1) n+2m, V(m,n-2) n+2m+1."""
    fam, nums = name[0], [int(x) for x in name[1:].split("_")]
    if fam == "W":
        return nums[0] + 3
    m, n = nums
    return n + 2 * m + (1 if fam == "V" else 0)


# -- basis-independent summaries ---------------------------------------------


def quiver_summary(G):
    text = [n.text for n in G.nodes]
    return {
        "nodes": len(G.nodes),
        "arrows": len(G.arrows),
        "words": digest(text),
        "dims": digest([list(n.module.rep.dim_vector()) for n in G.nodes]),
        "arrow_pairs": digest(sorted([text[a.source], text[a.target]] for a in G.arrows)),
        "tau_pairs": digest(sorted([text[i], text[j]] for i, j in G.tau_pairs.items())),
    }


def layer_dims(G, T):
    """Layer dimensions of every ordered node pair, trailing zeros dropped."""
    out = []
    for x in G.nodes:
        for y in G.nodes:
            d = list(T.profile(x, y).dims)
            while d and d[-1] == 0:
                d.pop()
            out.append([x.text, y.text, d])
    return out


def layer_summary(G, T):
    dims = layer_dims(G, T)
    return {
        "nilpotency": T.nilpotency,
        "stored_rows": sum(sum(d) for _, _, d in dims),
        "layer_dims": digest(dims),
    }


def witness_summary(w):
    return {
        "path": [n.text for n in w.node_path],
        "depths": dict(w.depths),
        "expected": w.expected_depth,
    }


def audit_summary(report):
    return {
        "passed": report.passed,
        "stats": dict(report.stats),
        "verdicts": {k: v["passed"] for k, v in report.audits.items()},
    }


def diff(what, got, want):
    """None when equal, else a one-line description of the first difference."""
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            if got.get(k) != want.get(k):
                return f"{what}.{k}: got {got.get(k)!r}, want {want.get(k)!r}"
    return f"{what}: got {got!r}, want {want!r}"


# -- CLI ---------------------------------------------------------------------


def run_cli(main, argv):
    """One in-process `stringar.cli.main(argv)` call: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors exit through here
            rc = exc.code
    return rc, out.getvalue()


def cli_argv(entry, paths):
    return [entry["kind"], paths[entry["alg"]]] + entry["args"]


def write_algebras(sa, names, workdir):
    """Serialize each algebra to <workdir>/<name>.alg; return name -> path."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name in names:
        path = os.path.join(workdir, name + ".alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sa.serialize_presentation(presentation(sa, name)))
        paths[name] = path
    return paths


def cli_candidates(sa, name):
    """Argument lists per command kind for one algebra, deterministic order."""
    p = presentation(sa, name)
    if sa.has_band(p):  # no AR quiver: short strings stand in for its nodes
        G = None
        walks = [w.walk for w in sa.enumerate_strings(p, max_len=BANDED_MAX_LEN)]
        words = [sa.walk_to_text(w) for w in walks]
        nonproj = [t for w, t in zip(walks, words) if not sa.is_projective_word(p, w)]
    else:
        G = sa.knit(p)
        words = [n.text for n in G.nodes]
        nonproj = [n.text for n in G.nodes if not n.projective]
    pairs = [[x, y] for x in words for y in words]
    paths = []
    for a in G.arrows if G else ():
        for b in G.arrows_from(a.target):
            paths.append([words[a.source], words[a.target], words[b.target]])
            for c in G.arrows_from(b.target):
                paths.append(
                    [words[a.source], words[a.target], words[b.target], words[c.target]]
                )
    degrees = [
        ["--source", words[a.source], "--target", words[a.target], "--side", side]
        for a in (G.arrows if G else ())
        for side in ("left", "right")
    ]
    verts = list(p.quiver.vertices)
    return {
        "validate": [[], ["--json"]],
        "strings": [[], ["--json"], ["--max-len", "2"], ["--max-len", "3"]],
        "module": [[w] for w in words],
        "tau": [[w] for w in nonproj],
        "tau-orbit": [[w, "--steps", s] for w in words for s in ("2", "4")],
        "hom": pairs,
        "knit": [["--json"]],
        "cg-quiver": [
            ["--vertex", v, "--side", s] for v in verts for s in ("ending", "starting")
        ],
        "detect": [[], ["--json"]],
        "radical-profile": pairs,
        "depth": paths,
        "degree": degrees,
    }


# -- workloads ---------------------------------------------------------------


class Op:
    """One timed call; `check` maps its result to None or an error message."""

    __slots__ = ("name", "span", "run", "check", "inputs")

    def __init__(self, name, span, run, check, inputs=()):
        self.name = name
        self.span = span
        self.run = run
        self.check = check
        self.inputs = inputs  # (algebra, char) pairs whose knit and table it rebuilds


def witness_op(sa, name, ref):
    """witness() of family `name` over QQ, checked against the reference."""
    spec = family_spec(sa, name)
    k = key(name, 0)
    want_q, want_l = ref["inputs"][k]["quiver"], ref["inputs"][k]["layers"]
    want_w = ref["witness"][k]
    formula = expected_depth(name)

    def check(w):
        if w.expected_depth != formula or w.depths["total"] != formula:
            return f"{k}: total depth {w.depths['total']}, paper formula {formula}"
        return (
            diff(k + " quiver", quiver_summary(w.quiver), want_q)
            or diff(k + " layers", layer_summary(w.quiver, w.table), want_l)
            or diff(k + " witness", witness_summary(w), want_w)
        )

    return Op(k, "families.witness", lambda: sa.witness(spec), check, [(name, 0)])


def audit_op(sa, name, char, audit_seed, ref, samples=AUDIT_SAMPLES):
    """audit_theorems() of `name` over GF(char) (QQ for 0), verdicts checked."""
    p = presentation(sa, name)
    field = sa.field_for_characteristic(char)
    k = key(name, char)
    want = ref["audit"][k]

    def run():
        return sa.audit_theorems(p, samples=samples, seed=audit_seed, field=field)

    def check(report):
        return diff(k + " audit", audit_summary(report), want)

    return Op(k, f"configurations.audit.char{char}", run, check, [(name, char)])


def cli_op(main, entry, paths):
    """One CLI command from the reference pool; exit code and stdout checked."""
    argv = cli_argv(entry, paths)

    def check(result):
        rc, out = result
        if (rc, digest(out)) != (entry["rc"], entry["out"]):
            return f"{' '.join(argv)}: exit {rc}, stdout {digest(out)}; want {entry}"
        return None

    return Op(" ".join(argv), f"cli.{entry['kind']}", lambda: run_cli(main, argv), check)


class Workload:
    """name, inputs as (algebra, characteristic) pairs, and `build`."""

    def __init__(self, name, inputs, build):
        self.name = name
        self.inputs = inputs
        self.build = build  # (sa, cli_main, seed, workdir, ref) -> list of Op


def _build_ladder(sa, cli_main, seed, workdir, ref):
    names = list(LADDER)
    random.Random(seed).shuffle(names)
    return [witness_op(sa, name, ref) for name in names]


def _build_audit(sa, cli_main, seed, workdir, ref):
    rng = random.Random(seed)
    jobs = [(name, char, rng.randrange(2**31)) for name, char in AUDITS]
    rng.shuffle(jobs)
    return [audit_op(sa, name, char, s, ref) for name, char, s in jobs]


def _build_cli(sa, cli_main, seed, workdir, ref):
    paths = write_algebras(sa, CLI_ALGEBRAS, workdir)
    # The command set is drawn once, the same for every seed: one command of
    # the pool costs 0.4 s where its cell's others cost 5 ms, so a seeded draw
    # would make the slow tail depend on the seed.  The seed sets the order.
    rng = random.Random(CLI_DRAW_SEED)
    cells = {}
    for entry in ref["cli"]:
        cells.setdefault((entry["alg"], entry["kind"]), []).append(entry)
    drawn = []
    for name in CLI_ALGEBRAS:
        for kind in CLI_KINDS:
            cell = cells.get((name, kind))
            if not cell:  # the command refuses this algebra (EX3 has bands)
                continue
            if len(cell) >= CLI_PER_CELL:
                drawn += rng.sample(cell, CLI_PER_CELL)
            else:
                drawn += [rng.choice(cell) for _ in range(CLI_PER_CELL)]
    random.Random(seed).shuffle(drawn)
    return [cli_op(cli_main, entry, paths) for entry in drawn]


WORKLOADS = {
    "ladder": Workload("ladder", [(n, 0) for n in LADDER], _build_ladder),
    "audit": Workload("audit", list(AUDITS), _build_audit),
    "cli-session": Workload("cli-session", [(n, 0) for n in CLI_ALGEBRAS], _build_cli),
}


def call(op, probe, span=None):
    """Run `op` once from a collected heap: (seconds on the corrected clock
    `probe.now` of speed.py, None or an error)."""
    gc.collect()
    err = result = None
    t0 = probe.now()
    try:
        with span(op.span) if span else contextlib.nullcontext():
            result = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        err = f"{op.name}: {type(exc).__name__}: {exc}"
    dt = probe.now() - t0
    return dt, err or op.check(result)


def measure(ops, seconds, probe, span=None):
    """Closed loop, one call at a time: passes over the ops in the given
    order until `seconds` have passed, at least one whole pass.  Every op is
    called as often as every other, give or take one, so a slow op's median
    rests on more than one call.  `span(name)`, when given, is a context
    manager entered around each call.  Returns the per-op lists of seconds
    and the failure messages; a call fails when it raises or when its check
    rejects the result."""
    times = [[] for _ in ops]
    failures = []
    start = time.perf_counter()
    calls = 0
    while calls < len(ops) or time.perf_counter() - start < seconds:
        j = calls % len(ops)
        dt, err = call(ops[j], probe, span)
        times[j].append(dt)
        if err:
            failures.append(err)
        calls += 1
    return times, failures
