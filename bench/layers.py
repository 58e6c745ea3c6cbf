"""Traced run: time the calls into each stringar module and record counts.

Spans are recorded from the benchmark's own code, around the calls it makes
into each module; `RadicalTable.depth` is wrapped for the duration of the
traced pass so that depth queries made inside witnesses, audits and CLI
commands are timed and counted.  The traced run

1. runs one untraced pass of the workload's ops and one traced pass, whose
   difference is the tracing overhead;
2. sweeps the workload's inputs, calling each module's public functions
   directly and running the independent cross-checks (irreducible-path span
   against the radical recursion, word-surgery tau against the DTr oracle);
3. times once, on small fixed stand-in inputs, the op kinds the workload
   itself does not run, so every per-layer metric exists on every workload;
4. runs the known-defect probes and reports which are still open.

Self-time estimates (`*_self_s`) subtract knit and RadicalTable, timed on
the same input, from the witness or audit that rebuilds them.
"""

import contextlib
import json
import os
import statistics

from workloads import (
    AUDIT_SAMPLES,
    BANDED_MAX_LEN,
    CLI_KINDS,
    CLI_PROBE_ARGV,
    PROBES,
    audit_op,
    audit_summary,
    cli_op,
    diff,
    digest,
    family_spec,
    key,
    layer_summary,
    measure,
    presentation,
    quiver_summary,
    run_cli,
    witness_op,
    write_algebras,
)

STAND_IN_WITNESS = "W3"
STAND_IN_AUDITS = [("U2_2", 0), ("V2_3", 3)]
STAND_IN_AUDIT_SAMPLES = 4
STAND_IN_CLI = "W3"


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, timed on `clock`."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, self.clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    @contextlib.contextmanager
    def wrap(self, owner, attr, name):
        """Record a span around every call of owner.attr while active."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class _Sweep:
    """Per-layer accumulation over (algebra, characteristic) inputs."""

    def __init__(self, sa, ref, tracer):
        self.sa = sa
        self.ref = ref
        self.tr = tracer
        self.counts = dict.fromkeys(
            ["nodes", "arrows", "hom_dim_total", "stored_rows", "nilpotency", "triples"], 0
        )
        self.base = {}  # input key -> knit + RadicalTable seconds
        self.checks = 0
        self.failures = []

    def check(self, msg):
        self.checks += 1
        if msg:
            self.failures.append(msg)

    def timed(self, name, fn, *args, **kwargs):
        t0 = self.tr.clock()
        with self.tr.span(name):
            out = fn(*args, **kwargs)
        return out, self.tr.clock() - t0

    def input(self, name, char):
        sa, span = self.sa, self.tr.span
        k = key(name, char)
        p = presentation(sa, name)
        field = sa.field_for_characteristic(char)
        with span("presentation.parse"):
            sa.parse_presentation(sa.serialize_presentation(p))
        with span("presentation.validate"):
            sa.validate_string_algebra(p)
        with span("strings.has_band"):
            banded = sa.has_band(p)
        with span("strings.enumerate"):
            sa.enumerate_strings(p, max_len=BANDED_MAX_LEN if banded else None)
        if banded:  # no AR quiver, so no further layers to sweep
            with span("configurations.detect"):
                sa.detect_local_patterns(p)
            return
        G, knit_s = self.timed("artheory.knit", sa.knit, p, field)
        with span("modules.realize"):
            for x in G.nodes:
                sa.realize(p, x.module.word.walk, field)
        with span("modules.hom_basis"):
            for x in G.nodes:
                for y in G.nodes:
                    self.counts["hom_dim_total"] += sa.hom_basis(
                        x.module.rep, y.module.rep
                    ).dimension
        with span("modules.end_radical"):
            for x in G.nodes:
                sa.end_radical(x.module.rep)
        for x in G.nodes:
            if x.projective:
                continue
            with span("artheory.tau"):
                t = sa.tau(p, x.module, field)
            with span("artheory.tau_oracle"):
                o = sa.tau_oracle(p, x.module, field)
            same = sa.is_isomorphic(t.rep, o)
            self.check(None if same else f"{k}: tau({x.text}) differs from the DTr oracle")
        T, table_s = self.timed("radical.table", sa.RadicalTable, G)
        self.base[k] = knit_s + table_s
        with span("radical.span"):
            same = T.layers_equal_to_span()
        self.check(None if same else f"{k}: radical layers differ from the arrow span")
        with span("radical.degree"):
            for a in G.arrows:
                for side in ("left", "right"):
                    T.degree(a.morphism, side, source=G.nodes[a.source],
                             target=G.nodes[a.target])
        with span("configurations.find_three_cycles"):
            sa.find_three_cycles(G)
        with span("configurations.detect"):
            sa.detect_local_patterns(p)
        self.counts["triples"] += sum(
            len(G.arrows_from(b.target)) for a in G.arrows for b in G.arrows_from(a.target)
        )
        q, lay = quiver_summary(G), layer_summary(G, T)
        self.counts["nodes"] += q["nodes"]
        self.counts["arrows"] += q["arrows"]
        self.counts["stored_rows"] += lay["stored_rows"]
        self.counts["nilpotency"] += lay["nilpotency"]
        want = self.ref["inputs"].get(k)
        if want is not None:
            self.check(diff(k + " quiver", q, want["quiver"]))
            self.check(diff(k + " layers", lay, want["layers"]))

    def base_of(self, name, char):
        """knit + RadicalTable seconds of an input, timing it if not swept."""
        k = key(name, char)
        if k not in self.base:
            p = presentation(self.sa, name)
            field = self.sa.field_for_characteristic(char)
            G, knit_s = self.timed("stand-in.knit", self.sa.knit, p, field)
            _, table_s = self.timed("stand-in.table", self.sa.RadicalTable, G)
            self.base[k] = knit_s + table_s
        return self.base[k]


def _stand_in_ops(sa, cli_main, ref, workdir, spans):
    """Ops on small fixed inputs for the op kinds absent from `spans`."""
    ops = []
    if "families.witness" not in spans:
        ops.append(witness_op(sa, STAND_IN_WITNESS, ref))
    if not any(s.startswith("configurations.audit") for s in spans):
        ops += [
            audit_op(sa, name, char, 0, ref, samples=STAND_IN_AUDIT_SAMPLES)
            for name, char in STAND_IN_AUDITS
        ]
    if not any(s.startswith("cli.") for s in spans):
        paths = write_algebras(sa, [STAND_IN_CLI], workdir)
        first = {}
        for e in ref["cli"]:
            if e["alg"] == STAND_IN_CLI:
                first.setdefault(e["kind"], e)
        ops += [cli_op(cli_main, first[kind], paths) for kind in CLI_KINDS]
    return ops


def known_defects(sa, cli_main, ref):
    """Name -> None when the probe now gives the reference answer, else why not."""

    def attempt(fn):
        try:
            return fn()
        except Exception as exc:  # the probes exist to catch these
            return f"[{getattr(exc, 'code', type(exc).__name__)}] {exc}"

    f2 = sa.field_for_characteristic(2)

    def witness_w3():
        w = sa.witness(family_spec(sa, "W3"), f2)
        got = {"nodes": len(w.quiver.nodes), "arrows": len(w.quiver.arrows),
               "total": w.depths["total"]}
        return diff("witness W3 char 2", got, ref["probes"]["witness-W3-char2"])

    def audit_u22():
        r = sa.audit_theorems(presentation(sa, "U2_2"), samples=AUDIT_SAMPLES, seed=0,
                              field=f2)
        return diff("audit U2_2 char 2", audit_summary(r), ref["probes"]["audit-U2_2-char2"])

    def cli_depth():
        rc, out = run_cli(cli_main, CLI_PROBE_ARGV)
        want = ref["probes"]["cli-depth-family"]
        return None if (rc, digest(out)) == (want["rc"], want["out"]) else f"exit {rc}"

    return {
        "witness-W3-char2": attempt(witness_w3),
        "audit-U2_2-char2": attempt(audit_u22),
        "cli-depth-family": attempt(cli_depth),
    }


def traced_run(workload, sa, cli_main, ops, ref, workdir, probe):
    """Returns (attempted, failures, metrics) for the per-layer report."""
    untraced, failures = measure(ops, 0, probe)
    tracer = Tracer(probe.now)
    with tracer.wrap(sa.RadicalTable, "depth", "radical.depth"):
        traced, more = measure(ops, 0, probe, span=tracer.span)
    failures += more
    attempted = 2 * len(ops)
    untraced_wall = sum(t[0] for t in untraced)
    traced_wall = sum(t[0] for t in traced)
    depth_s = tracer.total("radical.depth")
    depth_calls = len(tracer.durations("radical.depth"))

    sweep = _Sweep(sa, ref, tracer)
    for name, char in workload.inputs:
        sweep.input(name, char)
    stand_ins = _stand_in_ops(sa, cli_main, ref, workdir, {op.span for op in ops})
    if stand_ins:
        _, more = measure(stand_ins, 0, probe, span=tracer.span)
        failures += more
        attempted += len(stand_ins)
    attempted += sweep.checks
    failures += sweep.failures

    def base(spans):
        return sum(
            sweep.base_of(name, char)
            for op in ops + stand_ins
            if op.span in spans
            for name, char in op.inputs
        )

    audit_spans = ("configurations.audit.char0", "configurations.audit.char3")
    witness_s = tracer.total("families.witness")
    audit_s = sum(tracer.total(s) for s in audit_spans)
    m = {
        "radical.table_s": (tracer.total("radical.table"), "s"),
        "radical.stored_rows": (sweep.counts["stored_rows"], "count"),
        "radical.depth_s": (depth_s, "s"),
        "radical.depth_calls": (depth_calls, "count"),
        "radical.degree_s": (tracer.total("radical.degree"), "s"),
        "radical.span_s": (tracer.total("radical.span"), "s"),
        "radical.nilpotency": (sweep.counts["nilpotency"], "count"),
        "families.witness_s": (witness_s, "s"),
        "families.witness_self_s": (witness_s - base({"families.witness"}), "s"),
        "configurations.audit_s": (audit_s, "s"),
        "configurations.audit_s.char0": (tracer.total(audit_spans[0]), "s"),
        "configurations.audit_s.char3": (tracer.total(audit_spans[1]), "s"),
        "configurations.audit_self_s": (audit_s - base(set(audit_spans)), "s"),
        "configurations.triples": (sweep.counts["triples"], "count"),
        "configurations.find_three_cycles_s": (
            tracer.total("configurations.find_three_cycles"), "s"),
        "configurations.detect_s": (tracer.total("configurations.detect"), "s"),
        "artheory.knit_s": (tracer.total("artheory.knit"), "s"),
        "artheory.tau_s": (tracer.total("artheory.tau"), "s"),
        "artheory.tau_oracle_s": (tracer.total("artheory.tau_oracle"), "s"),
        "artheory.nodes": (sweep.counts["nodes"], "count"),
        "artheory.arrows": (sweep.counts["arrows"], "count"),
        "modules.realize_s": (tracer.total("modules.realize"), "s"),
        "modules.hom_basis_s": (tracer.total("modules.hom_basis"), "s"),
        "modules.end_radical_s": (tracer.total("modules.end_radical"), "s"),
        "modules.hom_dim_total": (sweep.counts["hom_dim_total"], "count"),
        "strings.enumerate_s": (tracer.total("strings.enumerate"), "s"),
        "strings.has_band_s": (tracer.total("strings.has_band"), "s"),
        "presentation.parse_s": (tracer.total("presentation.parse"), "s"),
        "presentation.validate_s": (tracer.total("presentation.validate"), "s"),
    }
    for kind in CLI_KINDS:
        m[f"cli.{kind}_ms"] = (statistics.median(tracer.durations(f"cli.{kind}")) * 1000, "ms")
    m["tracing_overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")

    defects = known_defects(sa, cli_main, ref)
    for name, status in defects.items():
        state = "fixed" if status is None else f"open: {status}"
        print(f"known defect {name} ({PROBES[name]}): {state}")
    m["probes.open_defects"] = (sum(s is not None for s in defects.values()), "count")

    os.makedirs(workdir, exist_ok=True)
    tracer.dump(os.path.join(workdir, f"spans-{workload.name}.json"))
    return attempted, failures, m
