"""Regenerate bench/reference.json from the program in src/.

Run from the repository root on a commit whose answers are trusted:

    python3 bench/make_reference.py

The reference holds only basis-independent data (see workloads.py).  The
known-defect probes get the answer the program should give once fixed: the
char-0 counts and verdicts, and the output of the same command given a file.
"""

import json
import os
import random
import sys

from run import SRC, WORKDIR, load_stringar
from workloads import (
    AUDIT_SAMPLES,
    AUDITS,
    CLI_ALGEBRAS,
    CLI_KINDS,
    CLI_POOL_CAP,
    LADDER,
    audit_summary,
    cli_argv,
    cli_candidates,
    digest,
    family_spec,
    key,
    layer_summary,
    presentation,
    quiver_summary,
    run_cli,
    witness_summary,
    write_algebras,
)

# U(2,2) over QQ is the reference of the char-2 audit probe.
EXTRA_AUDITS = [("U2_2", 0)]


def main():
    sa, cli_main = load_stringar(SRC)
    ref = {"inputs": {}, "witness": {}, "audit": {}, "cli": [], "probes": {}}
    inputs = dict.fromkeys(
        [(n, 0) for n in LADDER + CLI_ALGEBRAS] + AUDITS + EXTRA_AUDITS
    )
    for name, char in inputs:
        if name == "EX3":  # has bands: no AR quiver
            continue
        G = sa.knit(presentation(sa, name), sa.field_for_characteristic(char))
        T = sa.RadicalTable(G)
        ref["inputs"][key(name, char)] = {
            "quiver": quiver_summary(G),
            "layers": layer_summary(G, T),
        }
    for name in LADDER:
        ref["witness"][key(name, 0)] = witness_summary(sa.witness(family_spec(sa, name)))
    for name, char in AUDITS + EXTRA_AUDITS:
        report = sa.audit_theorems(
            presentation(sa, name), samples=AUDIT_SAMPLES, seed=0,
            field=sa.field_for_characteristic(char),
        )
        ref["audit"][key(name, char)] = audit_summary(report)

    paths = write_algebras(sa, CLI_ALGEBRAS, WORKDIR)
    for name in CLI_ALGEBRAS:
        cands = cli_candidates(sa, name)
        for kind in CLI_KINDS:
            args = cands[kind]
            if len(args) > CLI_POOL_CAP:
                rng = random.Random(f"{name}:{kind}")
                keep = sorted(rng.sample(range(len(args)), CLI_POOL_CAP))
                args = [args[i] for i in keep]
            for a in args:
                entry = {"alg": name, "kind": kind, "args": a}
                rc, out = run_cli(cli_main, cli_argv(entry, paths))
                if rc == 0:
                    ref["cli"].append({**entry, "rc": 0, "out": digest(out)})

    w3 = ref["inputs"][key("W3", 0)]["quiver"]
    ref["probes"]["witness-W3-char2"] = {
        "nodes": w3["nodes"], "arrows": w3["arrows"], "total": 6,
    }
    ref["probes"]["audit-U2_2-char2"] = ref["audit"][key("U2_2", 0)]
    rc, out = run_cli(cli_main, ["depth", paths["W3"], "e(4)", "b3", "b2 b3"])
    ref["probes"]["cli-depth-family"] = {"rc": rc, "out": digest(out)}

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(ref['inputs'])} inputs, {len(ref['cli'])} CLI commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
