"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 audit counterexample, 3 usage error.
Every command reads its algebra from a presentation file or from inline
family flags (--family/--m/--n), never both.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .artheory import knit, tau, tau_orbit
from .configurations import audit_theorems, detect_local_patterns
from .errors import StringAlgebraError
from .families import make_family, require_witness_parameters, witness
from .fields import field_for_characteristic
from .modules import compose_chain, hom_basis, realize
from .presentation import (
    nonzero_path_count,
    parse_presentation,
    serialize_presentation,
    validate_string_algebra,
)
from .radical import RadicalTable, cg_quiver, iota_morphism, theta_morphism
from .strings import enumerate_strings, find_bands, walk_from_text, walk_to_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _checked(fn, *args, **kw):
    """Call fn on command-line parameters; the ValueError it raises is a usage error."""
    try:
        return fn(*args, **kw)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _at_least(low, flag, value):
    """Reject a count below low (None means no count given) as a usage error."""
    if value is not None and value < low:
        raise _UsageError(f"{flag} must be at least {low}, got {value}")


@contextlib.contextmanager
def _file_errors(verb, path):
    """A file that cannot be read or written (missing, a directory, not UTF-8) is a usage error."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot {verb} {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _add_input_args(sp, family_only=False):
    if not family_only:
        sp.add_argument("algebra", nargs="?", help="presentation file path")
    sp.add_argument("--family", choices=["W", "U", "V"], help="inline family")
    sp.add_argument("--m", type=int, help="family parameter m")
    sp.add_argument("--n", type=int, help="family parameter n")
    sp.add_argument("--char", type=int, default=0, help="field characteristic")
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.add_argument("--output", help="write output to this file")


def _resolve(args, family_only=False):
    path = None if family_only else getattr(args, "algebra", None)
    if path and args.family and hasattr(args, "words") and not os.path.isfile(path):
        # with --family, argparse still fills the optional file slot before
        # the `words` list: the first path word landed there
        args.words.insert(0, path)
        path = None
    if path and args.family:
        raise _UsageError("give a presentation file or --family, not both")
    if args.family:
        return _checked(make_family, args.family, m=args.m, n=args.n).presentation
    if not path:
        raise _UsageError("no input: give a presentation file or --family")
    with _file_errors("read", path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_presentation(text)


def _emit(args, text):
    if args.output:
        path = args.output
        base = os.environ.get("STRINGAR_OUTPUT_DIR")
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        with _file_errors("write", path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _depth_str(d):
    return "zero" if d == math.inf else str(d)


@functools.cache
def _parser():
    """The argparse tree and the command table; built once, on the first main() call."""
    parser = _Parser(prog="stringar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}

    def cmd(name, **kw):
        def deco(fn):
            sp = sub.add_parser(name, **kw)
            _add_input_args(sp, family_only=(name in ("family", "witness")))
            fn.parser = sp
            commands[name] = fn
            return fn

        return deco

    @cmd("validate", help="check the five string-algebra conditions")
    def _validate(args, p, field):
        report = validate_string_algebra(p)
        if args.json:
            _emit_json(args, report.as_dict())
        else:
            lines = [f"algebra {p.name or '(unnamed)'}"]
            for c in report.conditions:
                state = "pass" if c.passed else f"FAIL: {c.witness}"
                lines.append(f"  condition ({c.key}): {state}")
            lines.append(
                "string algebra" if report.is_string_algebra else "NOT a string algebra"
            )
            count = nonzero_path_count(p)
            lines.append(
                f"nonzero paths: {'infinite' if count == math.inf else count}"
            )
            _emit(args, "\n".join(lines) + "\n")
        return 0

    @cmd("strings", help="enumerate canonical strings")
    def _strings(args, p, field):
        _at_least(0, "--max-len", args.max_len)
        words = enumerate_strings(p, max_len=args.max_len)
        if args.json:
            _emit_json(args, {"strings": [walk_to_text(w.walk) for w in words]})
        else:
            _emit(args, "\n".join(walk_to_text(w.walk) for w in words) + "\n")
        return 0

    _strings.parser.add_argument("--max-len", type=int, default=None)

    @cmd("bands", help="canonical band words up to a length bound")
    def _bands(args, p, field):
        _at_least(0, "--max-len", args.max_len)
        bands = find_bands(p, args.max_len)
        if args.json:
            _emit_json(args, {"bands": [walk_to_text(b) for b in bands]})
        else:
            _emit(args, "".join(walk_to_text(b) + "\n" for b in bands))
        return 0

    _bands.parser.add_argument("--max-len", type=int, required=True)

    @cmd("module", help="realize a string module")
    def _module(args, p, field):
        M = realize(p, walk_from_text(args.word), field)
        if args.json:
            _emit_json(args, {"word": walk_to_text(M.word.walk), **M.rep.as_dict()})
        else:
            dims = " ".join(
                f"{v}:{M.rep.dims[v]}" for v in p.quiver.vertices if M.rep.dims[v]
            )
            _emit(args, f"{walk_to_text(M.word.walk)}  dims {dims}\n")
        return 0

    _module.parser.add_argument("word", help="walk text, e.g. 'b1 b2^- a' or 'e(v)'")

    @cmd("tau", help="translate of a string module")
    def _tau(args, p, field):
        M = realize(p, walk_from_text(args.word), field)
        t = tau(p, M, field)
        if args.json:
            _emit_json(args, {"word": walk_to_text(t.word.walk), "dims": t.rep.dims})
        else:
            _emit(args, walk_to_text(t.word.walk) + "\n")
        return 0

    _tau.parser.add_argument("word")

    @cmd("tau-orbit", help="iterated translates, each checked by its almost split sequence")
    def _tau_orbit(args, p, field):
        _at_least(0, "--steps", args.steps)
        M = realize(p, walk_from_text(args.word), field)
        orbit = tau_orbit(p, M, args.steps, field)
        payload = {
            "orbit": [walk_to_text(m.word.walk) for m in orbit.modules],
            "stoppedAtProjective": orbit.hit_projective,
        }
        if args.json:
            _emit_json(args, payload)
        else:
            tail = "  [stopped: projective]" if orbit.hit_projective else ""
            _emit(args, " -> ".join(payload["orbit"]) + tail + "\n")
        return 0

    _tau_orbit.parser.add_argument("word")
    _tau_orbit.parser.add_argument("--steps", type=int, required=True)

    @cmd("knit", help="assemble the AR quiver")
    def _knit(args, p, field):
        G = knit(p, field)
        if args.dot:
            _emit(args, G.to_dot())
        elif args.json:
            _emit_json(args, G.to_json())
        else:
            lines = [f"{len(G.nodes)} nodes, {len(G.arrows)} arrows"]
            for a in G.arrows:
                lines.append(f"  {G.nodes[a.source].text} -> {G.nodes[a.target].text}")
            for x, tx in sorted(G.tau_pairs.items()):
                lines.append(f"  tau({G.nodes[x].text}) = {G.nodes[tx].text}")
            _emit(args, "\n".join(lines) + "\n")
        return 0

    _knit.parser.add_argument("--dot", action="store_true", help="emit DOT")

    @cmd("hom", help="dimension and basis of a Hom space")
    def _hom(args, p, field):
        M = realize(p, walk_from_text(args.source), field)
        N = realize(p, walk_from_text(args.target), field)
        H = hom_basis(M.rep, N.rep)
        if args.json:
            _emit_json(
                args,
                {
                    "dimension": H.dimension,
                    "basis": [f.as_dict() for f in H.basis],
                },
            )
        else:
            _emit(args, f"dim Hom = {H.dimension}\n")
        return 0

    _hom.parser.add_argument("source")
    _hom.parser.add_argument("target")

    @cmd("radical-profile", help="radical layer dimensions for a node pair")
    def _radical_profile(args, p, field):
        G = knit(p, field)
        T = RadicalTable(G)
        x = G.node_of(walk_from_text(args.source))
        y = G.node_of(walk_from_text(args.target))
        prof = T.profile(x, y)
        if args.json:
            _emit_json(args, prof.as_dict())
        else:
            dims = " ".join(str(d) for d in prof.dims)
            _emit(args, f"{x.text} -> {y.text}: {dims}\n")
        return 0

    _radical_profile.parser.add_argument("source")
    _radical_profile.parser.add_argument("target")

    @cmd("depth", help="depth of the composite of canonical arrows along a node path")
    def _depth(args, p, field):
        G = knit(p, field)
        T = RadicalTable(G)
        nodes = [G.node_of(walk_from_text(w)) for w in args.words]
        if len(nodes) < 2:
            raise StringAlgebraError("depth needs a path of at least two nodes")
        chain = []
        for a, b in zip(nodes, nodes[1:]):
            arrows = G.arrows_between(a.index, b.index)
            if not arrows:
                raise StringAlgebraError(f"no arrow {a.text} -> {b.text}")
            chain.append(arrows[0].morphism)
        comp = compose_chain(chain)
        d = T.depth(comp, nodes[0], nodes[-1])
        if args.json:
            _emit_json(args, {"depth": None if d == math.inf else d})
        else:
            _emit(args, _depth_str(d) + "\n")
        return 0

    _depth.parser.add_argument("words", nargs="+")

    @cmd("degree", help="left/right degree of an irreducible morphism")
    def _degree(args, p, field):
        G = knit(p, field)
        T = RadicalTable(G)
        if args.theta:
            f, src, dst = theta_morphism(G, args.theta)
        elif args.iota:
            f, src, dst = iota_morphism(G, args.iota)
        elif args.source and args.target:
            src = G.node_of(walk_from_text(args.source))
            dst = G.node_of(walk_from_text(args.target))
            arrows = G.arrows_between(src.index, dst.index)
            if not arrows:
                raise StringAlgebraError(f"no arrow {src.text} -> {dst.text}")
            f = arrows[0].morphism
        else:
            raise StringAlgebraError("give --theta V, --iota V, or --source/--target")
        deg = _checked(T.degree, f, args.side, bound=args.bound, source=src, target=dst)
        payload = {
            "side": args.side,
            "value": None if not deg.is_finite else deg.value,
            "finite": deg.is_finite,
            "witnessNode": deg.witness_node.text if deg.witness_node else None,
        }
        if args.json:
            _emit_json(args, payload)
        else:
            val = "infinite" if not deg.is_finite else str(deg.value)
            _emit(args, f"d_{args.side[0]} = {val}\n")
        return 0

    _degree.parser.add_argument("--side", choices=["left", "right"], required=True)
    _degree.parser.add_argument("--theta", help="vertex u for I(u) -> I(u)/soc")
    _degree.parser.add_argument("--iota", help="vertex u for rad P(u) -> P(u)")
    _degree.parser.add_argument("--source", help="source node word")
    _degree.parser.add_argument("--target", help="target node word")
    _degree.parser.add_argument("--bound", type=int, default=None)

    @cmd("cg-quiver", help="counting quiver over strings at a vertex")
    def _cg(args, p, field):
        q = cg_quiver(p, args.vertex, args.side)
        if args.json:
            _emit_json(args, q.as_dict())
        else:
            lines = [f"{q.order} vertices"]
            for w in q.vertex_walks:
                lines.append("  " + walk_to_text(w))
            for i, j in q.arrows:
                lines.append(
                    f"  {walk_to_text(q.vertex_walks[i])} -> {walk_to_text(q.vertex_walks[j])}"
                )
            _emit(args, "\n".join(lines) + "\n")
        return 0

    _cg.parser.add_argument("--vertex", required=True)
    _cg.parser.add_argument("--side", choices=["ending", "starting"], required=True)

    @cmd("detect", help="detect the local translate-arrow patterns")
    def _detect(args, p, field):
        matches = detect_local_patterns(p)
        if args.json:
            _emit_json(args, {"matches": [m.as_dict() for m in matches]})
        else:
            if not matches:
                _emit(args, "no pattern matches\n")
            else:
                _emit(
                    args,
                    "".join(f"{m.pattern_id}: {m.binding}\n" for m in matches),
                )
        return 0

    @cmd("audit", help="run the four structure audits")
    def _audit(args, p, field):
        _at_least(1, "--samples", args.samples)
        report = audit_theorems(p, samples=args.samples, seed=args.seed, field=field)
        if args.json:
            _emit_json(args, report.as_dict())
        else:
            lines = [f"audits on {report.algebra or '(unnamed)'}"]
            for name, a in report.audits.items():
                lines.append(f"  {name}: {'pass' if a['passed'] else 'FAIL'}")
            lines.append("PASS" if report.passed else "FAIL")
            _emit(args, "\n".join(lines) + "\n")
        return 0 if report.passed else 2

    _audit.parser.add_argument("--samples", type=int, default=32)
    _audit.parser.add_argument("--seed", type=int, default=0)

    @cmd("family", help="print a family presentation")
    def _family(args, p, field):
        _emit(args, serialize_presentation(p))
        return 0

    @cmd("witness", help="build and verify a deep-composite witness chain")
    def _witness(args, p, field):
        if not args.family:
            raise StringAlgebraError("witness needs --family")
        spec = _checked(make_family, args.family, m=args.m, n=args.n)
        _checked(require_witness_parameters, spec)
        w = witness(spec, field)
        if args.json:
            _emit_json(args, w.as_dict())
        else:
            lines = [
                f"{args.family} witness: expected depth {w.expected_depth}, verified",
                "  chain: " + " -> ".join(n.text for n in w.node_path),
                f"  depths: total={w.depths['total']} prefix={w.depths['prefix']} "
                f"suffix={w.depths['suffix']}",
            ]
            _emit(args, "\n".join(lines) + "\n")
        return 0

    return parser, commands


def main(argv=None):
    parser, commands = _parser()
    args = parser.parse_args(argv)
    fn = commands[args.command]
    try:
        field = _checked(field_for_characteristic, args.char)
        p = _resolve(args, family_only=(args.command in ("family", "witness")))
        return fn(args, p, field)
    except _UsageError as exc:
        sys.stderr.write(f"stringar: usage error: {exc}\n")
        return 3
    except StringAlgebraError as exc:
        sys.stderr.write(f"stringar: [{exc.code}] {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
