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


def _quiver_and_table(p, field):
    G = knit(p, field)
    return G, RadicalTable(G)


def _first_arrow(G, a, b):
    """The canonical arrow a -> b between two nodes: the first one knitted."""
    arrows = G.arrows_between(a.index, b.index)
    if not arrows:
        raise StringAlgebraError(f"no arrow {a.text} -> {b.text}")
    return arrows[0].morphism


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


@functools.cache
def _parser():
    """The argparse tree and the command table; built once, on the first main() call.

    A command returns (payload, text) or, for audit, (payload, text, exit code).
    The payload is what --json prints, or None where the command prints text
    only; either may be a function of no arguments, called only if printed.
    """
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

        def text():
            count = nonzero_path_count(p)
            return _lines(
                f"algebra {p.name or '(unnamed)'}",
                *(
                    f"  condition ({c.key}): {'pass' if c.passed else f'FAIL: {c.witness}'}"
                    for c in report.conditions
                ),
                "string algebra" if report.is_string_algebra else "NOT a string algebra",
                f"nonzero paths: {'infinite' if count == math.inf else count}",
            )

        return report.as_dict, text

    @cmd("strings", help="enumerate canonical strings")
    def _strings(args, p, field):
        _at_least(0, "--max-len", args.max_len)
        words = [walk_to_text(w.walk) for w in enumerate_strings(p, max_len=args.max_len)]
        return {"strings": words}, "\n".join(words) + "\n"

    _strings.parser.add_argument("--max-len", type=int, default=None)

    @cmd("bands", help="canonical band words up to a length bound")
    def _bands(args, p, field):
        _at_least(0, "--max-len", args.max_len)
        bands = [walk_to_text(b) for b in find_bands(p, args.max_len)]
        return {"bands": bands}, _lines(*bands)

    _bands.parser.add_argument("--max-len", type=int, required=True)

    @cmd("module", help="realize a string module")
    def _module(args, p, field):
        M = realize(p, walk_from_text(args.word), field)
        word = walk_to_text(M.word.walk)
        dims = " ".join(f"{v}:{M.rep.dims[v]}" for v in p.quiver.vertices if M.rep.dims[v])
        return lambda: {"word": word, **M.rep.as_dict()}, f"{word}  dims {dims}\n"

    _module.parser.add_argument("word", help="walk text, e.g. 'b1 b2^- a' or 'e(v)'")

    @cmd("tau", help="translate of a string module")
    def _tau(args, p, field):
        t = tau(p, realize(p, walk_from_text(args.word), field), field)
        word = walk_to_text(t.word.walk)
        return {"word": word, "dims": t.rep.dims}, word + "\n"

    _tau.parser.add_argument("word")

    @cmd("tau-orbit", help="iterated translates, each checked by its almost split sequence")
    def _tau_orbit(args, p, field):
        _at_least(0, "--steps", args.steps)
        M = realize(p, walk_from_text(args.word), field)
        orbit = tau_orbit(p, M, args.steps, field)
        words = [walk_to_text(m.word.walk) for m in orbit.modules]
        tail = "  [stopped: projective]" if orbit.hit_projective else ""
        payload = {"orbit": words, "stoppedAtProjective": orbit.hit_projective}
        return payload, " -> ".join(words) + tail + "\n"

    _tau_orbit.parser.add_argument("word")
    _tau_orbit.parser.add_argument("--steps", type=int, required=True)

    @cmd("knit", help="assemble the AR quiver")
    def _knit(args, p, field):
        G = knit(p, field)
        if args.dot:
            return None, G.to_dot()
        return G.to_json, lambda: _lines(
            f"{len(G.nodes)} nodes, {len(G.arrows)} arrows",
            *(f"  {G.nodes[a.source].text} -> {G.nodes[a.target].text}" for a in G.arrows),
            *(
                f"  tau({G.nodes[x].text}) = {G.nodes[tx].text}"
                for x, tx in sorted(G.tau_pairs.items())
            ),
        )

    _knit.parser.add_argument("--dot", action="store_true", help="emit DOT")

    @cmd("hom", help="dimension and basis of a Hom space")
    def _hom(args, p, field):
        M = realize(p, walk_from_text(args.source), field)
        N = realize(p, walk_from_text(args.target), field)
        H = hom_basis(M.rep, N.rep)
        return (
            lambda: {"dimension": H.dimension, "basis": [f.as_dict() for f in H.basis]},
            f"dim Hom = {H.dimension}\n",
        )

    _hom.parser.add_argument("source")
    _hom.parser.add_argument("target")

    @cmd("radical-profile", help="radical layer dimensions for a node pair")
    def _radical_profile(args, p, field):
        G, T = _quiver_and_table(p, field)
        x = G.node_of(walk_from_text(args.source))
        y = G.node_of(walk_from_text(args.target))
        prof = T.profile(x, y)
        return prof.as_dict, f"{x.text} -> {y.text}: {' '.join(str(d) for d in prof.dims)}\n"

    _radical_profile.parser.add_argument("source")
    _radical_profile.parser.add_argument("target")

    @cmd("depth", help="depth of the composite of canonical arrows along a node path")
    def _depth(args, p, field):
        G, T = _quiver_and_table(p, field)
        nodes = [G.node_of(walk_from_text(w)) for w in args.words]
        if len(nodes) < 2:
            raise StringAlgebraError("depth needs a path of at least two nodes")
        comp = compose_chain([_first_arrow(G, a, b) for a, b in zip(nodes, nodes[1:])])
        d = T.depth(comp, nodes[0], nodes[-1])
        if d == math.inf:
            return {"depth": None}, "zero\n"
        return {"depth": d}, f"{d}\n"

    _depth.parser.add_argument("words", nargs="+")

    @cmd("degree", help="left/right degree of an irreducible morphism")
    def _degree(args, p, field):
        G, T = _quiver_and_table(p, field)
        if args.theta:
            f, src, dst = theta_morphism(G, args.theta)
        elif args.iota:
            f, src, dst = iota_morphism(G, args.iota)
        elif args.source and args.target:
            src = G.node_of(walk_from_text(args.source))
            dst = G.node_of(walk_from_text(args.target))
            f = _first_arrow(G, src, dst)
        else:
            raise StringAlgebraError("give --theta V, --iota V, or --source/--target")
        deg = _checked(T.degree, f, args.side, bound=args.bound, source=src, target=dst)
        payload = {
            "side": args.side,
            "value": deg.value if deg.is_finite else None,
            "finite": deg.is_finite,
            "witnessNode": deg.witness_node.text if deg.witness_node else None,
        }
        return payload, f"d_{args.side[0]} = {deg.value if deg.is_finite else 'infinite'}\n"

    _degree.parser.add_argument("--side", choices=["left", "right"], required=True)
    _degree.parser.add_argument("--theta", help="vertex u for I(u) -> I(u)/soc")
    _degree.parser.add_argument("--iota", help="vertex u for rad P(u) -> P(u)")
    _degree.parser.add_argument("--source", help="source node word")
    _degree.parser.add_argument("--target", help="target node word")
    _degree.parser.add_argument("--bound", type=int, default=None)

    @cmd("cg-quiver", help="counting quiver over strings at a vertex")
    def _cg(args, p, field):
        q = cg_quiver(p, args.vertex, args.side)
        words = [walk_to_text(w) for w in q.vertex_walks]
        return q.as_dict, _lines(
            f"{q.order} vertices",
            *("  " + w for w in words),
            *(f"  {words[i]} -> {words[j]}" for i, j in q.arrows),
        )

    _cg.parser.add_argument("--vertex", required=True)
    _cg.parser.add_argument("--side", choices=["ending", "starting"], required=True)

    @cmd("detect", help="detect the local translate-arrow patterns")
    def _detect(args, p, field):
        matches = detect_local_patterns(p)
        text = "".join(f"{m.pattern_id}: {m.binding}\n" for m in matches)
        return lambda: {"matches": [m.as_dict() for m in matches]}, text or "no pattern matches\n"

    @cmd("audit", help="run the four structure audits")
    def _audit(args, p, field):
        _at_least(1, "--samples", args.samples)
        report = audit_theorems(p, samples=args.samples, seed=args.seed, field=field)
        text = _lines(
            f"audits on {report.algebra or '(unnamed)'}",
            *(f"  {k}: {'pass' if a['passed'] else 'FAIL'}" for k, a in report.audits.items()),
            "PASS" if report.passed else "FAIL",
        )
        return report.as_dict, text, 0 if report.passed else 2

    _audit.parser.add_argument(
        "--samples", type=int, default=32,
        help="perturbations per triple that the radical table does not certify")
    _audit.parser.add_argument("--seed", type=int, default=0)

    @cmd("family", help="print a family presentation")
    def _family(args, p, field):
        return None, serialize_presentation(p)

    @cmd("witness", help="build and verify a deep-composite witness chain")
    def _witness(args, p, field):
        if not args.family:
            raise StringAlgebraError("witness needs --family")
        spec = _checked(make_family, args.family, m=args.m, n=args.n)
        _checked(require_witness_parameters, spec)
        w = witness(spec, field)
        return w.as_dict, _lines(
            f"{args.family} witness: expected depth {w.expected_depth}, verified",
            "  chain: " + " -> ".join(n.text for n in w.node_path),
            f"  depths: total={w.depths['total']} prefix={w.depths['prefix']} "
            f"suffix={w.depths['suffix']}",
        )

    return parser, commands


def main(argv=None):
    parser, commands = _parser()
    args = parser.parse_args(argv)
    try:
        field = _checked(field_for_characteristic, args.char)
        p = _resolve(args, family_only=(args.command in ("family", "witness")))
        payload, text, *code = commands[args.command](args, p, field)
        if args.json and payload is not None:
            payload = payload() if callable(payload) else payload
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        elif callable(text):
            text = text()
        _emit(args, text)
        return code[0] if code else 0
    except _UsageError as exc:
        sys.stderr.write(f"stringar: usage error: {exc}\n")
        return 3
    except StringAlgebraError as exc:
        sys.stderr.write(f"stringar: [{exc.code}] {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
