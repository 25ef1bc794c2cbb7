"""Command line entry points.

Commands: roots, stable, reduce, align, verify.  Exit codes: 0 on success,
1 when an engine invariant is violated or a verification suite fails, 2 on
configuration errors.  With --json every command prints a single JSON
document; reports embed the exact charge used so runs can be replayed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import InvariantViolation
from .homcore import is_spherical, simple_object
from .reduce import OrbitStability, heart_align, reduce_to_stable
from .rootlat import (
    QuiverGraph,
    WeylWord,
    evaluate_word,
    load_quiver,
    minimal_word,
    named_quiver,
    positive_roots,
    root_sequence,
)
from .stability import CentralCharge, StabilityCondition, load_charge, random_generic_charge
from .twists import BraidWord, apply_braid, braid_word_to_text, parse_braid_word
from .verify import run_verify
from .zigzag import ZigzagAlgebra


def _add_quiver_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--type", help="named diagram, e.g. A3 or D4")
    group.add_argument("--quiver", help="path to a quiver description file")


def _add_charge_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--charge", help="path to an exact charge JSON file")
    group.add_argument(
        "--seed", type=int, metavar="N",
        help="draw a random generic charge from seed N",
    )


def _build_quiver(args) -> QuiverGraph:
    if args.type:
        return named_quiver(args.type)
    return load_quiver(args.quiver)


def _build_charge(args, q: QuiverGraph) -> CentralCharge:
    if args.charge is not None:
        charge = load_charge(args.charge)
        if len(charge) != q.vertex_count:
            raise ValueError("charge length does not match the quiver")
        return charge
    return random_generic_charge(q, random.Random(f"charge:{args.seed}"))


def _parse_root(text: str, q: QuiverGraph):
    try:
        coords = tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError:
        raise ValueError(f"bad root {text!r}; expected comma-separated integers") from None
    if len(coords) != q.vertex_count:
        raise ValueError(f"root needs {q.vertex_count} coordinates")
    return coords


def _check_vertex(token: str, vertex: int, q: QuiverGraph) -> None:
    """Reject a 0-based vertex outside the quiver, naming the 1-based token the user typed."""
    if not 0 <= vertex < q.vertex_count:
        raise ValueError(f"vertex {vertex + 1} in {token} out of range 1..{q.vertex_count}")


def _parse_expression(text: str, q: QuiverGraph) -> WeylWord:
    """Reflection words like "s2 s3 s1 a2": rightmost-first reflections of a base root."""
    tokens = text.split()
    if not tokens or not tokens[-1].startswith("a") or not tokens[-1][1:].isdigit():
        raise ValueError(f"expression {text!r} must end with a base root like a2")
    base = int(tokens[-1][1:]) - 1
    _check_vertex(tokens[-1], base, q)
    letters = []
    for token in tokens[:-1]:
        if not token.startswith("s") or not token[1:].isdigit():
            raise ValueError(f"bad reflection {token!r} in expression")
        letters.append(int(token[1:]) - 1)
        _check_vertex(token, letters[-1], q)
    return WeylWord(base=base, letters=tuple(reversed(letters)))


def _parse_word(text: str, q: QuiverGraph) -> BraidWord:
    """A braid word whose letters all name vertices of q."""
    word = parse_braid_word(text)
    for v, e in word.letters:
        _check_vertex(f"s{v + 1}" + ("'" if e == -1 else ""), v, q)
    return word


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_roots(args) -> int:
    q = _build_quiver(args)
    q.require_finite_type()
    entries = []
    for w in positive_roots(q):
        word = minimal_word(q, w)
        entries.append(
            {
                "root": list(w),
                "height": sum(w),
                "base": word.base + 1,
                "letters": [v + 1 for v in word.letters],
                "sequence": [list(r) for r in root_sequence(q, word)],
            }
        )
    report = {"count": len(entries), "roots": entries}
    lines = [f"{len(entries)} positive roots"]
    for e in entries:
        expr = " ".join(f"s{v}" for v in reversed(e["letters"])) or "(simple)"
        lines.append(f"  {tuple(e['root'])}  height {e['height']}  = {expr} a{e['base']}")
    _emit(report, args.json, lines)
    return 0


def cmd_stable(args) -> int:
    q = _build_quiver(args)
    alg = ZigzagAlgebra(q)
    charge = _build_charge(args, q)
    stab = StabilityCondition(alg, charge)
    w = _parse_root(args.root, q)
    expression = None
    if args.expression is not None:
        expression = _parse_expression(args.expression, q)
        if evaluate_word(q, expression) != w:
            raise ValueError("--expression does not evaluate to --root")
    build = stab.stable_build(w, expression)
    obj = build.obj
    if args.flip is not None:
        if not build.braid.letters:
            raise ValueError(f"--flip {args.flip}: the word of root {w} has no exponents to flip")
        if not 1 <= args.flip <= len(build.braid.letters):
            raise ValueError(f"--flip index out of range 1..{len(build.braid.letters)}")
        obj = build.flipped(args.flip - 1)
    phases = stab.phi_probes(obj)
    spread, heart = phases.spread, phases.in_heart
    report = {
        "charge": charge.to_json_dict(),
        "root": list(w),
        "signs": list(build.signs),
        "word": braid_word_to_text(build.braid),
        "flipped": args.flip,
        "object": obj.to_json_dict(),
        "checks": {
            "spherical": is_spherical(obj),
            "class_matches": obj.k_class() == w,
            "heart": heart,
            "spread_zero": spread.is_zero(),
        },
        "spread": spread.to_json_dict(),
    }
    lines = [
        f"root {tuple(w)}",
        f"signs {build.signs}",
        f"word  {braid_word_to_text(build.braid) or '(empty)'}",
        f"heart {heart}; spread {float(spread):.6f}"
        + ("  [flipped exponent, expected unstable]" if args.flip else ""),
    ]
    _emit(report, args.json, lines)
    return 0


def cmd_reduce(args) -> int:
    q = _build_quiver(args)
    alg = ZigzagAlgebra(q)
    charge = _build_charge(args, q)
    stab = StabilityCondition(alg, charge)
    word = _parse_word(args.word or "", q)
    if not 1 <= args.start <= q.vertex_count:
        raise ValueError(f"--start {args.start} out of range 1..{q.vertex_count}")
    start = apply_braid(alg, word, simple_object(alg, args.start - 1))
    trace = reduce_to_stable(stab, start, strategy=args.strategy)
    report = {
        "charge": charge.to_json_dict(),
        "input_word": args.word or "",
        "start_vertex": args.start,
        "trace": trace.to_json_dict(),
        "steps": len(trace.steps),
    }
    lines = [f"{len(trace.steps)} steps ({args.strategy} strategy)"]
    for s in trace.steps:
        verb = "untwist" if s.exponent == -1 else "twist"
        lines.append(
            f"  {verb} by {tuple(s.root)}[{s.shift}]: "
            f"spread {float(s.spread_before):.6f} -> {float(s.spread_after):.6f}"
        )
    lines.append(f"final class {trace.final.k_class()}")
    _emit(report, args.json, lines)
    return 0


def cmd_align(args) -> int:
    q = _build_quiver(args)
    alg = ZigzagAlgebra(q)
    charge = _build_charge(args, q)
    stab = StabilityCondition(alg, charge)
    transport = _parse_word(args.word or "", q)
    result = heart_align(stab, OrbitStability(transport))
    report = {
        "charge": charge.to_json_dict(),
        "transport": args.word or "",
        "alignment": result.to_json_dict(),
        "word": braid_word_to_text(result.word),
    }
    lines = [
        f"{len(result.steps)} alignment steps",
        f"alpha {float(result.alpha):.6f}",
        f"word  {braid_word_to_text(result.word) or '(empty)'}",
        "all simples inside the aligned heart window",
    ]
    _emit(report, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    results = run_verify(args.type, seeds=args.seeds)
    report = {
        "type": args.type,
        "seeds": args.seeds,
        "suites": [r.to_json_dict() for r in results],
        "ok": all(r.ok for r in results),
    }
    lines = [r.summary() for r in results]
    lines.append("ALL PASS" if report["ok"] else "FAILURES PRESENT")
    _emit(report, args.json, lines)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistcat",
        description="Exact spherical-object engine for ADE quiver categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="positive roots, minimal words, root sequences")
    _add_quiver_options(p_roots)
    p_roots.add_argument("--json", action="store_true")
    p_roots.set_defaults(func=cmd_roots)

    p_stable = sub.add_parser("stable", help="construct the stable object of a class")
    _add_quiver_options(p_stable)
    _add_charge_options(p_stable)
    p_stable.add_argument("--root", required=True, help='coordinates, e.g. "1,1,1"')
    p_stable.add_argument(
        "--expression",
        help='optional reflection expression for the root, e.g. "s2 s3 s1 a2"; '
        "defaults to the greedy minimal word",
    )
    p_stable.add_argument(
        "--flip", type=int, metavar="I",
        help="debug: flip the I-th exponent (1-based) and report the damage",
    )
    p_stable.add_argument("--json", action="store_true")
    p_stable.set_defaults(func=cmd_stable)

    p_reduce = sub.add_parser("reduce", help="reduce a braid image of a simple to a stable object")
    _add_quiver_options(p_reduce)
    _add_charge_options(p_reduce)
    p_reduce.add_argument("--word", default="", help='braid word, e.g. "s2\' s3\' s1"')
    p_reduce.add_argument("--start", type=int, required=True, help="1-based simple to start from")
    p_reduce.add_argument("--strategy", choices=("bottom", "top"), default="bottom")
    p_reduce.add_argument("--json", action="store_true")
    p_reduce.set_defaults(func=cmd_reduce)

    p_align = sub.add_parser("align", help="realign a transported stability condition")
    _add_quiver_options(p_align)
    _add_charge_options(p_align)
    p_align.add_argument("--word", default="", help="transport braid word")
    p_align.add_argument("--json", action="store_true")
    p_align.set_defaults(func=cmd_align)

    p_verify = sub.add_parser("verify", help="run the randomized verification suites")
    p_verify.add_argument("--type", required=True, help="named diagram, e.g. A3")
    p_verify.add_argument("--seeds", type=int, default=5)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
