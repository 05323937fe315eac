"""Command-line front door.

Subcommands::

    label    classify the edges of a projection and show per-face signs
    run      augment (and by default merge) a projection, emit the result
    gen      emit a deterministic corpus of random braid-closure PD codes
    verify   check a result against its original, exit 0/1

Exit codes: 0 success, 1 verification failure, 2 input error, 3 input
already alternating under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import augment as aug_mod
from . import codec
from . import diagram as dgm
from . import gen as gen_mod
from . import merge as merge_mod
from .diagram import EdgeClass, Tag
from .errors import AlternatorError
from .verify import verify as run_verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_ALREADY_ALTERNATING = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_or_exit(text: str):
    try:
        return codec.parse_pd(text)
    except AlternatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def cmd_label(args) -> int:
    d = _parse_or_exit(_read_input(args.input))
    if args.format == "json":
        print(codec.emit_json(d))
        return EXIT_OK
    classes = dgm.classify_edges(d)
    counts = dgm.classification_counts(d)
    print(f"alternating: {str(dgm.is_alternating(d)).lower()}")
    print(
        "non-alternating edges: %d (positive: %d, negative: %d)"
        % (
            counts[EdgeClass.POSITIVE_NON_ALT] + counts[EdgeClass.NEGATIVE_NON_ALT],
            counts[EdgeClass.POSITIVE_NON_ALT],
            counts[EdgeClass.NEGATIVE_NON_ALT],
        )
    )
    for eid in sorted(classes):
        pair = classes[eid]
        print(
            "edge %s: %s%s (%s)"
            % (eid, pair.signs[0].value, pair.signs[1].value,
               pair.classification.value)
        )
    for face in dgm.trace_faces(d):
        signs = [
            s.value for _, s in aug_mod.region_incidences(d, face)
        ]
        print("face %d: %s" % (face.id, " ".join(signs) if signs else "(none)"))
    return EXIT_OK


def _emit_graph(diagram, path: str) -> None:
    doc = {
        "directed": False,
        "multigraph": True,
        "nodes": [{"id": cid} for cid in sorted(diagram.crossings)],
        "links": [
            {
                "id": e.id,
                "source": diagram.vertex_of(e.darts[0]),
                "target": diagram.vertex_of(e.darts[1]),
                "tag": e.tag.value,
            }
            for e in sorted(diagram.edges.values(), key=lambda e: e.id)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_run(args) -> int:
    d = _parse_or_exit(_read_input(args.input))
    if any(e.tag is Tag.AUGMENT for e in d.edges.values()):
        print(
            "error: input already names augmenting edges in its A{...} block; "
            "run takes a plain projection (to check a result against its "
            "original, use 'alternator verify ORIGINAL RESULT')",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    already = dgm.is_alternating(d)
    if already and args.strict:
        print("input is already alternating", file=sys.stderr)
        return EXIT_ALREADY_ALTERNATING
    if already:
        print("notice: input is already alternating, passing through",
              file=sys.stderr)

    pushes = 0
    if args.no_merge or already:
        result = aug_mod.augment_regions(d)
    else:
        result, stats = merge_mod.full_pipeline_with_stats(d)
        pushes = stats.pushes

    report = None
    if args.verify:
        expected = result.circle_count if (args.no_merge or already) else 1
        report = run_verify(d, result, expected, pushes=pushes)

    if args.format == "json":
        print(codec.emit_json(result.diagram, report))
    else:
        print(codec.emit_pd(result.diagram))
    if args.emit_graph:
        _emit_graph(result.diagram, args.emit_graph)
    if report is not None and not report.passed:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.strands < 2 or args.length < args.strands - 1 or args.count < 1:
        print("error: invalid bounds", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for i in range(args.count):
        d = gen_mod.random_diagram(args.strands, args.length, args.seed + i)
        print(codec.emit_pd(d))
    return EXIT_OK


def cmd_verify(args) -> int:
    original = _parse_or_exit(_read_input(args.original))
    result_diagram = _parse_or_exit(_read_input(args.result))
    result = aug_mod.from_parsed(result_diagram)
    if args.expect_circles is not None:
        expected = args.expect_circles
    else:
        expected = 0 if dgm.is_alternating(original) else 1
    report = run_verify(original, result, expected)
    print(json.dumps(codec.report_to_dict(report), indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alternator",
        description="Interweave an unknot into a link projection so the "
        "result alternates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="classify edges and show face signs")
    p.add_argument("input", nargs="?", default="-", help="PD file or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("run", help="augment and merge a projection")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--no-merge", action="store_true",
                   help="stop after region augmentation")
    p.add_argument("--format", choices=("pd", "json"), default="pd")
    p.add_argument("--verify", action="store_true",
                   help="embed a certificate check, exit 1 on failure")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the input is already alternating")
    p.add_argument("--emit-graph", metavar="FILE",
                   help="also write an adjacency graph as JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="emit random braid-closure PD codes")
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--length", type=int, default=12)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a result against its original")
    p.add_argument("original")
    p.add_argument("result")
    p.add_argument("--expect-circles", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except AlternatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
