"""Command-line front end.

Subcommands: validate, verdict, double, decompose, fixtures.  All
output is deterministic; JSON mode prints a single sorted-keys
document.  Exit code 0 means the run completed (whatever the verdict
was), 1 means an axiom check failed, 2 covers missing or malformed
input and input above a size cap, 3 means the search budget ran out.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import corpus
from .errors import InputError, MtcError, SearchBudgetExceeded
from .fusion import validate as validate_ring
from .modular import double as double_md
from .modular import validate_modular
from .multifusion import block_partition, morita_witness
from .obstruction import verdict as run_verdict
from .pointed import validate_metric
from .report import ValidationReport
from .specfile import CategorySpecFile, json_text

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_BUDGET = 3


def _emit_json(obj) -> None:
    sys.stdout.write(json_text(obj))


def _collect_reports(spec: CategorySpecFile) -> list:
    reports = []
    if spec.metric is not None:
        reports.append(validate_metric(spec.metric))
    if spec.ring is not None:
        reports.append(validate_ring(spec.ring))
    if spec.modular is not None:
        reports.append(validate_modular(spec.modular))
    reports.append(spec.cross_section_checks())
    return reports


def _print_reports(reports: list, fmt: str) -> None:
    if fmt == "json":
        _emit_json({"reports": [r.to_json_dict() for r in reports]})
    else:
        for report in reports:
            text = report.render_text()
            if text:
                sys.stdout.write(text + "\n")


def cmd_validate(args) -> int:
    spec = CategorySpecFile.load(args.path)
    reports = _collect_reports(spec)
    _print_reports(reports, args.format)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_INVALID


def cmd_verdict(args) -> int:
    spec = CategorySpecFile.load(args.path)
    reports = _collect_reports(spec)
    if not all(r.ok for r in reports):
        _print_reports(reports, args.format)
        return EXIT_INVALID
    md = spec.effective_modular()
    if md is None:
        raise InputError("verdict needs a modular or metric section")
    hint = spec.metric if args.pointed else None
    if args.pointed and hint is None:
        raise InputError("--pointed given but the file has no metric section")
    report = run_verdict(md, pointed_hint=hint)
    payload = report.to_json_dict()
    if args.format == "json":
        _emit_json(payload)
    else:
        sys.stdout.write(f"verdict: {payload['verdict']}\n")
        sys.stdout.write(f"central charge: {payload['central_charge']}\n")
        for n in payload["candidates"]:
            sys.stdout.write(f"candidate: {n}\n")
        if "subgroups" in payload:
            for sub in payload["subgroups"]:
                sys.stdout.write(f"subgroup: {{{', '.join(sub)}}}\n")
        for caveat in payload["caveats"]:
            sys.stdout.write(f"caveat: {caveat}\n")
    return EXIT_OK


def cmd_double(args) -> int:
    spec = CategorySpecFile.load(args.path)
    if spec.modular is None:
        raise InputError("double needs a modular section")
    report = validate_modular(spec.modular)
    if not report.ok:
        _print_reports([report], args.format)
        return EXIT_INVALID
    doubled = CategorySpecFile(
        name=f"double_{spec.name}" if spec.name else "double",
        modular=double_md(spec.modular),
        notes=(f"Double of {args.path}.",),
    )
    doubled.save(args.out)
    if args.format == "json":
        _emit_json({"written": args.out, "rank": doubled.modular.rank})
    else:
        sys.stdout.write(f"wrote {args.out} (rank {doubled.modular.rank})\n")
    return EXIT_OK


def cmd_decompose(args) -> int:
    spec = CategorySpecFile.load(args.path)
    ring = spec.effective_ring()
    if ring is None:
        raise InputError("decompose needs a fusion ring section")
    report = validate_ring(ring)
    if not report.ok:
        _print_reports([report], args.format)
        return EXIT_INVALID
    dec = block_partition(ring)
    payload = dec.to_json_dict()
    payload["morita_witnesses"] = [
        morita_witness(dec, comp[0]).to_json_dict() for comp in dec.components
    ]
    if args.format == "json":
        _emit_json(payload)
    else:
        sys.stdout.write(f"components: {len(dec.components)}\n")
        for i, comp in enumerate(dec.components):
            labels = [ring.labels[ring.unit[u]] for u in comp]
            sys.stdout.write(f"  component {i}: units {labels}\n")
        for label, (i, j) in sorted(payload["blocks"].items()):
            sys.stdout.write(f"  block[{label}] = ({i}, {j})\n")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    names = corpus.fixture_names()
    if args.format == "json":
        _emit_json({"fixtures": names})
    else:
        for name in names:
            sys.stdout.write(name + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; every parse makes
    a fresh namespace, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="mtcbound",
        description="Validate exact category data and decide the gapped-boundary question.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="run every applicable axiom check")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verdict", parents=[common], help="decide the gapped-boundary question")
    p.add_argument("path")
    p.add_argument(
        "--pointed",
        action="store_true",
        help="use the metric section for an exact subgroup answer",
    )
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("double", parents=[common], help="write the double of a modular section")
    p.add_argument("path")
    p.add_argument("out")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("decompose", parents=[common], help="block decomposition of a fusion ring")
    p.add_argument("path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("fixtures", parents=[common], help="list the built-in corpus")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except MtcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
