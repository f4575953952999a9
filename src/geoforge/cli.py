"""Command-line interface: generate, bootstrap, curate, stats, verify, check."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .dataset import CorruptRecordError, load_records, read_jsonl
from .pipeline import (
    PipelineConfig,
    PipelineError,
    bootstrap,
    check_answer,
    curate_testset,
    generate,
    stats,
    verify,
)
from .statements import StatementError


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """``--config``, then every flag given whose dest is a config field."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise PipelineError(f"{args.config}: not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise PipelineError(f"{args.config}: not a JSON object")
    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    doc.update({k: v for k, v in vars(args).items() if k in names and v is not None})
    return PipelineConfig.from_doc(doc)


def _cmd_generate(args: argparse.Namespace) -> int:
    report = generate(_load_config(args), args.out)
    print(f"wrote {report.count} records to {args.out}")
    for failure in report.failures:
        print(f"skipped: {failure}", file=sys.stderr)
    return 0


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    report = bootstrap(_load_config(args), args.in_dir, args.out)
    generations = sorted({r.metadata.bootstrap_generation for r in report.records})
    label = ",".join(map(str, generations))
    print(f"wrote {report.count} generation-{label} records to {args.out}")
    for failure in report.failures:
        print(f"skipped: {failure}", file=sys.stderr)
    return 0


def _cmd_curate(args: argparse.Namespace) -> int:
    chosen = curate_testset(args.in_dir, args.per_tier, args.out)
    print(f"curated {len(chosen)} test records to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    records = load_records(args.in_dir)
    report = stats(records)
    if args.json:
        print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    else:
        print(report.render_text(), end="")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.in_dir)
    for record_id, reason in report.failures:
        print(f"FAIL {record_id}: {reason}")
    print(f"verified {report.total} records, {len(report.failures)} failures")
    return 0 if report.ok else 1


def _jsonl_objects(path: str, *fields: str) -> Iterator[tuple[int, dict]]:
    """Each non-blank line of ``path``, with its number, as a JSON object
    whose ``fields`` hold strings; any other line raises naming it."""
    for n, doc in read_jsonl(path):
        if not isinstance(doc, dict):
            raise PipelineError(f"{path} line {n}: not a JSON object")
        for field in fields:
            if not isinstance(doc.get(field), str):
                raise PipelineError(f"{path} line {n}: {field!r} is not a string")
        yield n, doc


def _cmd_check(args: argparse.Namespace) -> int:
    keys: dict[str, tuple[float, int | None]] = {}
    for n, doc in _jsonl_objects(args.key, "id"):
        try:
            value = float(Fraction(doc["exact"]) if doc.get("exact") else doc["approx"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise PipelineError(f"{args.key} line {n}: no numeric answer: {exc}") from exc
        tier = doc.get("tier")
        if tier is not None and type(tier) is not int:
            raise PipelineError(f"{args.key} line {n}: tier is not an integer: {tier!r}")
        keys[doc["id"]] = (value, tier)
    correct = 0
    total = 0
    by_tier: dict[int | None, list[int]] = {}
    for _, doc in _jsonl_objects(args.pred, "id", "prediction"):
        key = keys.get(doc["id"])
        if key is None:
            continue
        total += 1
        result = check_answer(doc["prediction"], key[0])
        bucket = by_tier.setdefault(key[1], [0, 0])
        bucket[1] += 1
        if result.correct:
            correct += 1
            bucket[0] += 1
    if total == 0:
        print("no overlapping ids between predictions and key", file=sys.stderr)
        return 1
    print(f"accuracy: {correct}/{total} = {correct / total:.2%}")
    for tier in sorted(by_tier, key=lambda t: (t is None, t)):
        got, n = by_tier[tier]
        print(f"  tier {tier}: {got}/{n}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="geoforge",
        description="Formally verified plane-geometry problem generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset")
    p.add_argument("--config", help="JSON file with PipelineConfig fields")
    p.add_argument("--out", required=True)
    p.add_argument("--seed-start", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--tau-l", type=int)
    p.add_argument("--tau-r", type=float)
    p.add_argument("--translator", choices=["template", "external"])
    p.add_argument("--llm-endpoint")
    p.add_argument("--llm-model")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bootstrap", help="extend the deepest scenes of a prior run")
    p.add_argument("--config", help="JSON file with PipelineConfig fields")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quantile", type=float, dest="bootstrap_quantile")
    p.add_argument("--extra-steps", type=int, dest="bootstrap_extra_steps")
    p.add_argument("--iterations", type=int, dest="bootstrap_iterations")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("curate", help="cut a tiered numeric-answer test split")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-tier", type=int, dest="per_tier", required=True)
    p.set_defaults(func=_cmd_curate)

    p = sub.add_parser("stats", help="length/ratio/tier/template distributions")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="independently replay every record")
    p.add_argument("--in", dest="in_dir", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check", help="grade predictions against a key file")
    p.add_argument("--pred", required=True, help="JSONL with {id, prediction}")
    p.add_argument("--key", required=True, help="key.jsonl from curate")
    p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: a missing input; StatementError: a scene statement that does not parse
    except (PipelineError, CorruptRecordError, StatementError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
