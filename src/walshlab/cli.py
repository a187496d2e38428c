"""Command-line surface: analyze, construct, search, verify.

Machine-readable JSON (or CSV) goes to stdout; progress and diagnostics go
to stderr. Exit codes: 0 success, 1 failed verification claim, 2 usage or
input error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import construct, report, search
from .core import AnfParseError, DenseCapExceeded, TruthTable, table_from_anf, walsh_transform
from .metrics import classify


class InputError(ValueError):
    pass


def _function_from_file(path: str) -> TruthTable:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"{path}: missing integer field 'n'")
    for field, parse in (("tt", TruthTable.from_hex), ("anf", table_from_anf)):
        if field in doc:
            if not isinstance(doc[field], str):
                raise InputError(f"{path}: field {field!r} must be a string")
            return parse(doc[field], n)
    raise InputError(f"{path}: expected a 'tt' or 'anf' field")


def _function_from_args(args) -> TruthTable:
    sources = [s for s in (args.tt, args.anf, getattr(args, "file", None)) if s is not None]
    if len(sources) != 1:
        raise InputError("exactly one of --tt, --anf, --file is required")
    if args.file is not None:
        return _function_from_file(args.file)
    if args.n is None:
        raise InputError("--n is required with --tt or --anf")
    if args.tt is not None:
        return TruthTable.from_hex(args.tt, args.n)
    return table_from_anf(args.anf, args.n)


def _function_from_source(src: str, n: int | None) -> TruthTable:
    if src.startswith("@"):
        return _function_from_file(src[1:])
    if src.startswith("anf:"):
        if n is None:
            raise InputError("--n is required with an anf: source")
        return table_from_anf(src[4:], n)
    if n is None:
        raise InputError("--n is required with a hex source")
    return TruthTable.from_hex(src, n)


def _add_function_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tt", help="truth table as lowercase hex, 2^n/4 digits")
    p.add_argument("--anf", help="algebraic normal form, e.g. 'X4X3 + X5X2'")
    p.add_argument("--file", help="JSON file with fields n and tt (hex) or anf")
    p.add_argument("--n", type=int, help="variable count for --tt/--anf")


def _cmd_analyze(args) -> int:
    f = _function_from_args(args)
    rep = classify(walsh_transform(f))
    if args.format == "csv":
        sys.stdout.write(report.metrics_to_csv(rep))
    else:
        print(report.metrics_to_json(rep))
    return 0


def _cmd_spectrum(args) -> int:
    f = _function_from_args(args)
    sys.stdout.write(report.spectrum_to_csv(walsh_transform(f)))
    return 0


def _cmd_construct(args) -> int:
    g = _function_from_source(args.g, args.n)
    if args.construction == "ot":
        rep = construct.ot_recursion_metrics(g, args.m)
        print(report.analytic_to_json(rep))
        return 0
    if args.big:
        rep = construct.gb_construction_report(g, args.b)
        print(report.analytic_to_json(rep))
        return 0
    extended = construct.palindromic_extend(g, args.b)
    doc = {
        "schema_version": report.SCHEMA_VERSION,
        "n": extended.n,
        "tt": extended.to_hex(),
        "epsilon_b": str(construct.epsilon_mass(walsh_transform(g), args.b)),
        "metrics": report.metrics_to_dict(classify(walsh_transform(extended))),
    }
    print(json.dumps(doc))
    return 0


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return count


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"--count-achieving {text!r}: the denominator must not be zero") from None


def _cmd_search(args) -> int:
    filters = tuple(args.filter or ())
    threshold = _parse_fraction(args.count_achieving) if args.count_achieving else None
    job = search.SearchJob(
        family=args.family,
        n=args.n,
        metric=args.metric,
        filters=filters,
        target="count" if threshold is not None else "maximize",
        threshold=threshold,
        chunk_bits=args.chunk_bits,
        witness_cap=args.witness_cap,
        checkpoint_path=args.resume,
    )

    def progress(done: int, total: int) -> None:
        print(f"chunk {done}/{total}", file=sys.stderr)

    result = search.sweep(job, threads=args.threads, progress=progress)
    print(report.search_result_to_json(result))
    return 0


def _cmd_verify(args) -> int:
    claim_ids = args.claims.split(",") if args.claims is not None else None

    def progress(entry: report.LedgerEntry) -> None:
        print(f"{entry.status.upper():7s} {entry.claim_id} ({entry.runtime:.2f}s)", file=sys.stderr)

    ledger = report.run_verification_suite(
        scope=args.scope, threads=args.threads, claim_ids=claim_ids, progress=progress
    )
    print(ledger.to_json())
    return ledger.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshlab",
        description="Exact Walsh-spectrum analysis, constructions, and searches for Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectral metrics of one function")
    _add_function_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("spectrum", help="dense spectrum of one function as CSV")
    _add_function_args(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("construct", help="composition constructions")
    csub = p.add_subparsers(dest="construction", required=True)
    po = csub.add_parser("ot", help="iterated disjoint self-composition metrics")
    po.add_argument("--g", required=True, help="seed: hex, 'anf:EXPR', or '@file.json'")
    po.add_argument("--n", type=int, help="seed variable count (hex/anf sources)")
    po.add_argument("--m", type=int, required=True, help="iteration count (m=0 is the seed)")
    po.set_defaults(fn=_cmd_construct)
    pp = csub.add_parser("palindrome", help="single-variable palindromic extension")
    pp.add_argument("--g", required=True, help="seed: hex, 'anf:EXPR', or '@file.json'")
    pp.add_argument("--n", type=int, help="seed variable count (hex/anf sources)")
    pp.add_argument("--b", type=int, choices=(0, 1), required=True)
    pp.add_argument(
        "--big",
        action="store_true",
        help="report the n(n+1)-variable composition analytically instead of materialising g_b",
    )
    pp.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("search", help="exhaustive family sweeps")
    p.add_argument("family", choices=search.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--metric", choices=search.METRICS, default="mei")
    p.add_argument("--filter", action="append", help="balanced | plateaued | weight1-max-walsh | resilient:<t>")
    p.add_argument("--count-achieving", metavar="NUM/DEN", help="count functions achieving this exact ratio")
    p.add_argument("--chunk-bits", type=int, default=6, help="log2 of the number of work units")
    p.add_argument("--witness-cap", type=int, default=16)
    p.add_argument(
        "--resume",
        metavar="PATH",
        help=f"checkpoint file to create or resume (relative paths under ${search.CHECKPOINT_DIR_ENV})",
    )
    p.add_argument("--threads", type=_worker_count, default=None, help="worker processes (default: all cores)")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="run the claim-verification suite")
    p.add_argument("--scope", choices=("fast", "full"), default="fast")
    p.add_argument("--threads", type=_worker_count, default=None, help="worker processes (default: all cores)")
    p.add_argument("--claims", help="comma-separated claim ids to restrict to")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, AnfParseError, DenseCapExceeded, search.SweepBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
