"""Command-line front end.

Subcommands: measure, discrepancy, verify-lemma, search-min, scan,
generate. Every run embeds its configuration in the output for
provenance, and identical configurations produce byte-identical output
(no timestamps or environment data in the payload).

The five payload commands return their data as a Payload, and `run`
writes it once. The config echoes "subcommand", then the command's own
keys, then "format" and "output". JSON is {"config": ..., **body} with
indent 2; CSV is a "# config: <JSON>" line, the header and the rows, with
None written as an empty cell. `generate` writes bare digits.

Exit codes: 0 on success, 1 when verify-lemma finds a failed checkpoint,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .bitcore import BitSequence, parse_bits
from .discrepancy import check_single_set_n, extreme_discrepancy, parse_points_file
from .generators import GeneratorSpec, file_bits
from .measure import check_measure_n, normality_fast, normality_naive
from .orbit import lemma1_verify, orbit_points
from .search import QUANTILE_KEYS, check_search_n, exhaustive_min, typical_scan

__all__ = ["run", "main"]

MAX_INLINE_BITS = 1 << 16
# The naive evaluator's time grows about fourfold per doubling of N, and its
# k = 1 pass holds several N-entry int64 arrays; measure refuses it past
# this length before evaluating (with --gen, before generating any digit).
MAX_NAIVE_N = 1 << 16

# (config fields, JSON body, CSV header, CSV rows, exit code)
Payload = tuple[dict, dict, list[str], list[list], int]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normbits",
        description="Exact normality-measure and orbit-discrepancy toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("json", "csv")) -> None:
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("measure", help="normality measure of a bit sequence")
    p.add_argument("--bits", help=f"inline bit string (at most {MAX_INLINE_BITS})")
    p.add_argument("--input", help="path to a bit-text file")
    p.add_argument("--gen", help="generator spec (needs --n)")
    p.add_argument("--n", type=int, help="number of generated digits (only with --gen)")
    p.add_argument("--algorithm", choices=("fast", "naive"), default="fast")
    add_common(p)

    p = sub.add_parser("discrepancy", help="extreme/star discrepancy of points")
    p.add_argument("--points", help="path to a file of num/2^w lines")
    p.add_argument("--gen", help="generator spec for orbit points (needs --n)")
    p.add_argument("--n", type=int, help="number of orbit points (only with --gen)")
    p.add_argument("--w", type=int, help="window bits, default 64 (only with --gen)")
    add_common(p)

    p = sub.add_parser("verify-lemma", help="check measure <= envelope bound")
    p.add_argument("--gen", required=True, help="generator spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, default=64)
    p.add_argument("--checkpoints", help="comma-separated list (default powers of 2)")
    add_common(p)

    p = sub.add_parser("search-min", help="exact minimum over all sequences")
    p.add_argument("--n", required=True, help="length N, or a range A..B")
    p.add_argument("--cap", type=int, default=16, help="max witnesses kept")
    p.add_argument("--no-prune", action="store_true")
    add_common(p)

    p = sub.add_parser("scan", help="Monte Carlo quantiles of measure/sqrt(N)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    p = sub.add_parser("generate", help="emit digits of a generator")
    p.add_argument("--gen", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default=None)

    return parser


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _load_sequence(args) -> BitSequence:
    sources = [s for s in (args.bits, args.input, args.gen) if s is not None]
    if len(sources) != 1:
        raise ValueError("provide exactly one of --bits, --input, --gen")
    if args.gen is None and args.n is not None:
        raise ValueError("--n requires --gen")
    if args.bits is not None:
        if len(args.bits) > MAX_INLINE_BITS:
            raise ValueError(
                f"--bits longer than {MAX_INLINE_BITS}; use --input with a file"
            )
        return parse_bits(args.bits)
    if args.input is not None:
        seq = file_bits(args.input)
        _check_naive_n(args, len(seq))
        return seq
    if args.n is None:
        raise ValueError("--gen requires --n")
    check_measure_n(args.n)
    _check_naive_n(args, args.n)
    return GeneratorSpec.parse(args.gen).bits(args.n)


def _check_naive_n(args, n: int) -> None:
    if args.algorithm == "naive" and n > MAX_NAIVE_N:
        raise ValueError(
            f"--algorithm naive takes at most {MAX_NAIVE_N} digits, not {n}; use fast"
        )


def _cmd_measure(args) -> Payload:
    seq = _load_sequence(args)
    fields = {
        "bits": args.bits,
        "input": args.input,
        "gen": args.gen,
        "n": len(seq),
        "algorithm": args.algorithm,
    }
    evaluate = normality_fast if args.algorithm == "fast" else normality_naive
    report = evaluate(seq)
    d = report.to_json_dict()
    header = ["kind", "k", "pattern", "M", "T", "num", "log2_den", "decimal"]
    value = report.value.json_fields().values()
    rows = [["max", d["k"], d["pattern"], d["M"], d["T"], *value]]
    rows += [
        ["per_k", k, None, None, None, *v.json_fields().values()]
        for k, v in report.per_k_max
    ]
    return fields, {"report": d}, header, rows, 0


def _cmd_discrepancy(args) -> Payload:
    sources = [s for s in (args.points, args.gen) if s is not None]
    if len(sources) != 1:
        raise ValueError("provide exactly one of --points, --gen")
    if args.points is not None:
        if (args.n, args.w) != (None, None):
            raise ValueError("--n and --w require --gen")
        points, w = parse_points_file(args.points), None
    else:
        if args.n is None:
            raise ValueError("--gen requires --n")
        w = 64 if args.w is None else args.w
        check_single_set_n(args.n)
        points = orbit_points(GeneratorSpec.parse(args.gen).stream(), args.n, w)
    fields = {
        "points": args.points,
        "gen": args.gen,
        "n": points.size,
        "w": w,
    }
    d = extreme_discrepancy(points).to_json_dict()
    rows = [
        ["extreme", d["extreme_num"], d["extreme_den"], d["extreme_decimal"]],
        ["star", d["star_num"], d["star_den"], d["star_decimal"]],
    ]
    return fields, {"report": d}, ["stat", "num", "den", "decimal"], rows, 0


def _cmd_verify(args) -> Payload:
    checkpoints = None
    if args.checkpoints:
        try:
            checkpoints = [int(c) for c in args.checkpoints.split(",") if c.strip()]
        except ValueError:
            raise ValueError(f"invalid checkpoint list {args.checkpoints!r}") from None
    fields = {"gen": args.gen, "n": args.n, "w": args.w, "checkpoints": checkpoints}
    report = lemma1_verify(
        GeneratorSpec.parse(args.gen).stream(),
        args.n,
        args.w,
        checkpoints=checkpoints,
    )
    header = ["n", "normality_num", "normality_log2_den", "phi_num", "phi_den"]
    header += ["margin_num", "margin_den", "pass"]
    rows = [
        [
            c.n,
            c.normality.num,
            c.normality.log2_den,
            c.phi.numerator,
            c.phi.denominator,
            c.margin.numerator,
            c.margin.denominator,
            c.passed,
        ]
        for c in report.checkpoints
    ]
    code = 0 if report.overall_pass else 1
    return fields, {"report": report.to_json_dict()}, header, rows, code


def _parse_n_range(text: str, prune: bool) -> list[int]:
    """Parse `--n N` or `--n A..B`, checking every length before any search."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if dots else lo
    except ValueError:
        raise ValueError(f"--n must be N or A..B, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    check_search_n(lo, prune)
    check_search_n(hi, prune)
    return list(range(lo, hi + 1))


def _cmd_search(args) -> Payload:
    prune = not args.no_prune
    ns = _parse_n_range(args.n, prune)
    fields = {"n": args.n, "cap": args.cap, "prune": prune}
    results = [exhaustive_min(n, cap=args.cap, prune=prune) for n in ns]
    header = ["N", "min_num", "min_log2_den", "min_decimal", "witness"]
    rows = [
        [
            r.n,
            *r.min_value.json_fields().values(),
            r.witnesses[0].to01() if r.witnesses else None,
        ]
        for r in results
    ]
    return fields, {"reports": [r.to_json_dict() for r in results]}, header, rows, 0


def _cmd_scan(args) -> Payload:
    fields = {"n": args.n, "samples": args.samples, "seed": args.seed}
    stats = typical_scan(args.n, args.samples, args.seed)
    header = ["n", "samples", "seed"] + list(QUANTILE_KEYS)
    rows = [[stats.n, stats.samples, stats.seed] + [repr(q) for q in stats.quantiles]]
    return fields, {"report": stats.to_json_dict()}, header, rows, 0


_PAYLOAD_COMMANDS = {
    "measure": _cmd_measure,
    "discrepancy": _cmd_discrepancy,
    "verify-lemma": _cmd_verify,
    "search-min": _cmd_search,
    "scan": _cmd_scan,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.subcommand == "generate":
            check_measure_n(args.n)
            # no name holds the digits while the newline copies their text
            text, code = GeneratorSpec.parse(args.gen).bits(args.n).to01() + "\n", 0
        else:
            fields, body, header, rows, code = _PAYLOAD_COMMANDS[args.subcommand](args)
            config = {
                "subcommand": args.subcommand,
                **fields,
                "format": args.format,
                "output": args.output,
            }
            if args.format == "json":
                text = json.dumps({"config": config, **body}, indent=2) + "\n"
            else:
                lines = ["# config: " + json.dumps(config), ",".join(header)]
                lines += [",".join("" if v is None else str(v) for v in r) for r in rows]
                text = "\n".join(lines) + "\n"
        _emit(text, args.output)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
