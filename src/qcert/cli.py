"""Command-line interface.

Subcommands:

* ``qtable``        -- build the exact q(n) table, print values
* ``bounds``        -- certified envelope rows `n,s,N,q_exact,lower,upper`
* ``coeffs``        -- exact expansion coefficients as ring expressions
* ``verify``        -- end-to-end verification of one theorem, sharpness
                       scan included (JSON report)
* ``certify``       -- positivity certificate for one inequality (JSON)
* ``reproduce-all`` -- the full eight-theorem verification suite

The CLI runs no self-checks: the comparisons with independent oracles and
recorded constants (q(n) by enumeration, q(9) = 8, the window maxima 5019
and 18502) are tests, in tests/oracles.py and acceptance criteria C1, C4.

Exit codes: 0 pass, 1 verification failure, 2 inconclusive certification,
64 usage error.  ``reproduce-all`` exits with the worst over its theorems (2
above 1); its summary status is "pass" only if every theorem passes.  A
request the library rejects (a ``ValueError``) exits 64 from ``main``, with
the library's message.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import bound_value
from .certify import (
    INEQUALITIES,
    THEOREMS,
    certify_inequality,
    verify_theorem,
)
from .coeffs import COEFF_FAMILIES
from .intervals import DEFAULT_PRECISION, MIN_PRECISION
from .qtable import load_or_build
from .ring import RingElem

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
STATUS_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}

# Documented erratum: the companion double Turan statement fails at
# n=348 (exact computation); it holds for every other n >= 346 and for
# all n >= 349.  --with-errata verifies the corrected threshold.
ERRATA_THRESHOLDS = {"double-turan-companion": 349}


GLOBAL_DEFAULTS = {
    "precision": DEFAULT_PRECISION,
    "format": "json",
    "no_timing": False,
}


def _build_parser() -> argparse.ArgumentParser:
    # Global flags live in a shared parent so they are accepted both
    # before and after the subcommand; SUPPRESS defaults keep a value
    # parsed at one level from being clobbered by the other.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--n-max", type=int, default=argparse.SUPPRESS,
                        help="table size (default: the top index the command reads)")
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help=f"working precision in bits (default {DEFAULT_PRECISION})")
    common.add_argument("--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS,
                        help="output of qtable (json, csv or text) and bounds (json or csv; text "
                        "prints csv); verify, certify, reproduce-all and coeffs ignore it")
    common.add_argument("--no-timing", action="store_true", default=argparse.SUPPRESS,
                        help="omit wall times from reports")

    parser = argparse.ArgumentParser(
        prog="qcert",
        description="Exact distinct-partition counts, certified asymptotic "
        "envelopes, and machine verification of the Turan/Laguerre-type "
        "inequality theorems.",
        allow_abbrev=False,
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qtable", help="exact q(n) values", parents=[common])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--range", dest="range_", default=None, metavar="A..B")
    p.set_defaults(run=cmd_qtable)

    p = sub.add_parser("bounds", help="certified envelope values around q(n+s)", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--N", type=int, default=14)
    p.add_argument("--count", type=int, default=1, help="number of consecutive n rows")
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("coeffs", help="exact expansion coefficients", parents=[common])
    p.add_argument("--family", choices=sorted(COEFF_FAMILIES), default="full")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.set_defaults(run=cmd_coeffs)

    p = sub.add_parser("verify", help="verify one theorem end to end", parents=[common])
    p.add_argument("theorem", choices=sorted(THEOREMS))
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("certify", help="positivity certificate for one inequality", parents=[common])
    p.add_argument("ineq", choices=sorted(INEQUALITIES))
    p.add_argument("--n-star", type=int, default=None,
                   help="certify for all n >= this (default: envelope window)")
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("reproduce-all", help="run the whole verification suite", parents=[common])
    p.add_argument("--with-errata", action="store_true",
                   help="verify the documented corrected threshold for "
                   "double-turan-companion (349) instead of the stated 346")
    p.add_argument("--theorems", nargs="+", choices=sorted(THEOREMS), default=None,
                   metavar="THEOREMS", help="subset of theorem ids")
    p.set_defaults(run=cmd_reproduce_all)

    return parser


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad range {text!r} (expected A..B)") from None


def _get_table(args, needed: int):
    n_max = getattr(args, "n_max", needed)  # without --n-max, the top index the command reads
    if n_max < needed:
        raise ValueError(f"--n-max {n_max} is below the required {needed}")
    return load_or_build(n_max)


def cmd_qtable(args) -> int:
    if (args.n is None) == (args.range_ is None):
        raise ValueError("qtable needs exactly one of --n or --range")
    lo, hi = (args.n, args.n) if args.n is not None else _parse_range(args.range_)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {lo}..{hi}")
    table = _get_table(args, hi)
    if args.format == "json":
        print(json.dumps({str(n): str(table[n]) for n in range(lo, hi + 1)}))
    elif args.format == "csv":
        print("n,q")
        for n in range(lo, hi + 1):
            print(f"{n},{table[n]}")
    else:
        print(",".join(str(table[n]) for n in range(lo, hi + 1)))
    return EXIT_PASS


def cmd_bounds(args) -> int:
    if args.count < 1:
        raise ValueError("need count >= 1")
    # the bounds first: bound_value rejects s, N and a below-floor n before any table is built
    ns = range(args.n, args.n + args.count)
    sides = [(bound_value(n, args.s, args.N, -1, args.precision),
              bound_value(n, args.s, args.N, +1, args.precision)) for n in ns]
    table = _get_table(args, ns[-1] + args.s)
    rows = [{
        "n": n, "s": args.s, "N": args.N,
        "q_exact": str(table[n + args.s]),
        "lower": lower.lo.decimal(30, up=False),
        "upper": upper.hi.decimal(30, up=True),
    } for n, (lower, upper) in zip(ns, sides)]
    if args.format == "csv" or args.format == "text":
        print("n,s,N,q_exact,lower,upper")
        for r in rows:
            print(f"{r['n']},{r['s']},{r['N']},{r['q_exact']},{r['lower']},{r['upper']}")
    else:
        print(json.dumps(rows))
    return EXIT_PASS


def cmd_coeffs(args) -> int:
    value = COEFF_FAMILIES[args.family](args.index, args.s)
    if isinstance(value, RingElem):
        text = value.as_string()
    else:
        text = str(value)
    print(f"{args.family}[{args.index},{args.s}] = {text}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    table = _get_table(args, THEOREMS[args.theorem].table_n_max)
    report = verify_theorem(args.theorem, table, prec=args.precision)
    print(json.dumps(report.to_json_dict(include_timing=not args.no_timing), indent=2))
    return STATUS_EXIT[report.status]


def cmd_certify(args) -> int:
    cert = certify_inequality(args.ineq, n_star=args.n_star, prec=args.precision)
    out = cert.to_json_dict()
    out["ineq"] = args.ineq
    out["theorem"] = INEQUALITIES[args.ineq]
    print(json.dumps(out, indent=2))
    return EXIT_PASS if cert.proved else EXIT_INCONCLUSIVE


def cmd_reproduce_all(args) -> int:
    ids = list(dict.fromkeys(args.theorems)) if args.theorems else sorted(THEOREMS)
    table = _get_table(args, max(THEOREMS[tid].table_n_max for tid in ids))
    t0 = time.perf_counter()
    reports = {}
    worst = EXIT_PASS
    for tid in ids:
        threshold_override = ERRATA_THRESHOLDS.get(tid) if args.with_errata else None
        report = verify_theorem(
            tid,
            table,
            prec=args.precision,
            threshold_override=threshold_override,
        )
        reports[tid] = report.to_json_dict(include_timing=not args.no_timing)
        note = ""
        if threshold_override:
            note = f" [errata threshold {threshold_override}]"
        print(
            f"{report.status.upper():12s} {tid}{note}: n >= {report.threshold}, "
            f"n_star={report.n_star}, exact {report.exact_range[0]}..{report.exact_range[1]}, "
            f"violations={report.exact_violations}, sharpness witness={report.sharpness_witness}",
            file=sys.stderr,
        )
        worst = max(worst, STATUS_EXIT[report.status])
    summary = {"theorems": reports, "status": "pass" if worst == EXIT_PASS else "fail"}
    if not args.no_timing:
        summary["seconds"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(summary, indent=2))
    return worst


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv, argparse.Namespace(**GLOBAL_DEFAULTS))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.precision < MIN_PRECISION:
        return _usage(f"--precision must be >= {MIN_PRECISION}")
    try:
        return args.run(args)
    except ValueError as exc:  # a request the library, or a check of a CLI-only input, rejects
        return _usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
