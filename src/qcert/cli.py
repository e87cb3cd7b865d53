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
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import bound_value, n_min
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
    "n_max": 20000,
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
                        help=f"table size (default {GLOBAL_DEFAULTS['n_max']})")
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help=f"working precision in bits (default {DEFAULT_PRECISION})")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS)
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

    p = sub.add_parser("bounds", help="certified envelope values around q(n+s)", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--N", type=int, default=14)
    p.add_argument("--count", type=int, default=1, help="number of consecutive n rows")

    p = sub.add_parser("coeffs", help="exact expansion coefficients", parents=[common])
    p.add_argument("--family", choices=sorted(COEFF_FAMILIES), default="full")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--s", type=int, default=0)

    p = sub.add_parser("verify", help="verify one theorem end to end", parents=[common])
    p.add_argument("theorem", choices=sorted(THEOREMS))

    p = sub.add_parser("certify", help="positivity certificate for one inequality", parents=[common])
    p.add_argument("ineq", choices=sorted(INEQUALITIES))
    p.add_argument("--n-star", type=int, default=None,
                   help="certify for all n >= this (default: envelope window)")

    p = sub.add_parser("reproduce-all", help="run the whole verification suite", parents=[common])
    p.add_argument("--with-errata", action="store_true",
                   help="verify the documented corrected threshold for "
                   "double-turan-companion (349) instead of the stated 346")
    p.add_argument("--theorems", nargs="+", choices=sorted(THEOREMS), default=None,
                   metavar="THEOREMS", help="subset of theorem ids")

    return parser


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def _get_table(args, needed: int):
    if args.n_max < needed:
        print(f"error: --n-max {args.n_max} is below the required {needed}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return load_or_build(args.n_max)


def cmd_qtable(args) -> int:
    if (args.n is None) == (args.range_ is None):
        print("error: qtable needs exactly one of --n or --range", file=sys.stderr)
        return EXIT_USAGE
    try:
        lo, hi = (args.n, args.n) if args.n is not None else _parse_range(args.range_)
    except ValueError:
        print(f"error: bad range {args.range_!r} (expected A..B)", file=sys.stderr)
        return EXIT_USAGE
    if lo < 0 or hi < lo:
        print(f"error: bad range {lo}..{hi}", file=sys.stderr)
        return EXIT_USAGE
    table = _get_table(args, hi)
    values = [table[n] for n in range(lo, hi + 1)]
    if args.format == "json":
        print(json.dumps({str(n): str(v) for n, v in zip(range(lo, hi + 1), values)}))
    elif args.format == "csv":
        print("n,q")
        for n, v in zip(range(lo, hi + 1), values):
            print(f"{n},{v}")
    else:
        print(",".join(str(v) for v in values))
    return EXIT_PASS


def cmd_bounds(args) -> int:
    if args.s < 0 or args.N < 1 or args.count < 1:
        print("error: need s >= 0, N >= 1, count >= 1", file=sys.stderr)
        return EXIT_USAGE
    floor = n_min(args.N, args.s, args.precision)
    if args.n < floor:
        print(f"error: n={args.n} below the validity floor {floor} for (N={args.N}, s={args.s})",
              file=sys.stderr)
        return EXIT_USAGE
    table = _get_table(args, args.n + args.count - 1 + args.s)
    rows = []
    for n in range(args.n, args.n + args.count):
        lower = bound_value(n, args.s, args.N, -1, args.precision)
        upper = bound_value(n, args.s, args.N, +1, args.precision)
        rows.append({
            "n": n, "s": args.s, "N": args.N,
            "q_exact": str(table[n + args.s]),
            "lower": lower.lo.decimal(30, up=False),
            "upper": upper.hi.decimal(30, up=True),
        })
    if args.format == "csv" or args.format == "text":
        print("n,s,N,q_exact,lower,upper")
        for r in rows:
            print(f"{r['n']},{r['s']},{r['N']},{r['q_exact']},{r['lower']},{r['upper']}")
    else:
        print(json.dumps(rows))
    return EXIT_PASS


def cmd_coeffs(args) -> int:
    if args.index < 0 or args.s < 0:
        print("error: need index >= 0 and s >= 0", file=sys.stderr)
        return EXIT_USAGE
    value = COEFF_FAMILIES[args.family](args.index, args.s)
    if isinstance(value, RingElem):
        text = value.as_string()
    else:
        text = str(value)
    print(f"{args.family}[{args.index},{args.s}] = {text}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    spec = THEOREMS[args.theorem]
    table = _get_table(args, spec.table_n_max)
    try:
        report = verify_theorem(args.theorem, table, prec=args.precision)
    except ValueError as exc:  # envelope window above the seam
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(report.to_json_dict(include_timing=not args.no_timing), indent=2))
    return STATUS_EXIT[report.status]


def cmd_certify(args) -> int:
    try:
        cert = certify_inequality(args.ineq, n_star=args.n_star, prec=args.precision)
    except ValueError as exc:  # n_star below the window
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        try:
            report = verify_theorem(
                tid,
                table,
                prec=args.precision,
                threshold_override=threshold_override,
            )
        except ValueError as exc:  # envelope window above the seam
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    for key, default in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, default)
    if args.precision < MIN_PRECISION:
        print(f"error: --precision must be >= {MIN_PRECISION}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "qtable": cmd_qtable,
        "bounds": cmd_bounds,
        "coeffs": cmd_coeffs,
        "verify": cmd_verify,
        "certify": cmd_certify,
        "reproduce-all": cmd_reproduce_all,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
