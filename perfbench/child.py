"""One unit of benchmark work, run in a fresh interpreter by run.py.

Usage: python3 perfbench/child.py <mode> '<job as JSON>'

The child calls only names exported from ``qcert`` (or, for the set-up
of the cold workload, imports ``qcert.cli``).  It prints the line
``{"ready": true}`` once its set-up is done, then one JSON line with its
results.  run.py times set-up from spawn to that line and reads the
child's CPU time and peak RSS from the child's own rusage.

Modes:

* ``setup``     -- the set-up of a workload only, then exit;
* ``certified`` -- ``find_crossover`` for the listed theorems, no table;
* ``exact``     -- build the table (set-up), then ``exact_verify`` over
                   each theorem's certified range and ``sharpness_scan``;
* ``replay``    -- the reproduce pipeline bottom-up, layer by layer,
                   with one span around each call into a layer;
* ``micro``     -- micro-benchmarks of interval, ring and enclosure
                   operations on operands drawn from the seed.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

READY_LINE = '{"ready": true}'


def ready() -> None:
    print(READY_LINE, flush=True)


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


def do_setup(job: dict):
    """The work a user pays before the timed part; returns the table
    when the workload needs one."""
    if job["workload"] == "reproduce-cold":
        import qcert.cli  # noqa: F401  (the CLI's own import cost)

        return None
    import qcert

    return qcert.load_or_build(job["n_max"]) if job.get("n_max") else None


def run_certified(job: dict) -> None:
    import qcert

    ready()
    t0 = time.perf_counter()
    found = [(tid, *qcert.find_crossover(tid)) for tid in job["order"]]
    seconds = time.perf_counter() - t0
    emit({
        "seconds": seconds,
        "theorems": {
            tid: {"n_star": n_star, "certificate": cert.to_json_dict()}
            for tid, n_star, cert in found
        },
    })


def run_exact(job: dict) -> None:
    import qcert

    table = do_setup(job)
    ready()
    t0 = time.perf_counter()
    theorems = {}
    for tid in job["order"]:
        lo, hi = job["ranges"][tid]
        theorems[tid] = {
            "exact_violations": qcert.exact_verify(tid, table, lo, hi),
            "sharpness": qcert.sharpness_scan(tid, table),
        }
    emit({"seconds": time.perf_counter() - t0, "theorems": theorems})


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory and
    returned with the child's result."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        })
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()


def run_replay(job: dict) -> None:
    """Replay the reproduce pipeline in a fixed bottom-up order: table,
    coefficients, budgets, envelopes, build_ineq at the default
    precision, find_crossover, exact scans, sharpness scans.  The layers
    memoize in-process, so each span is that layer's increment over what
    the earlier spans already cached.  The precision is passed
    positionally, as the certifier passes it, so that the calls share
    the memo keys of the later layers."""
    import qcert

    prec = qcert.DEFAULT_PRECISION

    ready()
    label, N, shifts, order = job["label"], job["N"], job["shifts"], job["order"]
    tracer = Tracer(job["run_id"])
    span = tracer.span
    theorems = {}
    with span(f"replay.{label}"):
        with span(f"qtable.build.{label}"):
            table = qcert.load_or_build(job["n_max"])
        with span(f"coeffs.expansion.{label}"):
            for s in shifts:
                for m in range(N + 1):
                    qcert.expansion_coeff(m, s)
        with span(f"bounds.error_budget.{label}"):
            for s in shifts:
                qcert.error_budget(N, s, prec)
        with span(f"bounds.bound_poly.{label}"):
            for s in shifts:
                for side in (-1, 1):
                    qcert.bound_poly(s, N, side, prec)
        with span("certify.build_ineq"):
            for tid in order:
                with span(f"certify.build_ineq.{job['ineq'][tid]}"):
                    qcert.build_ineq(job["ineq"][tid], prec)
        with span("certify.find_crossover"):
            for tid in order:
                with span(f"certify.find_crossover.{tid}"):
                    n_star, cert = qcert.find_crossover(tid)
                theorems[tid] = {"n_star": n_star, "certificate": cert.to_json_dict(),
                                 "subdivisions": cert.subdivision_count,
                                 "prec_bits": cert.prec}
        with span("certify.exact_verify"):
            for tid in order:
                lo = job["threshold"][tid] - job["shift"][tid]
                hi = theorems[tid]["n_star"] - 1
                with span(f"certify.exact_verify.{tid}"):
                    violations = qcert.exact_verify(tid, table, lo, hi)
                theorems[tid]["exact_violations"] = violations
                theorems[tid]["exact_indices"] = max(0, hi - lo + 1)
        with span("certify.sharpness_scan"):
            for tid in order:
                with span(f"certify.sharpness_scan.{tid}"):
                    theorems[tid]["sharpness"] = qcert.sharpness_scan(tid, table)
    table_bytes = sum((table[n].bit_length() + 7) // 8 for n in range(job["n_max"] + 1))
    emit({"theorems": theorems, "table_bytes": table_bytes, "spans": tracer.spans})


def _per_call(fn, operands, budget_s: float, batches: int = 5) -> float:
    """Median seconds per call of fn over batches that each call it once
    on every operand; repeats a batch until it fills budget_s / batches."""
    per_batch = budget_s / batches
    times = []
    for _ in range(batches):
        calls = 0
        t0 = time.perf_counter()
        while True:
            for op in operands:
                fn(*op)
            calls += len(operands)
            elapsed = time.perf_counter() - t0
            if elapsed >= per_batch:
                break
        times.append(elapsed / calls)
    times.sort()
    return times[len(times) // 2]


def run_micro(job: dict) -> None:
    import qcert
    from qcert import Interval

    rng = random.Random(job["seed"])
    ready()
    metrics = {}  # name -> (value, unit)
    # enclose_pi caches per precision: only the first call at 1536 bits
    # measures the series, so it runs before anything else.
    t0 = time.perf_counter()
    qcert.enclose_pi(1536)
    metrics["enclosures.pi_s.1536"] = (time.perf_counter() - t0, "s")

    for prec in (192, 1536):
        pairs = [
            tuple(
                Interval.from_fraction(
                    Fraction(rng.choice((-1, 1)) * (rng.getrandbits(2 * prec) | 1),
                             1 << (2 * prec - rng.randrange(1, 16))),
                    prec,
                )
                for _ in range(2)
            )
            for _ in range(64)
        ]
        metrics[f"intervals.mul_ns.{prec}"] = (
            1e9 * _per_call(lambda a, b: a.mul(b, prec), pairs, 0.25), "ns")
        metrics[f"intervals.add_ns.{prec}"] = (
            1e9 * _per_call(lambda a, b: a.add(b, prec), pairs, 0.25), "ns")

    s = rng.randrange(7)
    coeffs = [qcert.expansion_coeff(m, s) for m in range(25)]
    products = [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(24)]
    metrics["ring.mul_us"] = (1e6 * _per_call(lambda a, b: a * b, products, 1.0), "us")

    args = [(Interval.from_fraction(Fraction(rng.randrange(1, 1 << 20), 1 << 14), 192), 192)
            for _ in range(16)]
    metrics["enclosures.exp_us.192"] = (1e6 * _per_call(qcert.enclose_exp, args, 0.5), "us")
    emit({"metrics": metrics})


MODES = {
    "certified": run_certified,
    "exact": run_exact,
    "replay": run_replay,
    "micro": run_micro,
}


def main() -> None:
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        do_setup(job)
        ready()
    else:
        MODES[mode](job)


if __name__ == "__main__":
    main()
