#!/usr/bin/env python3
"""qcert benchmark: a cold reproduce, the certified regime, the exact
regime, and a per-layer traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {reproduce-cold,certified,exact} \\
        --seed N --seconds S --trace {0,1}

Without --workload the three workloads run in turn.  Every unit of work
runs in a fresh interpreter, one at a time, with a fresh and empty
QCERT_CACHE_DIR.  Each child's CPU time and peak RSS come from its own
rusage (os.wait4).  Every output is checked against reference.json.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones and writes the spans to
perfbench/out/.  README.md in this directory records why each workload
exists and which layers it bypasses.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = str(HERE / "child.py")
READY_LINE = b'{"ready": true}'

REFERENCE = json.loads((HERE / "reference.json").read_text())["theorems"]
N14 = sorted(t for t, r in REFERENCE.items() if r["N"] == 14)
N24 = sorted(t for t, r in REFERENCE.items() if r["N"] == 24)
HALVES = {"N14": N14, "N24": N24}

# Table sizes the CLI requires (max of seam + shift + 6 over the
# theorems): the four N = 14 theorems, and all eight.
N_MAX = {"N14": 7064, "N24": 18509}
WORKLOADS = ("reproduce-cold", "certified", "exact")
SETUP_SAMPLES = 7


@dataclass
class ChildRun:
    code: int
    wall: float            # spawn to exit, seconds
    setup: float | None    # spawn to the ready line, seconds
    output: dict | None    # the child's JSON result
    user: float
    sys: float
    rss_mb: float


def spawn(argv: list[str], scratch: Path) -> ChildRun:
    """Run one child to completion in a fresh interpreter with its own
    empty q-table cache directory, deleted afterwards."""
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    if any(cache.iterdir()):
        raise RuntimeError(f"fresh cache directory {cache} is not empty")
    env = dict(
        os.environ,
        QCERT_CACHE_DIR=str(cache),
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    stderr_path = cache.with_suffix(".stderr")
    try:
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            try:
                ready_at = None
                lines = []
                for line in proc.stdout:
                    if ready_at is None and line.strip() == READY_LINE:
                        ready_at = time.perf_counter()
                    else:
                        lines.append(line)
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        try:
            output = json.loads(b"".join(lines))
        except ValueError:
            output = None
        if proc.returncode != 0:
            tail = stderr_path.read_text(errors="replace")[-2000:]
            print(f"child {argv[:2]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    finally:
        shutil.rmtree(cache)
        stderr_path.unlink(missing_ok=True)
    return ChildRun(
        code=proc.returncode,
        wall=end - start,
        setup=None if ready_at is None else ready_at - start,
        output=output,
        user=usage.ru_utime,
        sys=usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    )


def spawn_child(mode: str, job: dict, scratch: Path) -> ChildRun:
    return spawn([CHILD, mode, json.dumps(job)], scratch)


def cli_reproduce(order: list[str], scratch: Path) -> ChildRun:
    return spawn(["-m", "qcert.cli", "reproduce-all", "--with-errata", "--no-timing",
                  "--n-max", str(N_MAX["N14"]), "--theorems", *order], scratch)


# -- correctness ---------------------------------------------------------------


def matches(expected, got) -> bool:
    """Every key of the reference is present with an equal value; keys
    a later version adds to a report are ignored."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(
            k in got and matches(v, got[k]) for k, v in expected.items()
        )
    return expected == got


def report_ok(tid: str, got: dict) -> bool:
    return matches(REFERENCE[tid]["report"], got)


def certified_ok(tid: str, got: dict) -> bool:
    report = REFERENCE[tid]["report"]
    return got["n_star"] == report["n_star"] and matches(report["certificate"], got["certificate"])


def exact_ok(tid: str, got: dict) -> bool:
    ref = REFERENCE[tid]
    return (got["exact_violations"] == ref["stated_exact_violations"]
            and got["sharpness"] == ref["sharpness"])


def replay_ok(tid: str, got: dict) -> bool:
    report = REFERENCE[tid]["report"]
    lo, hi = report["exact_range"]
    return (certified_ok(tid, got)
            and got["exact_violations"] == report["exact_violations"]
            and got["exact_indices"] == hi - lo + 1
            and got["sharpness"] == REFERENCE[tid]["sharpness"])


def count_failed(run: ChildRun, order: list[str], ok) -> int:
    """Theorem results that are missing, wrong, or come from a child
    that exited nonzero."""
    if run.code != 0 or run.output is None:
        return len(order)
    theorems = run.output.get("theorems", {})
    failed = 0
    for tid in order:
        try:
            good = tid in theorems and ok(tid, theorems[tid])
        except (KeyError, TypeError):
            good = False
        failed += not good
    return failed


# -- end-to-end workloads ------------------------------------------------------


def unit_reproduce_cold(rng: random.Random, scratch: Path) -> tuple[float, ChildRun, int, int]:
    order = rng.sample(N14, len(N14))
    run = cli_reproduce(order, scratch)
    return run.wall, run, len(order), count_failed(run, order, report_ok)


def unit_certified(rng: random.Random, scratch: Path) -> tuple[float, ChildRun, int, int]:
    order = rng.sample(sorted(REFERENCE), len(REFERENCE))
    run = spawn_child("certified", {"order": order}, scratch)
    return _timed_part(run), run, len(order), count_failed(run, order, certified_ok)


def unit_exact(rng: random.Random, scratch: Path) -> tuple[float, ChildRun, int, int]:
    order = rng.sample(sorted(REFERENCE), len(REFERENCE))
    ranges = {
        tid: (REFERENCE[tid]["stated_threshold"] - REFERENCE[tid]["report"]["shift"],
              REFERENCE[tid]["report"]["n_star"] - 1)
        for tid in order
    }
    job = {"workload": "exact", "n_max": N_MAX["N24"], "order": order, "ranges": ranges}
    run = spawn_child("exact", job, scratch)
    return _timed_part(run), run, len(order), count_failed(run, order, exact_ok)


def _timed_part(run: ChildRun) -> float:
    """The child's own clock over its timed part, or the whole child
    when it failed before reporting."""
    if run.output and "seconds" in run.output:
        return run.output["seconds"]
    return run.wall


UNITS = {
    "reproduce-cold": unit_reproduce_cold,
    "certified": unit_certified,
    "exact": unit_exact,
}
SETUP_JOBS = {
    "reproduce-cold": {"workload": "reproduce-cold"},
    "certified": {"workload": "certified"},
    "exact": {"workload": "exact", "n_max": N_MAX["N24"]},
}


def run_untraced(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """Repeat the workload's unit, each in a fresh child, until `seconds`
    have passed (at least once); then sample set-up until there are
    SETUP_SAMPLES samples or set-up alone has taken `seconds`."""
    rng = random.Random(seed)
    walls, setups, runs = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        wall, run, n, n_failed = UNITS[workload](rng, scratch)
        walls.append(wall)
        runs.append(run)
        attempted += n
        failed += n_failed
        if run.setup is not None:
            setups.append(run.setup)
    while len(setups) < SETUP_SAMPLES and sum(setups) < seconds:
        run = spawn_child("setup", SETUP_JOBS[workload], scratch)
        if run.code != 0 or run.setup is None:
            raise RuntimeError(f"set-up of {workload} failed")
        setups.append(run.setup)
    median = statistics.median
    print(f"{workload}: wall_s {median(walls):.4f} s (median of {len(walls)}), "
          f"setup_s {median(setups):.4f} s (median of {len(setups)}), "
          f"peak_rss_mb {max(r.rss_mb for r in runs):.1f} MB, "
          f"cpu_user_s {median(r.user for r in runs):.3f}, "
          f"cpu_sys_s {median(r.sys for r in runs):.3f}, "
          f"ops_failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for r in runs), "unit": "MB"},
        },
    }


# -- traced run ----------------------------------------------------------------


def _with_self_times(spans: list[dict], offset: int) -> list[dict]:
    """Spans with durations and self times (duration minus the time
    covered by child spans; children of one span never overlap, as the
    child is single-threaded), parents re-indexed by `offset`."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [
        dict(s, parent=None if s["parent"] is None else s["parent"] + offset,
             duration_s=s["end"] - s["start"], self_s=s["end"] - s["start"] - covered[i])
        for i, s in enumerate(spans)
    ]


def run_traced(workload: str, seed: int, scratch: Path) -> dict:
    """Per-layer numbers.  The same for every workload: an untraced cold
    reproduce of the N = 14 theorems, a traced bottom-up replay of that
    pipeline and one of the N = 24 theorems, and the micro-benchmarks,
    each in a fresh child."""
    rng = random.Random(seed)
    orders = {label: rng.sample(tids, len(tids)) for label, tids in HALVES.items()}
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    attempted = failed = 0
    cold = cli_reproduce(orders["N14"], scratch)
    attempted += len(orders["N14"])
    failed += count_failed(cold, orders["N14"], report_ok)

    runs = {"cold": cold}
    spans: list[dict] = []
    for label, order in orders.items():
        run_id = f"{workload}-seed{seed}-replay.{label}"
        job = {
            "run_id": run_id, "label": label, "N": REFERENCE[order[0]]["N"],
            "shifts": sorted({s for t in order for s in REFERENCE[t]["shifts"]}),
            "order": order, "n_max": N_MAX[label],
            "ineq": {t: REFERENCE[t]["ineq"] for t in order},
            "threshold": {t: REFERENCE[t]["report"]["threshold"] for t in order},
            "shift": {t: REFERENCE[t]["report"]["shift"] for t in order},
        }
        run = runs[f"replay.{label}"] = spawn_child("replay", job, scratch)
        attempted += len(order)
        failed += count_failed(run, order, replay_ok)
        if run.code != 0 or run.output is None:
            continue
        out = run.output
        traced = _with_self_times(out["spans"], len(spans))
        spans.extend(traced)
        length = {s["name"]: s["duration_s"] for s in traced}
        put(f"qtable.build_s.{label}", length[f"qtable.build.{label}"], "s")
        put(f"qtable.table_bytes.{label}", out["table_bytes"], "bytes")
        put(f"coeffs.expansion_s.{label}", length[f"coeffs.expansion.{label}"], "s")
        put(f"bounds.error_budget_s.{label}", length[f"bounds.error_budget.{label}"], "s")
        put(f"bounds.bound_poly_s.{label}", length[f"bounds.bound_poly.{label}"], "s")
        for tid in order:
            got, ineq = out["theorems"][tid], job["ineq"][tid]
            put(f"certify.build_ineq_s.{ineq}", length[f"certify.build_ineq.{ineq}"], "s")
            put(f"certify.find_crossover_s.{tid}", length[f"certify.find_crossover.{tid}"], "s")
            put(f"certify.subdivisions.{tid}", got["subdivisions"], "count")
            put(f"certify.prec_bits.{tid}", got["prec_bits"], "bits")
            put(f"certify.exact_verify_s.{tid}", length[f"certify.exact_verify.{tid}"], "s")
            put(f"certify.exact_indices.{tid}", got["exact_indices"], "count")
            put(f"certify.sharpness_scan_s.{tid}", length[f"certify.sharpness_scan.{tid}"], "s")
        if label == "N14":
            root = next(s for s in traced if s["parent"] is None)
            put("trace.overhead_s", run.wall - cold.wall, "s")
            put("trace.uncovered_s", cold.wall - (root["duration_s"] - root["self_s"]), "s")

    micro = runs["micro"] = spawn_child("micro", {"seed": seed}, scratch)
    attempted += 1
    if micro.code != 0 or micro.output is None:
        failed += 1
    else:
        for name, (value, unit) in micro.output["metrics"].items():
            put(name, value, unit)

    for name, run in runs.items():
        if name != "micro":
            put(f"{name}.wall_s", run.wall, "s")
            put(f"{name}.cpu_user_s", run.user, "s")
            put(f"{name}.cpu_sys_s", run.sys, "s")
    put("cold.peak_rss_mb", cold.rss_mb, "MB")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "children": {name: {"wall_s": r.wall, "cpu_user_s": r.user, "cpu_sys_s": r.sys,
                            "peak_rss_mb": r.rss_mb, "exit_code": r.code}
                     for name, r in runs.items()},
        "spans": spans,
    }, indent=1))
    print(f"traced {workload}: {len(spans)} spans written to {trace_path.relative_to(ROOT)}; "
          f"cold wall {cold.wall:.3f} s, user {cold.user:.3f} s, sys {cold.sys:.3f} s; "
          f"ops_failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qcert" / "__init__.py").is_file():
        print(f"error: no qcert sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            if args.trace:
                result = run_traced(workload, args.seed, scratch)
            else:
                result = run_untraced(workload, args.seed, args.seconds, scratch)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
