"""One fresh-interpreter run of a workload; started by run.py.

Modes:
  setup   import fractime from the checkout, run the warm-up ops, print READY, exit;
  run     set up, then run rounds for --seconds and check every output;
  trace   as run, with spans around every layer's public functions;
  replay  set up, then run exactly --rounds rounds untraced, unchecked.

After READY the worker prints one JSON line with its measurements.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_fractime():
    sys.path.insert(0, str(SRC))
    import fractime
    if Path(fractime.__file__).resolve().parent != (SRC / "fractime").resolve():
        raise SystemExit(f"fractime imported from {fractime.__file__}, not from {SRC}")
    return fractime


# The machine's speed swings by up to 2x within seconds (other tenants on
# shared cores), and CPU time swings with it.  A fixed loop timed between ops,
# at most every CAL_PERIOD_S, measures that speed next to each op, and every
# op time is scaled to the speed at which the loop takes CAL_REF_S (NOTES.md).
CAL_PERIOD_S = 0.1
CAL_REF_S = 1.0e-3
# A single timing of the loop is now and then preempted and reads 2-5x its
# neighbours; the median of three ignores such a spike.
CAL_REPEATS = 3
_CAL_ARRAY = np.linspace(0.1, 1.0, 64)


def _cal_loop() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(200):
        acc += float(np.dot(_CAL_ARRAY, np.exp(-_CAL_ARRAY * (k % 5))))
        acc += cmath.exp(complex(1e-3 * k, 0.2)).real + math.lgamma(1.0 + 0.01 * k)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median wall time of a fixed loop that fractime never runs.

    Its mix mirrors the workloads': Python calls and float/complex scalar
    math, and small numpy operations.
    """
    return statistics.median(_cal_loop() for _ in range(CAL_REPEATS))


def measure(runner, rounds, seconds: float, max_rounds, tracer, error_type):
    """Run whole rounds until the time is up (or max_rounds are done).

    Returns [(op, seconds, output, error)], each op's round, each op's speed
    factor (CAL_REF_S over the mean of the calibrations just before and just
    after the op), and the wall time of each round without calibration.
    """
    records, op_round, op_cal, round_s, cal_s = [], [], [], [], [calibrate()]
    start = last_cal = time.perf_counter()
    for r, ops in enumerate(rounds):
        if max_rounds is not None:
            if r >= max_rounds:
                break
        elif r and time.perf_counter() - start >= seconds:
            break
        r0 = time.perf_counter()
        cal_in_round = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                out, err = runner.run(op), None
            except error_type as exc:
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            records.append((op, t1 - t0, out, err))
            op_round.append(r)
            op_cal.append(len(cal_s) - 1)
            if t1 - last_cal >= CAL_PERIOD_S:
                cal_s.append(calibrate())
                last_cal = time.perf_counter()
                cal_in_round += last_cal - t1
        round_s.append(time.perf_counter() - r0 - cal_in_round)
    cal_s.append(calibrate())
    speed = [2.0 * CAL_REF_S / (cal_s[j] + cal_s[j + 1]) for j in op_cal]
    return records, op_round, speed, round_s


def check_records(records, checker) -> list:
    """[(record index, reason)] for every op that failed or missed its reference."""
    failures = []
    for i, (op, _, out, err) in enumerate(records):
        reason = err if err is not None else checker.check(op, out)
        if reason is not None:
            failures.append((i, reason))
    return failures


def verdict_failures(records) -> tuple:
    """(ops whose verify_class verdict failed, the distinct pairs behind them)."""
    failed = [(op, out) for op, _, out, err in records
              if op.kind == "verify" and err is None and not out["passed"]]
    pairs = {}
    for op, out in failed:
        pairs[(op.model, op.dynamic)] = (out["p_dev"], out["q_dev"])
    return len(failed), [[list(m), list(d), p, q] for (m, d), (p, q) in pairs.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "replay"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int)
    args = parser.parse_args(argv)

    ft = _import_fractime()
    import workloads as wl
    runner = wl.Runner(ft)
    rounds = wl.STREAMS[args.workload](args.seed)
    for op in wl.WARMUP[args.workload]:
        runner.run(op)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install(ft)
    records, op_round, speed, round_s = measure(runner, rounds, args.seconds, args.rounds,
                                                tracer, ft.FractimeError)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"round_s": round_s, "rss_mb": rss_mb, "op_round": op_round, "speed": speed,
              "ops": [[op.kind, seconds] for op, seconds, _, _ in records],
              "sizes": [wl.op_size(op) for op, _, _, _ in records]}
    if args.mode != "replay":
        failures = check_records(records, wl.Checker())
        result["failures"] = [[records[i][0].describe(), reason] for i, reason in failures]
        result["verdicts_failed"], result["verdict_pairs"] = verdict_failures(records)
    if args.mode == "run" and args.workload == "density-routes":
        result["known_defect"] = wl.Checker().known_defect(ft)
    if tracer is not None:
        result["trace"] = {"functions": tracer.function_table(), "missing": tracer.missing,
                           "spans": len(tracer.span_start),
                           "metrics": tracer.metrics(result["verdicts_failed"], 0.0)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
