"""Benchmark of fractime: three seeded workloads, each run in fresh interpreters.

    python3 perfbench/run.py --workload rate-fit --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run, plus the tracing overhead measured by
replaying the same rounds untraced.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable report.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# setup_s is the median over this many fresh-interpreter starts of the CPU
# time each one takes to import fractime and run the warm-up (NOTES.md,
# "Fresh interpreters").
SETUP_STARTS = 5
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("main_op_ms", "ms"),
    ("bulk_per_s", "1/s"),
    ("side_op_ms", "ms"),
)

# The benchmark design's names for the main op, the bulk rate and the side op
# of each workload (perfbench/NOTES.md, "Metric names").
DESIGN_NAMES = {
    "rate-fit": ("fit", "curve_values_per_s", "point"),
    "density-routes": ("quad_point", "closed_values_per_s", "double_transform"),
    "time-domain-oracles": ("mc_path_1e4", "mc_direct_paths_per_s", "relax_solve"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRACTIME_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0,
               rounds: int | None = None) -> tuple:
    """Start a fresh worker; return (seconds until READY, its JSON result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
                          text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode} before a result")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_setup(workload: str, seed: int) -> tuple:
    """(wall seconds to READY, CPU seconds) of one set-up-only worker.

    The worker exits right after READY, so its CPU time is its set-up's.
    Unlike the wall time, it leaves out the time the worker waited for a
    core that other tenants held.
    """
    before = _children_cpu_s()
    wall_s, _ = run_worker(workload, seed, "setup")
    return wall_s, _children_cpu_s() - before


def failed_share(result: dict) -> float:
    """Ops that raised, returned non-finite values or missed their reference, per op."""
    return len(result["failures"]) / len(result["ops"])


def _times(result: dict, kinds, at_reference_speed=True) -> list:
    """Op times of the given kinds, scaled by each op's speed factor or raw."""
    return [s * f if at_reference_speed else s
            for (kind, s), f in zip(result["ops"], result["speed"]) if kind in kinds]


def round_times(result: dict) -> list:
    """Each round's op times summed at the reference speed."""
    rounds = [0.0] * len(result["round_s"])
    for r, (_, s), f in zip(result["op_round"], result["ops"], result["speed"]):
        rounds[r] += s * f
    return rounds


def end_to_end(workload: str, setups: list, result: dict) -> dict:
    """The end-to-end metrics: setup_s from the set-up starts' CPU times,
    every run-phase time scaled to the reference speed."""
    ops = result["ops"]
    bulk = wl.BULK_KIND[workload]
    bulk_values = sum(n for (kind, _), n in zip(ops, result["sizes"]) if kind in bulk)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(round_times(result)),
        "ok_share": 1.0 - failed_share(result),
        "peak_rss_mb": result["rss_mb"],
        "main_op_ms": 1e3 * statistics.fmean(_times(result, {wl.MAIN_KIND[workload]})),
        "bulk_per_s": bulk_values / sum(_times(result, bulk)),
        "side_op_ms": 1e3 * statistics.fmean(_times(result, {wl.SIDE_KIND[workload]})),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def environment() -> str:
    import numpy
    import scipy
    import mpmath
    return (f"cores={os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
            f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, mpmath {mpmath.__version__}; "
            "all times are wall clock on shared cores, no hardware counters")


def report(args, result: dict, metrics: dict, extra: list) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment: " + environment())
    print(f"ops attempted {len(result['ops'])} in {len(result['round_s'])} rounds; "
          f"failed_share {failed_share(result):.6g} ratio ({len(result['failures'])} failed)")
    for op, reason in result["failures"]:
        print(f"  FAILED {op}: {reason}")
    print(f"verify_class verdicts failed: {result['verdicts_failed']} ops over "
          f"{len(result['verdict_pairs'])} pairs")
    for model, dyn, p_dev, q_dev in result["verdict_pairs"]:
        print(f"  verdict failed: {model} {dyn} |p-dev| {p_dev:.4f} |q-dev| {q_dev:.4f}")
    if "known_defect" in result:
        print(result["known_defect"])
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in extra:
        print(line)


def _percentile_lines(workload: str, result: dict) -> list:
    """The main and side op times under their design names: p50, p90, samples."""
    main, bulk, side = DESIGN_NAMES[workload]
    lines = []
    for name, kind in ((main, wl.MAIN_KIND[workload]), (side, wl.SIDE_KIND[workload])):
        times = _times(result, {kind}, at_reference_speed=False)
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
        lines.append(f"{name}_p50_ms = {1e3 * statistics.median(times):.6g} ms, "
                     f"{name}_p90_ms = {1e3 * p90:.6g} ms over {len(times)} samples "
                     f"({len(times) // 10} beyond p90)")
    lines.append(f"{bulk} = bulk_per_s")
    for kind, name in (("mc-path", "mc_path_paths_per_s"), ("relax", "relax_steps_per_s")):
        sizes = [n for (k, _), n in zip(result["ops"], result["sizes"]) if k == kind]
        if sizes:
            lines.append(f"{name} = {sum(sizes) / sum(_times(result, {kind})):.6g} 1/s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fractime" / "__init__.py").is_file():
        print(f"no fractime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace == 0:
            setups = [timed_setup(args.workload, args.seed) for _ in range(SETUP_STARTS)]
            _, result = run_worker(args.workload, args.seed, "run", args.seconds)
            metrics = end_to_end(args.workload, [cpu for _, cpu in setups], result)
            speed = result["speed"]
            extra = [f"setup starts, CPU (s): {', '.join(f'{c:.4f}' for _, c in setups)}; "
                     f"wall (s): {', '.join(f'{w:.4f}' for w, _ in setups)}",
                     f"op speed factors: median {statistics.median(speed):.4f}, "
                     f"min {min(speed):.4f}, max {max(speed):.4f}; "
                     "the lines below are raw wall clock",
                     f"round wall times (s): median {statistics.median(result['round_s']):.6g}, "
                     f"min {min(result['round_s']):.6g}, max {max(result['round_s']):.6g}",
                     *_percentile_lines(args.workload, result)]
        else:
            _, result = run_worker(args.workload, args.seed, "trace", args.seconds)
            rounds = len(result["round_s"])
            _, plain = run_worker(args.workload, args.seed, "replay", rounds=rounds)
            traced = sum(round_times(result))
            untraced = sum(round_times(plain))
            metrics = result["trace"]["metrics"]
            metrics["trace.overhead_s"]["value"] = traced - untraced
            extra = [f"spans recorded: {result['trace']['spans']}; at the reference speed "
                     f"the traced rounds took {traced:.4f} s, their untraced replay "
                     f"{untraced:.4f} s; self times below are raw wall clock"]
            if result["trace"]["missing"]:
                extra.append("not found, so not traced: " + ", ".join(result["trace"]["missing"]))
            extra += [f"  {name:52s} calls {calls:9d} self {s:10.4f} s"
                      for name, calls, s in result["trace"]["functions"]]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report(args, result, metrics, extra)
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": len(result["ops"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
