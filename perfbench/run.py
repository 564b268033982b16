"""Benchmark of the frobenius CLI: one seeded workload per run.

    python3 perfbench/run.py --workload compute-large --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (the package is imported from src/).
With --trace 0 it runs the workload in a fresh process for --seconds of
operations, times cold starts before and after (setup_s), and prints the
end-to-end metrics.  With --trace 1 it runs each round twice, plain and
with the per-layer tracer installed, and prints the per-layer metrics and
the tracing overhead instead.  Durations are rescaled to a reference host
speed (see calibration.py).  Either way every output is checked here,
against reference.py, after the workload process has ended.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Raw per-operation results and traces go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

COLD_STARTS = 15
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from calibration import Calibration  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def start_worker() -> tuple[subprocess.Popen, float, float]:
    """Start a workload process; returns it, the seconds until it was ready,
    and its host-speed scale right after start-up."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not start: {line!r}")
    return proc, ready, float(proc.stdout.readline())


def cold_starts(count: int) -> list[tuple[float, float]]:
    """(raw, rescaled) seconds from a fresh interpreter to an imported CLI, for count starts."""
    times = []
    for _ in range(count):
        proc, ready, scale = start_worker()
        proc.stdin.close()
        proc.wait(timeout=30)
        times.append((ready, ready * scale))
    return times


def run_workload(job: dict) -> dict:
    proc, _, _ = start_worker()
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def check_results(workload, path: str, cal: Calibration) -> tuple[dict, list[str]]:
    """Tally each phase's operations; returns the tallies and the problems found.

    Durations are rescaled to the reference host speed with cal, the
    workload process's calibration samples; raw ones are tallied too.

    A failed operation missed its deadline, exited non-zero, raised, or
    failed its check.  Only failures of known-fault operations are not
    problems.
    """
    tally = {}
    problems = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            res = json.loads(line)
            t = tally.setdefault(res["phase"], {"attempted": 0, "failed": 0, "busy_s": 0.0,
                                                "latencies": [], "raw_latencies": []})
            t["attempted"] += 1
            scaled = res["s"] * cal.scale(res["t0"])
            t["busy_s"] += scaled
            if res["status"] == "ok":
                try:
                    error = workload.check(Op(tuple(res["argv"]), res["known_fault"]), res["stdout"])
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"unreadable output ({exc!r})"
                if error is None:
                    t["latencies"].append(scaled)
                    t["raw_latencies"].append(res["s"])
                    continue
                problems.append(f"wrong output for {res['argv'][:6]}: {error}")
            elif not res["known_fault"]:
                problems.append(f"{res['status']} on {res['argv'][:6]}: {res['stderr'][-200:]}")
            t["failed"] += 1
    return tally, problems


def latency_metrics(latencies: list[float], busy_s: float) -> dict:
    """ops_per_s over busy_s (failed operations' time included), and latency percentiles."""
    lat = sorted(latencies)
    return {
        "ops_per_s": {"value": len(lat) / busy_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1000.0, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1000.0, "unit": "ms"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "frobenius", "cli.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'frobenius')}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "results_path": stem + ".jsonl", "spans_path": stem + "-spans.jsonl"}
    # Cold starts are timed before and after the workload, so that setup_s
    # samples the host at two moments rather than one.
    setup = [] if args.trace else cold_starts(COLD_STARTS // 2)
    summary = run_workload(job)
    if not args.trace:
        setup += cold_starts(COLD_STARTS - len(setup))
    workload = WORKLOADS[args.workload]
    tally, problems = check_results(workload, job["results_path"],
                                    Calibration(summary["calibration"]))
    for problem in problems[:20]:
        print(problem, file=sys.stderr)

    attempted = sum(t["attempted"] for t in tally.values())
    failed = sum(t["failed"] for t in tally.values())
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in summary["layers"].items()}
        metrics["trace.overhead"] = {
            "value": tally["traced"]["busy_s"] / tally["plain"]["busy_s"], "unit": "ratio"}
        raw = {}
    else:
        plain = tally["plain"]
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            **latency_metrics(plain["latencies"], plain["busy_s"]),
            "peak_rss_mb": {"value": summary["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
        raw = {"setup_s": statistics.median(r for r, _ in setup),
               **latency_metrics(plain["raw_latencies"], summary["wall_s"]["plain"])}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(stem + "-summary.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "rounds": summary["rounds"], "wall_s": summary["wall_s"],
                   "setup_samples_s": setup, "unscaled": raw, "problems": problems, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
