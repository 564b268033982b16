"""Workload process: imports the CLI, says "ready", then runs one job.

    python3 perfbench/worker.py < job.json

After "ready" it prints one more line, the host-speed scale measured
right after start-up (see calibration.py).  The job arrives on stdin as
one JSON object (see run.py); with empty stdin the process exits, which
run.py uses to time cold starts.

Each operation is one in-process frobenius.cli.main(argv) call with
stdout and stderr captured.  A watchdog cuts it when it runs past its
deadline (stretched when the host runs slower than the calibration
reference) or grows the resident set by more than MEMORY_BUDGET_MIB.  Calibration
samples are taken between operations.  The operations' outputs go to a
JSON-lines file for run.py to check; the last line on stdout is a JSON
summary.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import frobenius.cli  # noqa: E402  (the set-up that setup_s measures)

sys.stdout.write("ready\n")
sys.stdout.flush()

from calibration import Calibration, sample  # noqa: E402

# The host's speed at start-up, for run.py to rescale the time to "ready".
sys.stdout.write(f"{Calibration(sample() for _ in range(5)).scale()}\n")
sys.stdout.flush()

import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Traced calls run slower; scale the deadline so that only the known-fault
# operations miss it in a traced round too.
TRACE_DEADLINE_FACTOR = 4.0
# Rounds continue past --seconds until this many seeded operations have run,
# so that op_p90_ms always has ten samples beyond it.
MIN_SEEDED_OPS = 100
# An operation may grow the resident set by this much.  A runaway operation
# is cut at a fixed amount of memory rather than of time, so the peak it
# leaves in peak_rss_mb does not depend on the host's speed; the seeded
# operations grow it by 10 MiB at most.
MEMORY_BUDGET_MIB = 48
WATCHDOG_TICK_S = 0.01
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


class OperationCut(BaseException):
    """Raised in the main thread by the watchdog; not an Exception, so nothing catches it."""


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


class Watchdog:
    """SIGALRM every WATCHDOG_TICK_S while an operation runs: checks its deadline and memory."""

    def __init__(self) -> None:
        self.end = self.limit = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def start(self, deadline_s: float) -> None:
        self.end = perf_counter() + deadline_s
        self.limit = rss_bytes() + MEMORY_BUDGET_MIB * 2**20
        signal.setitimer(signal.ITIMER_REAL, WATCHDOG_TICK_S, WATCHDOG_TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        if perf_counter() >= self.end:
            raise OperationCut("deadline")
        if rss_bytes() > self.limit:
            raise OperationCut("memory")


def run_op(argv: list[str], deadline_s: float, watchdog: Watchdog) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, status, error = None, "ok", ""
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            watchdog.start(deadline_s)
            try:
                rc = frobenius.cli.main(argv)
            finally:
                watchdog.stop()
                t1 = perf_counter()
        if rc != 0:
            status = "exit"
    except OperationCut as cut:
        t1, status = perf_counter(), str(cut)
    except SystemExit as exc:
        rc, status = exc.code, "exit"
    except Exception as exc:  # a traceback the CLI let through counts as a failed operation
        status, error = "raise", f"{type(exc).__name__}: {exc}"[:500]
    return {"status": status, "rc": rc, "t0": t0, "s": t1 - t0, "stdout": out.getvalue(),
            "stderr": (err.getvalue() + error)[-500:]}


def run_round(ops, deadline_s: float, watchdog: Watchdog, cal: Calibration,
              tracer: Tracer | None, phase: str, rnd: int, sink) -> float:
    """Run one round back to back; returns its wall time."""
    results = []
    start = perf_counter()
    for i, op in enumerate(ops):
        cal.maybe_sample()
        snap = tracer.snapshot() if tracer else None
        if tracer:
            tracer.op = (rnd, i)
        res = run_op(list(op.argv), deadline_s / cal.scale(), watchdog)
        if tracer and res["status"] == "ok":
            tracer.ok_ops += 1
        elif tracer:
            tracer.rollback(snap)
        results.append(res)
    wall = perf_counter() - start
    for i, (op, res) in enumerate(zip(ops, results)):
        res.update(round=rnd, index=i, phase=phase, argv=list(op.argv), known_fault=op.known_fault)
        sink.write(json.dumps(res) + "\n")
    return wall


def main() -> int:
    text = sys.stdin.read()
    if not text:
        return 0
    job = json.loads(text)
    workload = WORKLOADS[job["workload"]]
    rng = random.Random(job["seed"])
    watchdog = Watchdog()
    tracer = Tracer() if job["trace"] else None
    cal = Calibration()
    walls = {"plain": 0.0, "traced": 0.0}
    rnd = seeded = 0
    with open(job["results_path"], "w", encoding="utf-8") as sink:
        while walls["plain"] + walls["traced"] < job["seconds"] or seeded < MIN_SEEDED_OPS:
            ops = workload.make_round(rng)
            seeded += sum(not op.known_fault for op in ops)
            walls["plain"] += run_round(ops, workload.deadline_s, watchdog, cal, None,
                                        "plain", rnd, sink)
            if tracer:
                tracer.install()
                try:
                    walls["traced"] += run_round(ops, workload.deadline_s * TRACE_DEADLINE_FACTOR,
                                                 watchdog, cal, tracer, "traced", rnd, sink)
                finally:
                    tracer.uninstall()
            rnd += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"rounds": rnd, "wall_s": walls, "peak_rss_kib": peak_kib, "calibration": cal.samples}
    if tracer:
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        summary["layers"] = tracer.layer_metrics(cal.scale_overall())
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
