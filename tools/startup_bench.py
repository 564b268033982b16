"""Start-up cost of the frobenius CLI: two source trees, fresh processes.

    python3 tools/startup_bench.py PARENT_TREE CHANGE_TREE --samples 40 --out startup.json

Each tree is a checkout holding src/frobenius.  Every sample is one
fresh interpreter running one process of PROCESSES to completion, timed
by wall clock from this script; the two trees alternate which runs first.
Each process is timed with no bytecode cache (the tree's __pycache__ is
removed and PYTHONDONTWRITEBYTECODE=1 keeps it from being written, so
every module is compiled at every start) and with a warm one (built by
compileall first).  The report gives each side's median and quartiles in
ms, the change's median relative to the parent's, the -X importtime top
entries of a cold `import frobenius.cli`, and, when the trees hold
perfbench results (perfbench/results/*-trace0.jsonl), each run's first
operation's raw latency beside the raw median of its plain operations,
since a module that the CLI no longer imports at start-up is imported by
the first operation that needs it.  BENCH_startup.json holds one such
report under "startup_processes".
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

# Fixed inputs: one small and one large compute, a 29-generator bounds
# report (1000, 1037, ..., 2036), an 8-generator membership query, and
# the verify, table1 and trace subcommands.
PROCESSES = {
    "import frobenius.cli": ["-c", "import frobenius.cli"],
    "compute small": ["-m", "frobenius", "compute", "--json", "97", "101", "103", "110"],
    "compute large": ["-m", "frobenius", "compute", "--json", "100003", "100019", "100043"],
    "bounds": ["-m", "frobenius", "bounds", "--json", *map(str, range(1000, 2037, 37))],
    "hasrep": ["-m", "frobenius", "hasrep", "--json", "10007",
               "97", "101", "103", "107", "109", "113", "127", "131"],
    "verify": ["-m", "frobenius", "verify", "--json", "--count", "20", "--max", "60",
               "--seed", "7"],
    "table1": ["-m", "frobenius", "table1", "--json"],
    "trace": ["-m", "frobenius", "trace", "--json", "7", "11", "13"],
}
IMPORTTIME_RUNS = 5
IMPORTTIME_TOP = 12


def env_for(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")


def set_cache(tree: str, warm: bool) -> None:
    cache = os.path.join(tree, "src", "frobenius", "__pycache__")
    shutil.rmtree(cache, ignore_errors=True)
    if warm:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(tree, "src", "frobenius")], check=True)


def time_process(tree: str, args: list[str]) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], env=env_for(tree), cwd=tree, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (perf_counter() - t0) * 1000.0


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}


def time_trees(trees: dict[str, str], samples: int, warm: bool) -> dict:
    for tree in trees.values():
        set_cache(tree, warm)
    times = {name: {side: [] for side in trees} for name in PROCESSES}
    for i in range(samples):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for name, args in PROCESSES.items():
            for side in order:
                times[name][side].append(time_process(trees[side], args))
    out = {}
    for name, by_side in times.items():
        row = {side: summary(ts) for side, ts in by_side.items()}
        parent, change = row["parent"]["median_ms"], row["change"]["median_ms"]
        row["change_vs_parent"] = f"{(change - parent) / parent:+.1%}"
        out[name] = row
    return out


def importtime_top(tree: str) -> list[dict]:
    """Modules by median cumulative import time (us) over cold imports of the CLI."""
    set_cache(tree, warm=False)
    cumulative: dict[str, list[int]] = {}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import frobenius.cli"],
                              env=env_for(tree), cwd=tree, check=True, capture_output=True,
                              text=True)
        for line in proc.stderr.splitlines()[1:]:  # after the header
            _, cum_us, name = line.split("|")
            cumulative.setdefault(name.strip(), []).append(int(cum_us))
    rows = sorted(((statistics.median(v), k) for k, v in cumulative.items()), reverse=True)
    return [{"module": k, "cumulative_us": int(v)} for v, k in rows[:IMPORTTIME_TOP]]


def first_operations(tree: str) -> dict:
    """Per perfbench run: the first plain operation's latency and the median of all of them."""
    out = {}
    for path in sorted(glob.glob(os.path.join(tree, "perfbench", "results", "*-trace0.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            plain = [r for r in map(json.loads, fh) if r["phase"] == "plain"]
        if plain:
            out[os.path.basename(path)[:-len("-trace0.jsonl")]] = {
                "first_op_ms": round(plain[0]["s"] * 1000.0, 3),
                "median_op_ms": round(statistics.median(r["s"] for r in plain) * 1000.0, 3),
                "ops": len(plain),
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report = {
        "command": " ".join(["python3", "tools/startup_bench.py", "PARENT", "CHANGE",
                             "--samples", str(args.samples)]),
        "python": sys.version.split()[0],
        "samples_per_side": args.samples,
        "processes": {name: " ".join(a) for name, a in PROCESSES.items()},
        "no_bytecode_cache": time_trees(trees, args.samples, warm=False),
        "warm_bytecode_cache": time_trees(trees, args.samples, warm=True),
        "importtime_cold_import_cli": {side: importtime_top(t) for side, t in trees.items()},
        "perfbench_first_operation": {side: first_operations(t) for side, t in trees.items()},
    }
    for tree in trees.values():
        set_cache(tree, warm=False)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
