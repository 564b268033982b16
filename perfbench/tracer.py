"""Per-layer tracing from outside the package.

Tracer.install() replaces each traced public function, in every loaded
frobenius module that binds it (has_rep_two, for one, is bound in both
representability and sequential), with a wrapper that records calls and
self time: a call's duration minus the time covered by traced calls it
made.  Calls to the hottest functions (10^5 to 10^6 per run) only add to
their counts; every other call also keeps a span (operation, span id,
parent span id, name, start, end) in memory for the trace file.

Statistics of an operation that fails are rolled back, so the per-layer
figures describe the operations that succeeded.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, function, hot): hot functions keep counts only, no spans.
TARGETS = (
    ("cli", "main", False),
    ("cli", "build_parser", False),
    ("basis", "normalize_basis", False),
    ("solver", "frobenius", False),
    ("solver", "frobenius_descent", False),
    ("solver", "frobenius_sequential", False),
    ("representability", "has_rep_two", True),
    ("representability", "has_rep", True),
    ("representability", "find_witness", False),
    ("sequential", "h_is_zero", True),
    ("sequential", "delta_scan", False),
    ("oracle", "sieve", False),
    ("oracle", "is_independent", False),
    ("oracle", "frobenius_oracle", False),
    ("oracle", "scan_upper_bound", False),
    ("bounds", "bound_report", False),
    ("bounds", "chain_bounds", False),
    ("randgen", "random_basis", False),
)


# The per-layer metrics a traced run prints (trace.overhead is added by
# run.py): the layers and counters an optimisation is most likely to move.
PER_LAYER = (
    "cli.build_parser.calls", "cli.build_parser.self_ms", "cli.main.self_ms",
    "basis.normalize_basis.calls", "basis.normalize_basis.self_ms",
    "solver.frobenius.calls", "solver.frobenius.self_ms", "solver.candidates_scanned",
    "solver.frobenius_descent.self_ms", "solver.frobenius_sequential.self_ms",
    "representability.has_rep_two.calls", "representability.has_rep_two.self_ms",
    "representability.has_rep_two.per_candidate",
    "representability.has_rep.calls", "representability.has_rep.self_ms",
    "representability.find_witness.calls", "representability.find_witness.self_ms",
    "sequential.h_is_zero.calls", "sequential.h_is_zero.self_ms", "sequential.delta_scan.self_ms",
    "oracle.sieve.calls", "oracle.sieve.self_ms", "oracle.sieve.bits",
    "oracle.is_independent.calls", "oracle.is_independent.self_ms",
    "oracle.frobenius_oracle.calls", "oracle.frobenius_oracle.self_ms",
    "oracle.scan_upper_bound.calls",
    "bounds.bound_report.self_ms", "bounds.chain_bounds.calls", "bounds.chain_bounds.self_ms",
    "randgen.random_basis.self_ms",
)


def _candidates(args: tuple, kwargs: dict, result) -> int:
    return result.candidates_scanned


def _sieve_bits(args: tuple, kwargs: dict, result) -> int:
    return (args[1] if len(args) > 1 else kwargs["limit"]) + 1


# Counters read off a call: candidates a solver scanned, bits a sieve built.
COUNTERS = {
    "solver.frobenius_descent": ("solver.candidates_scanned", _candidates),
    "solver.frobenius_sequential": ("solver.candidates_scanned", _candidates),
    "oracle.sieve": ("oracle.sieve.bits", _sieve_bits),
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {f"{m}.{f}": [0, 0.0] for m, f, _ in TARGETS}
        self.counters = {"solver.candidates_scanned": 0, "oracle.sieve.bits": 0}
        self.spans: list[tuple] = []
        self.op = 0
        self.ok_ops = 0
        self._stack = [[0.0, None]]  # per open call: [child time, span id]
        self._next_id = 0
        self._patched: list[tuple] = []
        self._wrappers = {}

    def _wrap(self, label: str, fn, hot: bool):
        stats = self.stats[label]
        stack = self._stack
        counters = self.counters
        spans = self.spans
        counter = COUNTERS.get(label)

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][0] += t1 - t0
                stats[0] += 1
                stats[1] += t1 - t0 - frame[0]
                if not hot:
                    spans.append((self.op, frame[1], stack[-1][1], label, t0, t1))
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "frobenius" or name.startswith("frobenius.")]
        for module_name, func, hot in TARGETS:
            label = f"{module_name}.{func}"
            orig = getattr(importlib.import_module(f"frobenius.{module_name}"), func)
            if label not in self._wrappers:
                self._wrappers[label] = self._wrap(label, orig, hot)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, self._wrappers[label])
                        self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def snapshot(self) -> tuple:
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counters), len(self.spans))

    def rollback(self, snap: tuple) -> None:
        stats, counters, nspans = snap
        for k, v in stats.items():
            self.stats[k][:] = v
        self.counters.update(counters)
        del self.spans[nspans:]
        del self._stack[1:]
        self._stack[0][0] = 0.0

    def layer_metrics(self, scale: float) -> dict[str, tuple[float, str]]:
        """The PER_LAYER figures, per successful operation, as {name: (value, unit)}.

        Self times are multiplied by scale, the run's host-speed scale.
        """
        per = 1.0 / self.ok_ops if self.ok_ops else 0.0
        out: dict[str, tuple[float, str]] = {}
        for label, (calls, self_s) in self.stats.items():
            out[f"{label}.calls"] = (calls * per, "calls/op")
            out[f"{label}.self_ms"] = (self_s * 1000.0 * scale * per, "ms/op")
        candidates = self.counters["solver.candidates_scanned"]
        out["solver.candidates_scanned"] = (candidates * per, "count/op")
        out["oracle.sieve.bits"] = (self.counters["oracle.sieve.bits"] * per, "bits/op")
        two = self.stats["representability.has_rep_two"][0]
        out["representability.has_rep_two.per_candidate"] = (
            two / candidates if candidates else 0.0, "calls/cand")
        return {name: out[name] for name in PER_LAYER}
