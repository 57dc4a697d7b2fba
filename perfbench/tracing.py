"""In-memory spans and counters for the benchmark's traced run.

A span records its name, start, end, parent span and run id.  Spans are
kept in memory and written out once, at exit.  A layer's self time is
the duration of its spans minus the part covered by their child spans.
Spans are recorded from the benchmark's own code around calls into each
layer; the program itself carries no tracing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MIB = 1 << 20


class Tracer:
    def __init__(self) -> None:
        self.run_id = ""
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s["name"]] += s["end"] - s["start"] - c
        return out

    def root_time(self) -> float:
        """Time covered by top-level spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# per-layer metric -> span name whose self time it reports
SPAN_METRICS = {
    "limits.solve_s": "limits.solve",
    "clt.constants_s": "clt.constants",
    "clt.ode_s": "clt.ode",
    "clt.fluid_s": "clt.fluid",
    "simulate.block_wait_s": "simulate.block_wait",
    "simulate.fold_s": "simulate.fold",
    "simulate.verify_s": "simulate.verify",
    "simulate.exact_s": "simulate.exact",
    "cli.csv_write_s": "cli.csv_write",
    "jsonio.dumps_s": "jsonio.dumps",
}
COUNT_METRICS = ("simulate.jumps", "simulate.uniforms_drawn", "simulate.minor_outbreaks",
                 "limits.iterations", "cli.csv_bytes", "jsonio.bytes")
# values derived from the stream contract or array shapes, not measured
COMPUTED = ("simulate.uniforms_drawn", "simulate.uniform_use_ratio",
            "simulate.chunk_buffer_mib", "simulate.exact_cube_mib")
LAYER_UNITS = {
    "simulate.block_wait_s": "s",
    "simulate.ms_per_rep": "ms",
    "simulate.ns_per_jump": "ns",
    "simulate.jumps": "count",
    "simulate.uniforms_drawn": "count",
    "simulate.uniform_use_ratio": "ratio",
    "simulate.chunk_buffer_mib": "MiB",
    "simulate.minor_outbreaks": "count",
    "simulate.fold_s": "s",
    "simulate.verify_s": "s",
    "simulate.exact_s": "s",
    "simulate.exact_cube_mib": "MiB",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.self_s": "s",
    "limits.solve_s": "s",
    "limits.iterations": "count",
    "clt.constants_s": "s",
    "clt.ode_s": "s",
    "clt.fluid_s": "s",
    "jsonio.dumps_s": "s",
    "jsonio.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}
ROOTS = ("cli.verify","cli.simulate", "cli.limit", "cli.clt", "cli.fluid", "cli.oracle")


def layer_metrics(tr: Tracer, passes: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer values per pass.  A layer the workload does not reach
    reports 0."""
    selft = tr.self_times()
    c = tr.counts
    out = {m: selft.get(span, 0.0) / passes for m, span in SPAN_METRICS.items()}
    out["cli.self_s"] = sum(selft.get(r, 0.0) for r in ROOTS) / passes
    out.update({m: c[m] / passes for m in COUNT_METRICS})
    wait = selft.get("simulate.block_wait", 0.0)
    out["simulate.ms_per_rep"] = 1e3 * wait / c["simulate.reps"] if c["simulate.reps"] else 0.0
    out["simulate.ns_per_jump"] = 1e9 * wait / c["simulate.jumps"] if c["simulate.jumps"] else 0.0
    drawn = c["simulate.uniforms_drawn"]
    out["simulate.uniform_use_ratio"] = c["simulate.uniforms_used"] / drawn if drawn else 0.0
    out["simulate.chunk_buffer_mib"] = tr.peaks["simulate.chunk_buffer_bytes"] / MIB
    out["simulate.exact_cube_mib"] = tr.peaks["simulate.exact_cube_bytes"] / MIB
    out["trace.wall_s"] = traced_s / passes
    out["trace.overhead_s"] = (traced_s - untraced_s) / passes
    out["trace.uncovered_s"] = (traced_s - tr.root_time()) / passes
    return out
