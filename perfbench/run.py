"""Benchmark for the rumour package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: verify-large, simulate-small-n, theory-sweep (see README.md),
or "all" to run each in its own process and print a summary.

--trace 0 measures the end-to-end metrics with tracing off:
  items_per_s   replications (Monte Carlo workloads) or parameter points
                (theory-sweep) completed per second, median over passes,
                each pass scaled to the machine's reference speed (see
                calibrate())
  setup_s       wall time of a fresh interpreter that imports rumour and
                makes one tiny call on the workload's path, median of
                SETUP_RUNS, each scaled to the machine's reference speed
                (see time_setup())
  peak_rss_mib  peak resident memory of this process
and, on the line before the result, a "detail" JSON object with the
unscaled throughput, the correction factor and the unscaled set-up time
(median and quartiles each).
--trace 1 reruns the workload with every pass done twice, once through the
CLI and once with spans around each layer (see workloads.py), and reports
per-layer self times and counts per pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The program is imported from src/ next
to this directory; without it the benchmark exits with code 2.
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
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "out"
NAMES = ("verify-large", "simulate-small-n", "theory-sweep")
SETUP_RUNS = 7
# a fresh interpreter importing a fixed set of standard-library modules; it
# takes about SETUP_REF_S on the 2-core VM the baseline comes from
SETUP_REF_CODE = ("import argparse, asyncio, csv, decimal, email.mime.multipart, fractions, "
                  "http.server, json, logging, sqlite3, statistics, unittest, xml.dom.minidom")
SETUP_REF_S = 0.16
# calibrate() takes about CAL_REF_S on the 2-core VM the baseline comes from
CAL_ITERATIONS = 200_000
CAL_REF_S = 0.02
# warn when a run's correction factor is this far from the baseline's: a
# correction this far off would hide a throughput change of the same size
CORRECTION_TOL = 0.25
BASELINE = HERE / "BENCH_baseline.json"
E2E_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_CODE = """\
import contextlib, io, json, sys
from rumour import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = {cli.main(a) for a in json.loads(sys.argv[1])}
sys.exit(0 if codes <= set(json.loads(sys.argv[2])) else 3)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    return ap.parse_args(argv)


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summary(values: list[float]) -> str:
    if not values:
        return "no samples"
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  max {max(values):.6g}  n={len(values)}"


def environment() -> dict:
    import numpy
    import scipy

    from rumour import simulate

    env = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "numba" if simulate.HAVE_NUMBA else "python-fallback",
    }
    if simulate.HAVE_NUMBA:
        import numba

        env["numba"] = numba.__version__
    return env


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed.

    On a shared VM the speed of the same code drifts by a third over tens
    of seconds.  Each pass's throughput is scaled by the mean of the
    calibrations just before and just after it, relative to CAL_REF_S,
    which cancels that drift.  The scaling would also cancel a slow-down
    the program causes in the loop as well as in the pass (a thread left
    running after a call), so the unscaled figures and the correction
    factor are kept in the detail line, and check_correction() flags a
    factor far from the baseline's."""
    t0 = perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


def check_correction(correction: float) -> None:
    """Warn when the correction factor is far from the recorded baseline's:
    the machine differs from the baseline's, or the program slows the
    calibration loop, and the unscaled figures should be compared."""
    if not BASELINE.is_file():
        return
    usual = json.loads(BASELINE.read_text())["summary"].get("correction_usual")
    if usual and abs(correction / usual - 1.0) > CORRECTION_TOL:
        print(f"warning: correction factor {correction:.4f} is more than {CORRECTION_TOL:.0%} "
              f"from the baseline's {usual:.4f}; compare items_per_s_unscaled", file=sys.stderr)


def cold_start(code: str, *args: str) -> float:
    """Wall time of one fresh interpreter running code with the sources
    on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed ({proc.returncode}):\n{proc.stderr}")
    return elapsed


def time_setup(wl) -> tuple[list[float], list[float]]:
    """SETUP_RUNS cold starts of the workload's set-up, each between two
    cold starts of the reference SETUP_REF_CODE.  Returns the set-up times
    unscaled and scaled by SETUP_REF_S over the mean of the two reference
    times around each.  Start-up speed drifts with the machine's like the
    throughput does (calibrate()); the reference runs no program code and
    has exited before it is timed, so a change to the program moves the
    scaled set-up time exactly as much as the unscaled one."""
    warmup = (json.dumps(wl.warmup), json.dumps(wl.ok_codes))
    ref = [cold_start(SETUP_REF_CODE)]
    raw = []
    for _ in range(SETUP_RUNS):
        raw.append(cold_start(SETUP_CODE, *warmup))
        ref.append(cold_start(SETUP_REF_CODE))
    scaled = [t * 2 * SETUP_REF_S / (a + b) for t, a, b in zip(raw, ref, ref[1:])]
    return raw, scaled


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


def untraced_pass(wl, tally: Tally) -> tuple[float, list[str | None], bool]:
    """Run every operation of one pass through the CLI and gate each.
    Returns (time inside the CLI, stdouts, whether all passed)."""
    from workloads import call_cli

    busy = 0.0
    texts: list[str | None] = []
    ok = True
    for op in wl.ops():
        label = " ".join(op.argv[:1] + op.argv[-2:])
        t0 = perf_counter()
        try:
            rc, text = call_cli(op.argv)
        except Exception:
            traceback.print_exc()
            tally.record(label, ["raised"])
            texts.append(None)
            ok = False
            continue
        busy += perf_counter() - t0
        texts.append(text)
        try:
            problems = op.check(text) if rc in wl.ok_codes else [f"exit code {rc}"]
        except Exception as e:
            traceback.print_exc()
            problems = [f"gate raised {e!r}"]
        tally.record(label, problems)
        ok = ok and not problems
    return busy, texts, ok


def timed_run(wl, seconds: float) -> tuple[Tally, dict, dict]:
    from workloads import call_cli

    setup_raw, setup = time_setup(wl)
    for argv in wl.warmup:  # lazy set-up (imports, JIT, caches) before timing
        call_cli(argv)
    tally = Tally()
    raw, corrections, rates = [], [], []
    cal = calibrate()
    start = perf_counter()
    while True:
        busy, _, ok = untraced_pass(wl, tally)
        cal_before, cal = cal, calibrate()
        if ok:
            raw.append(wl.items / busy)
            corrections.append(0.5 * (cal_before + cal) / CAL_REF_S)
            rates.append(raw[-1] * corrections[-1])
        if perf_counter() - start >= seconds:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"items_per_s   ({wl.item} per second, scaled to the reference speed)  {summary(rates)}")
    print(f"  unscaled    {summary(raw)}")
    print(f"  correction  {summary(corrections)}")
    print(f"setup_s       (fresh interpreter: import + warm-up call, scaled to the reference "
          f"speed)  {summary(setup)}")
    print(f"  unscaled    {summary(setup_raw)}")
    print(f"peak_rss_mib  {rss:.6g} (n=1)")
    metrics = {
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss,
    }
    detail = {"items_per_s_unscaled": quartiles(raw) if raw else None,
              "correction": quartiles(corrections) if corrections else None,
              "setup_s_unscaled": quartiles(setup_raw)}
    if corrections:
        check_correction(statistics.median(corrections))
    return tally, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, detail


def traced_run(wl, seconds: float, seed: int) -> tuple[Tally, dict, None]:
    from tracing import COMPUTED, LAYER_UNITS, Tracer, layer_metrics
    from workloads import call_cli

    for argv in wl.warmup:
        call_cli(argv)
    tr = Tracer()
    tally = Tally()
    passes = 0
    traced_s = untraced_s = 0.0
    start = perf_counter()
    while True:
        busy, texts, _ = untraced_pass(wl, tally)
        untraced_s += busy
        tr.run_id = f"{wl.name}:{seed}:{passes}"
        t0 = perf_counter()
        traced, problems = wl.traced_pass(tr)
        traced_s += perf_counter() - t0
        if traced != texts:
            problems.append("traced stdout differs from the CLI's")
        tally.record(f"traced pass {passes}", problems)
        passes += 1
        if perf_counter() - start >= seconds:
            break
    WORKDIR.mkdir(exist_ok=True)
    spans_path = WORKDIR / f"trace-{wl.name}-{seed}.jsonl"
    tr.write(spans_path)
    values = layer_metrics(tr, passes, traced_s, untraced_s)
    print(f"per pass, over {passes} traced passes; {len(tr.spans)} spans in {spans_path}")
    for name, unit in LAYER_UNITS.items():
        tag = "  (computed from the stream contract / array shape)" if name in COMPUTED else ""
        print(f"  {name:28s} {values[name]:.6g} {unit}{tag}")
    print("note: the split between Philox pre-draw and kernel time inside "
          "simulate._run_chunk is not visible from outside; simulate.block_wait_s covers both.")
    return tally, {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}, None


def run_all(args) -> int:
    """Run every workload in its own process and print a summary."""
    rows = []
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            return 1
        rows.append((name, json.loads(lines[-1])))
    print("== summary")
    ok = True
    for name, res in rows:
        ratio = res["failed"] / res["attempted"]
        ok = ok and res["correct"]
        metrics = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:18s} correct={res['correct']} failed_ratio={ratio:g} "
              f"({res['failed']}/{res['attempted']})  {metrics}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rumour" / "__init__.py").is_file():
        print(f"error: the rumour sources are missing ({SRC / 'rumour'})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import rumour
    import workloads

    if Path(rumour.__file__).resolve().parent != SRC / "rumour":
        print(f"error: imported rumour from {rumour.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env))
    if env["backend"] == "python-fallback":
        print("warning: numba is not installed; the pure-Python fallback kernel ran",
              file=sys.stderr)
    WORKDIR.mkdir(exist_ok=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, WORKDIR)
    print(f"workload {wl.name}  seed {args.seed}  {wl.items} {wl.item} per pass  "
          f"trace {args.trace}")
    try:
        if args.trace:
            tally, metrics, detail = traced_run(wl, args.seconds, args.seed)
        else:
            tally, metrics, detail = timed_run(wl, args.seconds)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    if getattr(wl, "verdicts", None):
        print(f"verify verdicts: {sum(wl.verdicts)} pass, {len(wl.verdicts) - sum(wl.verdicts)} "
              "fail (recorded, not counted as failures)")
    print(f"failed_ratio  {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    if detail:
        print("detail " + json.dumps(detail))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
