"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--out FILE]

Runs run.py once per seed 1-10 and workload of BENCHMARK.json, seeds in
the outer loop so that slow drift of the machine reaches every workload
alike, with the run_seconds of BENCHMARK.json.  For each end-to-end
metric it prints the median, the quartiles (statistics.quantiles(values,
n=4)) and the spread (q3 - q1) / median next to the metric's bound, and
the same for the unscaled throughput and set-up time and for the
calibration's correction factor (see run.py).  It exits 1 if any
end-to-end spread is above a third of its bound, or if a run's correction
factor is more than CORRECTION_TOL away from the median over every run.
--out writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import CORRECTION_TOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def quartiles(vals: list[float]) -> dict:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(vals)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write every run and the summary here")
    args = ap.parse_args(argv)

    runs: dict[str, list[dict]] = {w: [] for w in names}
    env = None
    for seed in SEEDS:
        for w in names:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            env = env or json.loads(lines[0].removeprefix("env "))
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["detail"] = json.loads(lines[-2].removeprefix("detail "))
            runs[w].append(res)
            vals = "  ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
            d = res["detail"]
            print(f"{w:18s} seed {seed:3d}  correct={res['correct']}  {vals}  "
                  f"unscaled={d['items_per_s_unscaled']['median']:.5g}  "
                  f"correction={d['correction']['median']:.4f}", flush=True)

    usual = statistics.median(r["detail"]["correction"]["median"]
                              for w in names for r in runs[w])
    summary: dict[str, dict] = {"correction_usual": usual}
    steady = True
    print(f"\n{'workload':18s} {'metric':20s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w in names:
        summary[w] = {}
        rows = [(m["name"], m["unit"], m["bound"],
                 [r["metrics"][m["name"]]["value"] for r in runs[w]])
                for m in spec["end_to_end"]]
        rows += [(key, unit, None, [r["detail"][key]["median"] for r in runs[w]])
                 for key, unit in (("items_per_s_unscaled", "1/s"), ("correction", "ratio"),
                                   ("setup_s_unscaled", "s"))]
        for name, unit, bound, vals in rows:
            q = quartiles(vals)
            summary[w][name] = {"unit": unit, **q}
            flag = ""
            if bound is not None and q["spread"] > bound / 3:
                flag = "  above a third of the bound"
                steady = False
            shown = f"{bound:6.2f}" if bound is not None else f"{'-':>6s}"
            print(f"{w:18s} {name:20s} {q['median']:10.5g} {q['q1']:10.5g} {q['q3']:10.5g} "
                  f"{q['spread']:7.3f} {shown}{flag}")
        for r in runs[w]:
            c = r["detail"]["correction"]["median"]
            if abs(c / usual - 1.0) > CORRECTION_TOL:
                print(f"{w:18s} seed {r['seed']}: correction {c:.4f} is more than "
                      f"{CORRECTION_TOL:.0%} from the usual {usual:.4f}")
                steady = False
        failed = sum(r["failed"] for r in runs[w])
        attempted = sum(r["attempted"] for r in runs[w])
        summary[w]["failed_ratio"] = failed / attempted
        print(f"{w:18s} failed_ratio {failed}/{attempted}")
    print(f"usual correction factor {usual:.4f}")
    if args.out:
        out = {"env": env, "run_seconds": spec["run_seconds"], "seeds": SEEDS,
               "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
