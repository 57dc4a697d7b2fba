"""Self-tests of the benchmark; not part of the package's test suite.

    python3 perfbench/selftest.py

1. Smoke: every workload at tiny sizes, with and without tracing, must
   print a result line whose metrics are exactly the ones BENCHMARK.json
   names, with the same units, and report no failure; untraced runs must
   print the detail line before it.
2. Negative checks: a tampered CSV row, a wrong x_inf, a wrong oracle
   mass and a large ODE deviation must each trip their gate.
3. Without the sources next to it, the benchmark must exit non-zero and
   print no result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import NAMES, WORKDIR  # noqa: E402

FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{detail}", flush=True)
    if not ok:
        FAILURES.append(name)


def run_bench(script: Path, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in NAMES:
        for trace in (0, 1):
            proc = run_bench(HERE / "run.py", ROOT, name, trace)
            lines = proc.stdout.splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                report(f"smoke {name} trace={trace}", False, f": no result\n{proc.stderr}")
                continue
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            numbers = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                          for m in res["metrics"].values())
            ok = (proc.returncode == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                  and got == want[trace] and numbers and lines[0].startswith("env ")
                  and (trace or set(json.loads(lines[-2].removeprefix("detail "))) ==
                       {"items_per_s_unscaled", "correction", "setup_s_unscaled"}))
            report(f"smoke {name} trace={trace}", ok,
                   f" ({len(got)} metrics, {res['attempted']} operations)")


def negative_checks() -> None:
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        sim = workloads.SimulateSmallN(7, workloads.SMOKE, tmp)
        rc, text = workloads.call_cli(sim.argv)
        good = sim.dump.read_text()
        report("simulate gate accepts the CLI's own output", rc == 0 and not sim.check(text))
        rows = good.split("\n")
        rep, x, u, z, t = rows[3].split(",")
        rows[3] = ",".join([rep, str(int(x) + 1), u, str(int(z) - 1), t])
        problems = workloads.check_simulate(json.loads(text), "\n".join(rows), sim.n, sim.reps)
        report("simulate gate trips on a tampered CSV row", bool(problems), f" ({problems[:1]})")
        rows[3] = ",".join([rep, str(int(x) + 1), u, z, t])
        problems = workloads.check_simulate(json.loads(text), "\n".join(rows), sim.n, sim.reps)
        report("simulate gate trips on x + u + z != N + 1", bool(problems), f" ({problems[:1]})")
        short = good.split("\n")
        del short[2]
        problems = workloads.check_simulate(json.loads(text), "\n".join(short), sim.n, sim.reps)
        report("simulate gate trips on a missing row", bool(problems), f" ({problems[:1]})")

        ver = workloads.VerifyLarge(7, workloads.SMOKE, tmp)
        rc, text = workloads.call_cli(ver.argv)
        report("verify gate accepts the CLI's own output", rc in (0, 1) and not ver.check(text))
        obj = json.loads(text)
        bad = re.sub(r'"x_inf": [^,]+', f'"x_inf": {obj["x_inf"] + 1e-8!r}', text, count=1)
        problems = workloads.VerifyLarge(7, workloads.SMOKE, tmp).check(bad)
        report("verify gate trips on a wrong x_inf", any("x_inf" in p for p in problems),
               f" ({problems[:1]})")
        problems = ver.check(bad)
        report("verify gate trips on stdout that differs within a seed",
               any("differs" in p for p in problems))

        problems = workloads.check_oracle({"total_mass": 1.0 - 1e-9})
        report("oracle gate trips on lost mass", bool(problems))
        problems = workloads.check_clt({"cross_check": {"max_abs_deviation": 2e-6}})
        report("clt gate trips on an ODE deviation above 1e-6", bool(problems))
        dk = workloads.preset_params("dk")
        x_inf = workloads.solve_x_infinity(dk).x_inf
        problems = workloads.check_limit({"x_inf": x_inf + 1e-9}, dk)
        report("limit gate trips on a solver off the closed form", bool(problems))
    finally:
        shutil.rmtree(tmp)


def bare_directory() -> None:
    WORKDIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare / HERE.name / "run.py", bare, "theory-sweep", 0)
        last = proc.stdout.splitlines()[-1:]
        report("bare directory exits non-zero without a result",
               proc.returncode != 0 and not any(line.startswith("{") for line in last),
               f" (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    smoke()
    negative_checks()
    bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
