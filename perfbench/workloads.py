"""The benchmark's three workloads, their correctness gates and their
traced rebuilds.

Each workload is a list of operations (CLI invocations run in-process
through ``rumour.cli.main``) that make up one *pass*, plus:

- a gate per operation that checks the output along a route independent
  of the code that produced it;
- ``traced_pass``, which records a span around each layer of the same
  computation: verify-large and simulate-small-n rebuild their subcommand
  from the library's public calls (the rebuilt stdout must be
  byte-identical to the CLI's); theory-sweep calls the CLI itself with
  the layer functions it reaches wrapped in spans.

Inputs come only from the workload seed.  Why each workload exists, and
which end-to-end metric each layer should move on it, is written down in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rumour import (
    McStats,
    ModelParams,
    clt_constants,
    iter_final_states,
    jsonio,
    numerical_lambda_via_ode,
    preset_params,
    sigma_from_lambda,
    sigma_matrix,
    solve_x_infinity,
    verify,
    write_replications_csv,
    x_infinity_closed_form,
)
from rumour import cli
from rumour import clt as clt_mod
from rumour import limits as limits_mod
from rumour import simulate as sim_mod
from rumour.limits import THETA_EPS, theta_branch

from tracing import Tracer

# Tolerances are the test suite's: closed form against solver (1e-10,
# tests/test_limits.py and acceptance criteria 1-2), ODE oracle against the
# closed-form Lambda (1e-6, tests/test_clt.py and criterion 6), oracle
# mass (1e-12, tests/test_simulate.py) and the fluid endpoint (1e-10,
# tests/test_cli.py).
CLOSED_FORM_TOL = 1e-10
ODE_TOL = 1e-6
MASS_TOL = 1e-12
FLUID_END_TOL = 1e-10
# mean absorption time: the CLI sums per block, the gate sums per row
TIME_SUM_RTOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    verify_n: int
    verify_reps: int
    sim_n: int
    sim_reps: int
    oracle_n: int
    fluid_points: int


# verify_reps = one full chunk at N = 10^4 (209 rows).
FULL = Sizes(verify_n=10_000, verify_reps=209, sim_n=200, sim_reps=4096, oracle_n=60,
             fluid_points=201)
SMOKE = Sizes(verify_n=300, verify_reps=40, sim_n=50, sim_reps=64, oracle_n=8, fluid_points=11)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the gate its stdout must pass."""

    argv: list[str]
    check: Callable[[str], list[str]]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
    return rc, buf.getvalue()


@contextlib.contextmanager
def spans_around(tr: Tracer, layers):
    """Within the block, replace each (module, attribute) by a wrapper that
    records a span around the call and then calls after(result, *args)."""

    def wrap(fn, span, after):
        def traced(*args, **kwargs):
            with tr.span(span):
                out = fn(*args, **kwargs)
            if after:
                after(out, *args)
            return out

        return traced

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in layers]
    try:
        for mod, attr, span, after in layers:
            setattr(mod, attr, wrap(getattr(mod, attr), span, after))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def dumps(tr: Tracer, obj: dict) -> str:
    with tr.span("jsonio.dumps"):
        text = jsonio.dumps(obj)
    tr.count("jsonio.bytes", len(text.encode()))
    return text


def solve(tr: Tracer, params: ModelParams):
    with tr.span("limits.solve"):
        lim = solve_x_infinity(params)
    tr.count("limits.iterations", lim.iterations)
    return lim


def traced_blocks(tr: Tracer, blocks, n: int, streams: int, workers: int, minor_above: float):
    """Yield blocks, timing the wait for each one and counting jumps and
    minor outbreaks (final X above minor_above).  Drawn uniforms and buffer
    sizes are computed from the documented stream contract: each chunk
    pre-draws rows x (2N+1) doubles per stream, and up to `workers` chunks
    are in flight at once."""
    it = iter(blocks)
    chunks = 0
    largest = 0
    while True:
        with tr.span("simulate.block_wait"):
            b = next(it, None)
        if b is None:
            tr.peak("simulate.chunk_buffer_bytes", largest * min(workers, chunks))
            return
        rows = len(b.x)
        jumps = int(b.jumps.sum())
        tr.count("simulate.reps", rows)
        tr.count("simulate.jumps", jumps)
        tr.count("simulate.uniforms_drawn", rows * (2 * n + 1) * streams)
        tr.count("simulate.uniforms_used", jumps * streams)
        tr.count("simulate.minor_outbreaks", int((b.x > minor_above).sum()))
        chunks += 1
        largest = max(largest, rows * (2 * n + 1) * 8 * streams)
        yield b


def minor_threshold(n: int, x_inf: float) -> float:
    """Final X above this is a minor outbreak: midway between the atom
    near N and the bulk near N * x_inf."""
    return 0.5 * n * (1.0 + x_inf)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------------------
# verify-large
# --------------------------------------------------------------------------


class VerifyLarge:
    """rumour verify --preset dk --n 10000 --workers 1, jump-chain mode.

    One worker: two workers give no speed-up with the pure-Python kernel,
    and the throughput of two threads contending for the interpreter lock
    does not follow the machine-speed calibration in run.py."""

    name = "verify-large"
    item = "replications"
    ok_codes = (0, 1)  # a fail verdict (exit 1) is recorded, not a failure
    workers = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.n = sizes.verify_n
        self.reps = sizes.verify_reps
        self.items = self.reps
        self.params = preset_params("dk")
        self.argv = ["verify", "--preset", "dk", "--n", str(self.n), "--reps", str(self.reps),
                     "--seed", str(seed), "--workers", str(self.workers)]
        self.warmup = [["verify", "--preset", "dk", "--n", "50", "--reps", "4",
                        "--seed", str(seed), "--workers", str(self.workers)]]
        self.first_stdout: str | None = None
        self.verdicts: list[bool] = []
        # independent routes: Lambert-W closed form for x_inf, and Sigma
        # projected from the Lyapunov-ODE Lambda (no closed-form Sigma algebra)
        closed = x_infinity_closed_form(self.params)
        consts = clt_constants(self.params, closed)
        self.x_inf_closed = closed.x_inf
        self.sigma_ode = sigma_from_lambda(
            numerical_lambda_via_ode(self.params, closed), consts.a, self.params.delta
        ).as_array()
        # |dSigma| <= |M|^2 |dLambda| with M = [[1, 0, -A], [0, 1, A(1-delta)]]
        self.sigma_tol = ODE_TOL * (1.0 + abs(consts.a)) ** 2

    def ops(self) -> list[Op]:
        return [Op(self.argv, self.check)]

    def check(self, text: str) -> list[str]:
        problems = []
        if self.first_stdout is None:
            self.first_stdout = text
        elif text != self.first_stdout:
            problems.append("verify stdout differs between runs of one seed")
        obj = json.loads(text)
        self.verdicts.append(bool(obj["pass"]))
        if not _close(obj["x_inf"], self.x_inf_closed, CLOSED_FORM_TOL):
            problems.append(f"x_inf {obj['x_inf']!r} != Lambert-W {self.x_inf_closed!r}")
        dev = float(np.abs(np.array(obj["sigma_theory"]) - self.sigma_ode).max())
        if not dev <= self.sigma_tol:
            problems.append(f"sigma_theory deviates from the ODE oracle by {dev:.3g}")
        return problems

    def traced_pass(self, tr: Tracer) -> tuple[list[str], list[str]]:
        """Rebuild cmd_verify from public calls."""
        with tr.span("cli.verify"):
            cli.build_parser().parse_args(self.argv)
            params = preset_params("dk")
            lim = solve(tr, params)
            with tr.span("clt.constants"):
                consts = clt_constants(params, lim)
                sigma = sigma_matrix(consts, params, lim)
            stats = McStats.empty(self.n, self.seed)
            blocks = iter_final_states(self.n, self.reps, params, self.seed, self.workers,
                                       "jump-chain")
            minor_above = minor_threshold(self.n, lim.x_inf)
            for b in traced_blocks(tr, blocks, self.n, 1, self.workers, minor_above):
                with tr.span("simulate.fold"):
                    stats.add_block(b)
            with tr.span("simulate.verify"):
                report = verify(stats, lim, sigma)
            obj = {"preset": {"preset": "dk"}, "params": params.to_json_obj()}
            obj["master_seed"] = self.seed
            obj["mode"] = "jump-chain"
            obj.update(report.to_json_obj())
            text = dumps(tr, obj)
        return [text], []


# --------------------------------------------------------------------------
# simulate-small-n
# --------------------------------------------------------------------------


class SimulateSmallN:
    """rumour simulate --preset apq_dk --alpha 1 --p 1 --q 0.5
    --mode exact-time --n 200 --workers 1 --dump <csv>."""

    name = "simulate-small-n"
    item = "replications"
    ok_codes = (0,)
    aux = {"alpha": 1.0, "p": 1.0, "q": 0.5}

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.n = sizes.sim_n
        self.reps = sizes.sim_reps
        self.items = self.reps
        self.params = preset_params("apq_dk", **self.aux)
        self.dump = workdir / f"simulate-{seed}.csv"
        self.traced_dump = workdir / f"simulate-{seed}.traced.csv"
        base = ["simulate", "--preset", "apq_dk", "--alpha", "1", "--p", "1", "--q", "0.5",
                "--mode", "exact-time", "--workers", "1", "--seed", str(seed)]
        self.argv = base + ["--n", str(self.n), "--reps", str(self.reps), "--dump", str(self.dump)]
        self.warmup = [base + ["--n", "20", "--reps", "4", "--dump", str(self.dump)]]

    def ops(self) -> list[Op]:
        return [Op(self.argv, self.check)]

    def check(self, text: str) -> list[str]:
        return check_simulate(json.loads(text), self.dump.read_text(), self.n, self.reps)

    def cleanup(self) -> None:
        self.dump.unlink(missing_ok=True)
        self.traced_dump.unlink(missing_ok=True)

    def traced_pass(self, tr: Tracer) -> tuple[list[str], list[str]]:
        """Rebuild cmd_simulate from public calls."""
        minor_above = minor_threshold(self.n, solve_x_infinity(self.params).x_inf)
        with tr.span("cli.simulate"):
            cli.build_parser().parse_args(self.argv)
            params = preset_params("apq_dk", **self.aux)
            stats = McStats.empty(self.n, self.seed)
            tau_sum = 0.0
            blocks = iter_final_states(self.n, self.reps, params, self.seed, 1, "exact-time")

            def folding():
                nonlocal tau_sum
                for b in traced_blocks(tr, blocks, self.n, 2, 1, minor_above):
                    with tr.span("simulate.fold"):
                        stats.add_block(b)
                        tau_sum += float(b.absorption_time.sum())
                    yield b

            with tr.span("cli.csv_write"):
                with open(self.traced_dump, "w", newline="") as fh:
                    write_replications_csv(fh, folding())
            tr.count("cli.csv_bytes", self.traced_dump.stat().st_size)
            obj = {"preset": {"preset": "apq_dk", **self.aux}, "params": params.to_json_obj()}
            obj["mode"] = "exact-time"
            obj["stats"] = stats.to_json_obj()
            obj["mean_x"] = stats.mean_x()
            obj["mean_u"] = stats.mean_u()
            obj["sigma_emp"] = stats.cov_sqrt_n().to_json_obj()
            obj["mean_absorption_time"] = tau_sum / self.reps
            text = dumps(tr, obj)
        problems = []
        if self.traced_dump.read_bytes() != self.dump.read_bytes():
            problems.append("traced CSV dump differs from the CLI's")
        return [text], problems


def check_simulate(obj: dict, csv_text: str, n: int, reps: int) -> list[str]:
    """Re-fold the dumped CSV and compare it with the JSON summary."""
    problems = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[:1] != [["rep", "x_final", "u_final", "z_final", "absorption_time"]]:
        return ["CSV header is wrong"]
    rows = rows[1:]
    if len(rows) != reps:
        problems.append(f"CSV has {len(rows)} rows, want {reps}")
    sx = su = sxx = sxu = suu = 0
    tau = 0.0
    for i, (rep, xs, us, zs, ts) in enumerate(rows):
        x, u, z = int(xs), int(us), int(zs)
        if int(rep) != i:
            problems.append(f"CSV row {i} has rep {rep}")
        if x + u + z != n + 1:
            problems.append(f"CSV row {i}: x + u + z = {x + u + z}, want {n + 1}")
        sx += x
        su += u
        sxx += x * x
        sxu += x * u
        suu += u * u
        tau += float(ts)
    stats = obj["stats"]
    want = {"reps": len(rows), "n": n, "sum_x": sx / n, "sum_u": su / n,
            "sum_xx": sxx / n**2, "sum_xu": sxu / n**2, "sum_uu": suu / n**2}
    for key, value in want.items():
        if stats[key] != value:
            problems.append(f"stats.{key} = {stats[key]!r}, CSV re-fold gives {value!r}")
    if rows and not math.isclose(obj["mean_absorption_time"], tau / len(rows),
                                 rel_tol=TIME_SUM_RTOL):
        problems.append("mean_absorption_time disagrees with the CSV")
    return problems


# --------------------------------------------------------------------------
# theory-sweep
# --------------------------------------------------------------------------

THETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_PRESETS = ("dk", "mt", "hayes")


@dataclass(frozen=True)
class Point:
    flags: list[str]
    params: ModelParams


def sweep_points(seed: int) -> list[Point]:
    """theta on THETA_GRID, each with delta = 1 and one delta < 1; gamma,
    lambda and the theta1/theta2 split drawn from the seed; plus the
    presets that take no auxiliary parameters."""
    rng = np.random.default_rng(seed)
    points = []
    for theta in THETA_GRID:
        for delta in (1.0, float(rng.uniform(0.3, 0.9))):
            gamma = float(rng.uniform(0.5, 2.0))
            lam = float(rng.uniform(0.5, 2.0))
            theta1 = float(rng.uniform(0.0, 1.0)) * (gamma + theta)
            theta2 = gamma + theta - theta1
            vals = {"lambda": lam, "gamma": gamma, "theta1": theta1, "theta2": theta2,
                    "delta": delta}
            flags = [a for k, v in vals.items() for a in (f"--{k}", repr(v))]
            points.append(Point(flags, ModelParams.from_json_obj(vals)))
    for name in SWEEP_PRESETS:
        points.append(Point(["--preset", name], preset_params(name)))
    return points


class TheorySweep:
    """limit, clt --cross-check, fluid --points 201 and oracle --n 60 at
    every point of sweep_points(seed); no Monte Carlo."""

    name = "theory-sweep"
    item = "parameter points"
    ok_codes = (0,)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.points = sweep_points(seed)
        self.items = len(self.points)
        self.oracle_n = sizes.oracle_n
        self.fluid_points = sizes.fluid_points
        dk = ["--preset", "dk"]
        self.warmup = [["limit"] + dk, ["clt", "--cross-check"] + dk,
                       ["fluid", "--points", "5"] + dk, ["oracle", "--n", "3"] + dk]

    def ops(self) -> list[Op]:
        ops = []
        for pt in self.points:
            ops += [
                Op(["limit"] + pt.flags, lambda t, p=pt.params: check_limit(json.loads(t), p)),
                Op(["clt", "--cross-check"] + pt.flags, lambda t: check_clt(json.loads(t))),
                Op(["fluid", "--points", str(self.fluid_points)] + pt.flags,
                   lambda t: check_fluid(json.loads(t))),
                Op(["oracle", "--n", str(self.oracle_n)] + pt.flags,
                   lambda t: check_oracle(json.loads(t))),
            ]
        return ops

    def traced_pass(self, tr: Tracer) -> tuple[list[str], list[str]]:
        """Run the same CLI calls, in the order of ops(), with a span around
        each layer function that cli.py reaches through its module
        attributes.  The root span of each call is cli.<subcommand>, so
        cli.self_s is argument parsing and building the output object."""

        def cube(dist, n, params):
            # the DP's mass cube, (n+1)(n+2)^2 doubles (computed, not measured)
            tr.peak("simulate.exact_cube_bytes", (n + 1) * (n + 2) ** 2 * 8)

        layers = [
            (limits_mod, "solve_x_infinity", "limits.solve",
             lambda lim, params: tr.count("limits.iterations", lim.iterations)),
            (clt_mod, "clt_constants", "clt.constants", None),
            (clt_mod, "sigma_matrix", "clt.constants", None),
            (clt_mod, "t_infinity", "clt.constants", None),
            (clt_mod, "lambda_matrix", "clt.constants", None),
            (clt_mod, "numerical_lambda_via_ode", "clt.ode", None),
            (clt_mod, "fluid_trajectory", "clt.fluid", None),
            (sim_mod, "exact_final_distribution", "simulate.exact", cube),
            (jsonio, "dumps", "jsonio.dumps",
             lambda text, obj: tr.count("jsonio.bytes", len(text.encode()))),
        ]
        texts, problems = [], []
        with spans_around(tr, layers):
            for op in self.ops():
                with tr.span(f"cli.{op.argv[0]}"):
                    rc, text = call_cli(op.argv)
                texts.append(text)
                if rc not in self.ok_codes:
                    problems.append(f"{op.argv[0]}: exit code {rc}")
        return texts, problems


def check_limit(obj: dict, params: ModelParams) -> list[str]:
    """At theta in {0, 1/2, 1} the solver must match the closed form."""
    th = params.theta
    if theta_branch(th) is None and abs(th - 0.5) > THETA_EPS:
        return []
    closed = x_infinity_closed_form(params).x_inf
    if _close(obj["x_inf"], closed, CLOSED_FORM_TOL):
        return []
    return [f"theta = {th}: solver x_inf {obj['x_inf']!r} != closed form {closed!r}"]


def check_clt(obj: dict) -> list[str]:
    dev = obj["cross_check"]["max_abs_deviation"]
    return [] if dev <= ODE_TOL else [f"ODE cross-check deviation {dev:.3g} > {ODE_TOL}"]


def check_fluid(obj: dict) -> list[str]:
    """The trajectory must end on the final size: y(t_inf) = 0 (the
    suite's 1e-10, tests/test_cli.py)."""
    end = obj["points"][-1]
    if end["t"] == obj["t_inf"] and abs(end["y"]) <= FLUID_END_TOL:
        return []
    return [f"fluid trajectory ends at t = {end['t']!r}, y = {end['y']!r}"]


def check_oracle(obj: dict) -> list[str]:
    mass = obj["total_mass"]
    return [] if _close(mass, 1.0, MASS_TOL) else [f"oracle total_mass {mass!r} != 1"]


WORKLOADS = {w.name: w for w in (VerifyLarge, SimulateSmallN, TheorySweep)}
