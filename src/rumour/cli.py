"""Command-line front end.

Subcommands: limit, clt, fluid, simulate, verify, oracle, presets.
Model parameters come either from the five explicit flags or from
--preset plus its auxiliary flags (exactly one of the two), optionally
seeded from a JSON --config file (explicit flags override the file).

All randomness flows from --seed (default 1729, never time-based), and
output is deterministic: fixed key order, floats at 17 significant
digits, results independent of --workers.

Exit codes: 0 success / verification pass, 1 verification failure,
2 usage or parameter-validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from rumour import clt as clt_mod
from rumour import jsonio
from rumour import limits as limits_mod
from rumour import simulate as sim_mod
from rumour.errors import RumourError
from rumour.model import PRESETS, ModelParams, preset_params

DEFAULT_SEED = 1729
DEFAULT_REPS = 10_000
WORKERS_ENV = "RUMOUR_WORKERS"


class UsageError(Exception):
    pass


def _add_param_flags(ap: argparse.ArgumentParser) -> None:
    grp = ap.add_argument_group("model parameters (explicit or preset)")
    grp.add_argument("--preset", choices=sorted(PRESETS), help="named model preset")
    grp.add_argument("--lambda", dest="lam", type=float, help="contact rate > 0")
    grp.add_argument("--gamma", type=float,
                     help="spreader-stifler multiplier > 0 (kawachi: its gamma)")
    grp.add_argument("--theta1", type=float, help="both-stifle multiplier >= 0")
    grp.add_argument("--theta2", type=float, help="one-stifles multiplier >= 0")
    grp.add_argument("--delta", type=float, help="spreader-conversion probability in (0, 1]")
    for aux in ("rho", "alpha", "p", "q", "q1", "q2", "r", "beta", "theta"):
        grp.add_argument(f"--{aux}", type=float, help=f"preset parameter {aux}")
    ap.add_argument("--config", help="JSON file with the same keys; flags override")


def _add_output_flag(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--output", help="write to this path instead of stdout")


def _add_sim_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--n", type=int, help="population parameter N (initial ignorants)")
    ap.add_argument("--reps", type=int, help=f"replications (default {DEFAULT_REPS})")
    ap.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    ap.add_argument("--workers", type=int,
                    help=f"parallel workers (default ${WORKERS_ENV} or 1)")
    ap.add_argument("--mode", choices=sim_mod.MODES, help="simulation mode (default jump-chain)")


def _load_config(ns) -> dict:
    if not getattr(ns, "config", None):
        return {}
    try:
        with open(ns.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"--config {ns.config}: {e}")
    if not isinstance(cfg, dict):
        raise UsageError(f"--config {ns.config}: expected a JSON object")
    return cfg


# Keys that hold integers; preset and mode hold strings, every other key
# a real number.
_INT_KEYS = ("n", "reps", "seed", "workers")
_STR_KEYS = ("preset", "mode")


def _merged(ns, cfg: dict, key: str, attr: str | None = None):
    """The flag's value, else the config file's, else None, converted to
    the key's type.  A value of the wrong type ("abc" for a number, 2.7 for
    an integer) is a usage error naming the key."""
    val = getattr(ns, attr or key, None)
    if val is None:
        val = cfg.get(key)
    if val is None or key in _STR_KEYS:
        return val
    kind = int if key in _INT_KEYS else float
    try:
        out = kind(val)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and isinstance(val, float) and out != val):
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"--{key} must be {what}, got {val!r}")
    return out


def _resolve_params(ns, cfg: dict) -> tuple[ModelParams, dict | None]:
    """Return (params, preset echo) from flags plus config."""
    preset = _merged(ns, cfg, "preset")
    direct = {
        "lambda": _merged(ns, cfg, "lambda", "lam"),
        "gamma": _merged(ns, cfg, "gamma"),
        "theta1": _merged(ns, cfg, "theta1"),
        "theta2": _merged(ns, cfg, "theta2"),
        "delta": _merged(ns, cfg, "delta"),
    }
    if preset is not None:
        info = PRESETS.get(preset) if isinstance(preset, str) else None
        if info is None:
            raise UsageError(f"--preset {preset!r} unknown; known: {', '.join(sorted(PRESETS))}")
        clash = [k for k, v in direct.items() if v is not None and k not in info.aux]
        if clash:
            raise UsageError(
                f"--preset {preset} conflicts with explicit --{', --'.join(clash)}"
            )
        aux = {}
        for name in info.aux:
            val = _merged(ns, cfg, name)
            if val is None:
                raise UsageError(f"--preset {preset} needs --{name}")
            aux[name] = val
        return preset_params(preset, **aux), {"preset": preset, **aux}
    missing = [k for k, v in direct.items() if v is None]
    if len(missing) == 5:
        raise UsageError("provide either --preset or the five explicit parameters")
    if missing:
        raise UsageError(f"missing --{', --'.join(missing)}")
    return ModelParams.from_json_obj(direct), None


def _population(ns, cfg: dict) -> int:
    n = _merged(ns, cfg, "n")
    if n is None:
        raise UsageError("--n is required")
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    return n


def _sim_config(ns, cfg: dict) -> tuple[int, int, int, int, str]:
    n = _population(ns, cfg)
    reps = _merged(ns, cfg, "reps")
    reps = reps if reps is not None else DEFAULT_REPS
    if reps < 0:
        raise UsageError(f"--reps must be >= 0, got {reps}")
    seed = _merged(ns, cfg, "seed")
    seed = seed if seed is not None else DEFAULT_SEED
    if seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {seed}")
    workers = _merged(ns, cfg, "workers")
    if workers is None:
        try:
            workers = int(os.environ.get(WORKERS_ENV, "1"))
        except ValueError:
            raise UsageError(f"${WORKERS_ENV} must be an integer")
    if workers < 1:
        raise UsageError(f"--workers must be >= 1, got {workers}")
    mode = _merged(ns, cfg, "mode") or "jump-chain"
    if mode not in sim_mod.MODES:
        raise UsageError(f"--mode must be one of {sim_mod.MODES}, got {mode!r}")
    return n, reps, seed, workers, mode


def _emit(ns, text: str) -> None:
    if getattr(ns, "output", None):
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(echo, params) -> dict:
    obj = {}
    if echo:
        obj["preset"] = echo
    obj["params"] = params.to_json_obj()
    return obj


def cmd_limit(ns) -> int:
    cfg = _load_config(ns)
    params, echo = _resolve_params(ns, cfg)
    lim = limits_mod.solve_x_infinity(params)
    obj = _header(echo, params)
    obj.update(lim.to_json_obj())
    _emit(ns, jsonio.dumps(obj))
    return 0


def cmd_clt(ns) -> int:
    cfg = _load_config(ns)
    params, echo = _resolve_params(ns, cfg)
    lim = limits_mod.solve_x_infinity(params)
    consts = clt_mod.clt_constants(params, lim)
    sigma = clt_mod.sigma_matrix(consts, params, lim)
    obj = _header(echo, params)
    obj["x_inf"] = lim.x_inf
    obj["u_inf"] = lim.u_inf
    obj["kappa"] = consts.kappa
    obj["A"] = consts.a
    obj["B"] = consts.b
    obj["C"] = consts.c
    obj["D"] = consts.d
    obj["sigma"] = sigma.to_json_obj()
    obj["t_inf"] = clt_mod.t_infinity(params, lim)
    if params.delta == 1.0:
        obj["v_inf"] = sigma.s11
    if ns.cross_check:
        closed = clt_mod.lambda_matrix(params, lim, consts)
        ode = clt_mod.numerical_lambda_via_ode(params, lim)
        obj["cross_check"] = {"max_abs_deviation": float(np.abs(closed - ode).max())}
    _emit(ns, jsonio.dumps(obj))
    return 0


def cmd_fluid(ns) -> int:
    cfg = _load_config(ns)
    params, echo = _resolve_params(ns, cfg)
    lim = limits_mod.solve_x_infinity(params)
    t_inf = clt_mod.t_infinity(params, lim)
    t_max = ns.t_max if ns.t_max is not None else t_inf
    if ns.points < 2:
        raise UsageError("--points must be >= 2")
    grid = np.linspace(0.0, t_max, ns.points)
    points = clt_mod.fluid_trajectory(grid, params)
    if ns.format == "csv":
        lines = ["t,x,u,y"]
        lines += [f"{pt.t:.17g},{pt.x:.17g},{pt.u:.17g},{pt.y:.17g}" for pt in points]
        _emit(ns, "\n".join(lines) + "\n")
    else:
        obj = _header(echo, params)
        obj["t_inf"] = t_inf
        obj["points"] = [{"t": pt.t, "x": pt.x, "u": pt.u, "y": pt.y} for pt in points]
        _emit(ns, jsonio.dumps(obj))
    return 0


def cmd_simulate(ns) -> int:
    cfg = _load_config(ns)
    params, echo = _resolve_params(ns, cfg)
    n, reps, seed, workers, mode = _sim_config(ns, cfg)
    stats = sim_mod.McStats.empty(n, seed)
    tau_sum = 0.0

    def folded():
        nonlocal tau_sum
        for b in sim_mod.iter_final_states(n, reps, params, seed, workers, mode):
            stats.add_block(b)
            if b.absorption_time is not None:
                tau_sum += float(b.absorption_time.sum())
            yield b

    if ns.dump:
        with open(ns.dump, "w", newline="") as fh:
            sim_mod.write_replications_csv(fh, folded())
    else:
        for _ in folded():
            pass
    obj = _header(echo, params)
    obj["mode"] = mode
    obj["stats"] = stats.to_json_obj()
    if reps >= 1:
        obj["mean_x"] = stats.mean_x()
        obj["mean_u"] = stats.mean_u()
    if reps >= 2:
        obj["sigma_emp"] = stats.cov_sqrt_n().to_json_obj()
    if mode == "exact-time" and reps >= 1:
        obj["mean_absorption_time"] = tau_sum / reps
    _emit(ns, jsonio.dumps(obj))
    return 0


def cmd_verify(ns) -> int:
    cfg = _load_config(ns)
    params, echo = _resolve_params(ns, cfg)
    n, reps, seed, workers, mode = _sim_config(ns, cfg)
    lim = limits_mod.solve_x_infinity(params)
    consts = clt_mod.clt_constants(params, lim)
    sigma = clt_mod.sigma_matrix(consts, params, lim)
    stats = sim_mod.monte_carlo(n, reps, params, seed, workers, mode)
    report = sim_mod.verify(stats, lim, sigma)
    obj = _header(echo, params)
    obj["master_seed"] = seed
    obj["mode"] = mode
    obj.update(report.to_json_obj())
    _emit(ns, jsonio.dumps(obj))
    return 0 if report.passed else 1


def cmd_oracle(ns) -> int:
    cfg = _load_config(ns)
    params, echo = _resolve_params(ns, cfg)
    dist = sim_mod.exact_final_distribution(_population(ns, cfg), params)
    entries = sorted(dist.support())
    if ns.format == "csv":
        lines = ["x,u,p"]
        lines += [f"{x},{u},{p:.17g}" for (x, u), p in entries]
        _emit(ns, "\n".join(lines) + "\n")
    else:
        obj = _header(echo, params)
        obj["n"] = dist.n
        obj["total_mass"] = dist.total_mass()
        obj["mean_x"] = dist.mean_x()
        obj["mean_u"] = dist.mean_u()
        obj["support"] = [{"x": x, "u": u, "p": p} for (x, u), p in entries]
        _emit(ns, jsonio.dumps(obj))
    return 0


def cmd_presets(ns) -> int:
    entries = []
    for name in sorted(PRESETS):
        info = PRESETS[name]
        entry = {"name": name, "aux": list(info.aux), "mapping": info.mapping}
        if not info.aux:
            entry["params"] = preset_params(name).to_json_obj()
        entries.append(entry)
    _emit(ns, jsonio.dumps({"presets": entries}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rumour",
        description="General stochastic rumour model: limits, CLT covariance, "
        "Monte Carlo simulation and verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("limit", help="limiting ignorant/uninterested fractions")
    _add_param_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("clt", help="CLT constants, Sigma and t_inf")
    _add_param_flags(p)
    _add_output_flag(p)
    p.add_argument("--cross-check", action="store_true",
                   help="also integrate the covariance ODE and report the max deviation")
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("fluid", help="deterministic fluid trajectory")
    _add_param_flags(p)
    _add_output_flag(p)
    p.add_argument("--points", type=int, default=101, help="grid points (default 101)")
    p.add_argument("--t-max", type=float, default=None,
                   help="grid upper end (default: t_inf)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_fluid)

    p = sub.add_parser("simulate", help="Monte Carlo simulation summary")
    _add_param_flags(p)
    _add_output_flag(p)
    _add_sim_flags(p)
    p.add_argument("--dump", help="also stream per-replication finals to this CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="verify theory against Monte Carlo")
    _add_param_flags(p)
    _add_output_flag(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact small-N final-state distribution")
    _add_param_flags(p)
    _add_output_flag(p)
    p.add_argument("--n", type=int, help="population parameter N")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("presets", help="list presets and their mappings")
    _add_output_flag(p)
    p.set_defaults(func=cmd_presets)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (UsageError, RumourError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
