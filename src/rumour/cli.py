"""Command-line front end.

Subcommands: limit, clt, fluid, simulate, verify, oracle, presets.
Model parameters come either from the five explicit flags or from
--preset plus its auxiliary flags (exactly one of the two), optionally
seeded from a JSON --config file (explicit flags override the file).
A flag or --config key the command does not read is a usage error: --q
with --preset dk, --alpha beside the five explicit parameters, a
misspelt 'rpes', or 'n' given to limit.

All randomness flows from --seed (default 1729, never time-based), and
output is deterministic: fixed key order, floats at 17 significant
digits.  Monte Carlo chunks run in order on one thread; --workers is
accepted and ignored.

Each command returns its exit code and its JSON object or CSV text; main
renders an object behind a header of the --preset echo and the parameters.

Exit codes: 0 success / verification pass, 1 verification failure,
2 usage or parameter-validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
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

_DIRECT_HELP = {
    "lambda": "contact rate > 0",
    "gamma": "spreader-stifler multiplier > 0 (kawachi: its gamma)",
    "theta1": "both-stifle multiplier >= 0",
    "theta2": "one-stifles multiplier >= 0",
    "delta": "spreader-conversion probability in (0, 1]",
}
# Auxiliary preset flags in first-use order; kawachi's gamma is --gamma.
_AUX = tuple(dict.fromkeys(a for info in PRESETS.values() for a in info.aux
                           if a not in _DIRECT_HELP))

# Keys that hold integers; preset and mode hold strings, every other key
# a real number.  --workers is accepted and ignored, so it is not a key.
_INT_KEYS = ("n", "reps", "seed")
_STR_KEYS = ("preset", "mode")
_KEYS = ("preset", *_DIRECT_HELP, *_AUX, *_INT_KEYS, "mode")


class UsageError(Exception):
    pass


def _open_write(flag: str, path: str, mode: str):
    """Open a file the CLI writes; a path that cannot be opened is a usage
    error naming the flag."""
    try:
        return open(path, mode, newline="")
    except OSError as e:
        raise UsageError(f"{flag} {path}: {e.strerror or e}")


@contextlib.contextmanager
def _output(path: str | None):
    """Yield the writer of the command's text: stdout, or --output opened
    before the command runs and without truncating; if the command fails,
    an existing file keeps its bytes and a file created here is removed.
    Only a regular file is truncated: a device, pipe or FIFO cannot be."""
    if not path:
        yield sys.stdout.write
        return
    created = not os.path.exists(path)
    with _open_write("--output", path, "a") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)

        def write(text: str) -> None:
            if regular:
                fh.truncate(0)
            fh.write(text)

        try:
            yield write
        except BaseException:
            if created:
                os.remove(path)
            raise


def _load_config(path: str | None) -> dict:
    """The --config object, each value converted to its key's type."""
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"--config {path}: {e}")
    if not isinstance(cfg, dict):
        raise UsageError(f"--config {path}: expected a JSON object")
    return {k: _typed(k, v) for k, v in cfg.items()}


def _typed(key: str, val):
    """A --config value converted to its key's type.  A value of the wrong
    type ("abc" or a JSON boolean for a number, 2.7 for an integer) is a
    usage error naming the key; a key the CLI does not know stays as is."""
    if val is None or key in _STR_KEYS or key not in _KEYS:
        return val
    kind = int if key in _INT_KEYS else float
    try:
        out = kind(val)
    except (TypeError, ValueError, OverflowError):
        out = None
    if (out is None or isinstance(val, bool)
            or (kind is int and isinstance(val, float) and out != val)):
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"--{key} must be {what}, got {val!r}")
    return out


# The readers below take each value they read out of the record of given
# values (flags over --config), so what is left was given and not read.


def _resolve_params(given: dict) -> tuple[ModelParams, dict | None]:
    """Return (params, preset echo): the preset and its auxiliary values,
    or else the five explicit parameters."""
    preset = given.pop("preset", None)
    if preset is not None:
        info = PRESETS.get(preset) if isinstance(preset, str) else None
        if info is None:
            raise UsageError(f"--preset {preset!r} unknown; known: {', '.join(sorted(PRESETS))}")
        aux = {name: given.pop(name, None) for name in info.aux}
        missing = [k for k, v in aux.items() if v is None]
        if missing:
            raise UsageError(f"--preset {preset} needs --{missing[0]}")
        return preset_params(preset, **aux), {"preset": preset, **aux}
    direct = {k: given.pop(k, None) for k in _DIRECT_HELP}
    missing = [k for k, v in direct.items() if v is None]
    if len(missing) == 5:
        raise UsageError("provide either --preset or the five explicit parameters")
    if missing:
        raise UsageError(f"missing --{', --'.join(missing)}")
    return ModelParams.from_json_obj(direct), None


def _population(given: dict) -> int:
    n = given.pop("n", None)
    if n is None:
        raise UsageError("--n is required")
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    return n


def _sim_config(given: dict, min_reps: int) -> tuple[int, int, int, str]:
    n = _population(given)
    reps = given.pop("reps", None)
    reps = reps if reps is not None else DEFAULT_REPS
    if reps < min_reps:
        raise UsageError(f"--reps must be >= {min_reps}, got {reps}")
    seed = given.pop("seed", None)
    seed = seed if seed is not None else DEFAULT_SEED
    if seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {seed}")
    mode = given.pop("mode", None) or "jump-chain"
    if mode not in sim_mod.MODES:
        raise UsageError(f"--mode must be one of {sim_mod.MODES}, got {mode!r}")
    return n, reps, seed, mode


def _csv(rows: list[dict]) -> str:
    """A header row of the first row's keys, then each row's values at 17
    significant digits (an int prints as itself)."""
    lines = [",".join(rows[0])] + [",".join(f"{v:.17g}" for v in r.values()) for r in rows]
    return "\n".join(lines) + "\n"


# Each command takes (ns, settings, params) and returns (exit code, its
# JSON object or CSV text); main renders the object behind the header and
# writes the text to stdout or --output.  settings is what the command's
# settings reader returned (None if it has none).


def cmd_limit(ns, settings, params):
    return 0, limits_mod.solve_x_infinity(params).to_json_obj()


def cmd_clt(ns, settings, params):
    lim = limits_mod.solve_x_infinity(params)
    consts = clt_mod.clt_constants(params, lim)
    sigma = clt_mod.sigma_matrix(consts, params, lim)
    obj = {"x_inf": lim.x_inf, "u_inf": lim.u_inf, "kappa": consts.kappa,
           "A": consts.a, "B": consts.b, "C": consts.c, "D": consts.d,
           "sigma": sigma.to_json_obj(), "t_inf": clt_mod.t_infinity(params, lim)}
    if params.delta == 1.0:
        obj["v_inf"] = sigma.s11
    if ns.cross_check:
        closed = clt_mod.lambda_matrix(params, lim, consts)
        ode = clt_mod.numerical_lambda_via_ode(params, lim)
        obj["cross_check"] = {"max_abs_deviation": float(np.abs(closed - ode).max())}
    return 0, obj


def cmd_fluid(ns, settings, params):
    if ns.points < 2:
        raise UsageError("--points must be >= 2")
    t_inf = clt_mod.t_infinity(params, limits_mod.solve_x_infinity(params))
    # the fluid limit ends where y reaches 0, at t_inf; NaN fails both tests
    t_max = t_inf if ns.t_max is None else ns.t_max
    if not 0.0 <= t_max <= t_inf:
        raise UsageError(f"--t-max must be in [0, t_inf = {t_inf!r}], got {t_max}")
    rows = clt_mod.fluid_trajectory(np.linspace(0.0, t_max, ns.points), params)
    return 0, _csv(rows) if ns.format == "csv" else {"t_inf": t_inf, "points": rows}


def cmd_simulate(ns, settings, params):
    n, reps, seed, mode = settings
    # --output is open by now; the summary would overwrite a dump written
    # to the same regular file (a device such as /dev/null takes both)
    if ns.dump and ns.output and os.path.exists(ns.dump):
        out = os.stat(ns.output)
        if stat.S_ISREG(out.st_mode) and os.path.samestat(out, os.stat(ns.dump)):
            raise UsageError(f"--dump {ns.dump}: the same file as --output {ns.output}")
    stats = sim_mod.McStats.empty(n, seed)
    tau_sum = 0.0

    def folded():
        nonlocal tau_sum
        for b in sim_mod.iter_final_states(n, reps, params, seed, mode=mode):
            stats.add_block(b)
            if b.absorption_time is not None:
                tau_sum += float(b.absorption_time.sum())
            yield b

    if ns.dump:
        with _open_write("--dump", ns.dump, "w") as fh:
            sim_mod.write_replications_csv(fh, folded())
    else:
        for _ in folded():
            pass
    obj = {"mode": mode, "stats": stats.to_json_obj()}
    if reps >= 1:
        obj["mean_x"] = stats.mean_x()
        obj["mean_u"] = stats.mean_u()
    if reps >= 2:
        obj["sigma_emp"] = stats.cov_sqrt_n().to_json_obj()
    if mode == "exact-time" and reps >= 1:
        obj["mean_absorption_time"] = tau_sum / reps
    return 0, obj


def cmd_verify(ns, settings, params):
    n, reps, seed, mode = settings
    lim = limits_mod.solve_x_infinity(params)
    consts = clt_mod.clt_constants(params, lim)
    sigma = clt_mod.sigma_matrix(consts, params, lim)
    stats = sim_mod.monte_carlo(n, reps, params, seed)
    report = sim_mod.verify(stats, lim, sigma)
    return (0 if report.passed else 1), {"master_seed": seed, "mode": mode,
                                         **report.to_json_obj()}


def cmd_oracle(ns, n, params):
    probs = sim_mod.exact_final_distribution(n, params)
    xs, us = np.nonzero(probs)  # (x, u) in row-major order
    rows = [{"x": x, "u": u, "p": p}
            for x, u, p in zip(xs.tolist(), us.tolist(), probs[xs, us].tolist())]
    return 0, _csv(rows) if ns.format == "csv" else {
        "n": n, "total_mass": float(probs.sum()),
        "mean_x": float(probs.sum(axis=1) @ np.arange(n + 1)) / n,
        "mean_u": float(probs.sum(axis=0) @ np.arange(n + 2)) / n, "support": rows}


def cmd_presets(ns, settings, params):
    entries = []
    for name, info in sorted(PRESETS.items()):
        entry = {"name": name, "aux": list(info.aux), "mapping": info.mapping}
        if not info.aux:
            entry["params"] = preset_params(name).to_json_obj()
        entries.append(entry)
    return 0, {"presets": entries}


_SIM_FLAGS = (
    ("--n", dict(type=int, help="population parameter N (initial ignorants)")),
    ("--reps", dict(type=int, help=f"replications (default {DEFAULT_REPS})")),
    ("--seed", dict(type=int, help=f"master seed (default {DEFAULT_SEED})")),
    ("--workers", dict(type=int, help="accepted and ignored; chunks run on one thread")),
    ("--mode", dict(choices=sim_mod.MODES, help="simulation mode (default jump-chain)")),
)
_FORMAT_FLAG = ("--format", dict(choices=("json", "csv"), default="json"))

# name: (help, command, takes model parameters, settings reader
# (given values) -> settings or None, its own flags)
COMMANDS = {
    "limit": ("limiting ignorant/uninterested fractions", cmd_limit, True, None, ()),
    "clt": ("CLT constants, Sigma and t_inf", cmd_clt, True, None, (
        ("--cross-check", dict(action="store_true", help="also integrate the covariance ODE "
                               "and report the max deviation")),)),
    "fluid": ("deterministic fluid trajectory", cmd_fluid, True, None, (
        ("--points", dict(type=int, default=101, help="grid points (default 101)")),
        ("--t-max", dict(type=float, help="grid upper end (default and largest: t_inf)")),
        _FORMAT_FLAG)),
    "simulate": ("Monte Carlo simulation summary", cmd_simulate, True,
                 lambda given: _sim_config(given, 0), _SIM_FLAGS + (
        ("--dump", dict(help="also stream per-replication finals to this CSV path")),)),
    "verify": ("verify theory against Monte Carlo", cmd_verify, True,
               lambda given: _sim_config(given, 2), _SIM_FLAGS),
    "oracle": ("exact small-N final-state distribution", cmd_oracle, True, _population, (
        ("--n", dict(type=int, help="population parameter N")), _FORMAT_FLAG)),
    "presets": ("list presets and their mappings", cmd_presets, False, None, ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: it holds no
    state between parses, and main looks each command's handler up in
    COMMANDS on every call."""
    ap = argparse.ArgumentParser(
        prog="rumour",
        description="General stochastic rumour model: limits, CLT covariance, "
        "Monte Carlo simulation and verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, _, takes_params, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if takes_params:
            grp = p.add_argument_group("model parameters (explicit or preset)")
            grp.add_argument("--preset", choices=sorted(PRESETS), help="named model preset")
            for key, text in _DIRECT_HELP.items():
                grp.add_argument(f"--{key}", type=float, help=text)
            for aux in _AUX:
                grp.add_argument(f"--{aux}", type=float, help=f"preset parameter {aux}")
            p.add_argument("--config", help="JSON file with the same keys; flags override")
        p.add_argument("--output", help="write to this path instead of stdout")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    _, command, takes_params, read_settings, _ = COMMANDS[ns.command]
    try:
        cfg = _load_config(getattr(ns, "config", None))
        flags = [k for k in _KEYS if getattr(ns, k, None) is not None]
        given = cfg | {k: getattr(ns, k) for k in flags}
        params, header = None, {}
        if takes_params:
            params, echo = _resolve_params(given)
            header = ({"preset": echo} if echo else {}) | {"params": params.to_json_obj()}
        settings = read_settings(given) if read_settings else None
        # the accepted values are exactly those the command has read
        unread = [f"--{k}" for k in flags if k in given]
        unread_cfg = sorted(k for k in cfg if k in given)
        if unread_cfg:
            unread.append(f"{', '.join(map(repr, unread_cfg))} from --config {ns.config}")
        if unread:
            raise UsageError(f"{ns.command} does not read {', '.join(unread)}")
        with _output(ns.output) as write:
            code, out = command(ns, settings, params)
            write(out if isinstance(out, str) else jsonio.dumps(header | out))
        return code
    except (UsageError, RumourError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
