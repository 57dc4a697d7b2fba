"""Four-class stochastic rumour model: parameters, rate weights, presets.

A closed, homogeneously mixing population of N + 1 individuals splits into
ignorants (X), uninterested (U), spreaders (Y) and stiflers (Z).  Starting
from (X, U, Y, Z) = (N, 0, 1, 0), the counts evolve as a continuous-time
Markov chain whose transitions on (X, U, Y) are

    (-1,  0, +1)   lambda * delta * X * Y
    (-1, +1,  0)   lambda * (1 - delta) * X * Y
    ( 0,  0, -2)   lambda * theta1 * Y * (Y - 1) / 2
    ( 0,  0, -1)   lambda * theta2 * Y * (Y - 1)
                   + lambda * gamma * Y * (N + 1 - X - Y)

An informed ignorant starts spreading with probability delta, otherwise it
stifles immediately (becomes uninterested).  A meeting of two spreaders
turns both into stiflers (theta1 channel) or just one (theta2 channel); a
spreader meeting anyone else already informed stifles at rate gamma.  Z is
implicit throughout: Z + U = N + 1 - X - Y.  The chain absorbs at Y = 0.

The derived combination theta = theta1 + theta2 - gamma controls the
shape of the asymptotics and must lie in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rumour.errors import ConstraintViolation

# Derived theta within this distance of 0 or 1 snaps to the boundary;
# boundary models (theta = 0 or 1) are legitimate and float noise in
# preset mappings must not push them out of range.
THETA_SNAP = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """The five admissible rate/probability parameters.

    lam     overall contact rate (> 0); only sets the time scale
    gamma   spreader-stifler rate multiplier (> 0)
    theta1  both-stifle spreader-meeting multiplier (>= 0)
    theta2  one-stifles spreader-meeting multiplier (>= 0)
    delta   probability an informed ignorant starts spreading (0 < delta <= 1)

    theta = theta1 + theta2 - gamma is derived, never stored, and must lie
    in [0, 1] (up to a THETA_SNAP float-rounding allowance at the ends).
    """

    lam: float
    gamma: float
    theta1: float
    theta2: float
    delta: float

    def __post_init__(self):
        for name in ("lam", "gamma", "theta1", "theta2", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ConstraintViolation(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.lam > 0:
            raise ConstraintViolation(f"lambda > 0 violated (lambda = {self.lam!r})")
        if not self.gamma > 0:
            raise ConstraintViolation(f"gamma > 0 violated (gamma = {self.gamma!r})")
        if not self.theta1 >= 0:
            raise ConstraintViolation(f"theta1 >= 0 violated (theta1 = {self.theta1!r})")
        if not self.theta2 >= 0:
            raise ConstraintViolation(f"theta2 >= 0 violated (theta2 = {self.theta2!r})")
        if not 0 < self.delta <= 1:
            raise ConstraintViolation(f"0 < delta <= 1 violated (delta = {self.delta!r})")
        raw = self.theta1 + self.theta2 - self.gamma
        if raw < -THETA_SNAP or raw > 1 + THETA_SNAP:
            raise ConstraintViolation(
                f"0 <= theta <= 1 violated (theta = theta1 + theta2 - gamma = {raw!r})"
            )

    @property
    def theta(self) -> float:
        raw = self.theta1 + self.theta2 - self.gamma
        return min(1.0, max(0.0, raw))

    def to_json_obj(self) -> dict:
        """Flat JSON object; key order is part of the output contract."""
        return {
            "lambda": self.lam,
            "gamma": self.gamma,
            "theta1": self.theta1,
            "theta2": self.theta2,
            "delta": self.delta,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModelParams":
        """Inverse of to_json_obj: the flat five-key form."""
        try:
            return cls(
                lam=float(obj["lambda"]),
                gamma=float(obj["gamma"]),
                theta1=float(obj["theta1"]),
                theta2=float(obj["theta2"]),
                delta=float(obj["delta"]),
            )
        except KeyError as e:
            raise ConstraintViolation(f"missing parameter key {e.args[0]!r}") from None


def rate_weights(x, y, n: int, p: ModelParams):
    """The four lambda-free transition weights (w0, w1, w2, w3) at a state;
    each rate is p.lam times its weight:

        w0 = delta * x * y
        w1 = (1 - delta) * x * y
        w2 = theta1 * y * (y - 1) / 2
        w3 = theta2 * y * (y - 1) + gamma * y * (n + 1 - x - y)

    Works element-wise on numpy arrays as well as on scalars; the counts
    are taken as float64, so the weights are float64 whatever the counts'
    type.  All four are zero iff y = 0 (the absorbing states).  The exact
    oracle calls it on arrays of states and the simulation kernel, through
    rate_weights_fn, on float64 ones; its operation order, left to right
    as written above, fixes both outputs to the bit.
    """
    return rate_weights_fn(n, p)(np.asarray(x, float), np.asarray(y, float))


def rate_weights_fn(n: int, p: ModelParams):
    """rate_weights at population n under p, as weights(x, y, out=None)
    with the coefficients converted to float64 once, for a caller that
    evaluates it at many states.  out, if given, is six float64 arrays
    shaped like x: the weights are written into the first four, and the
    last two are overwritten as scratch.

    A coefficient of exactly 1 (delta in w0, theta1 in w2, theta2 and
    gamma in w3) is not multiplied, and a theta2 of exactly 0 drops the
    theta2 * y * (y - 1) term of w3.  On every state with y >= 1 and
    nonnegative integer counts both are exact, 1 * v = v and +0 + r = r
    for r >= 0, so the weights keep the bits of the formula as written.
    The folds are decided here, once, from the Python floats: comparing
    the 0-d coefficients on every call costs more than it saves.  Give it
    float64 counts, as rate_weights does: on integer counts a skipped
    coefficient leaves integer products, equal in value."""
    d_one, t1_one, t2_one = p.delta == 1.0, p.theta1 == 1.0, p.theta2 == 1.0
    g_one, t2_zero = p.gamma == 1.0, p.theta2 == 0.0
    # 0-d arrays: numpy converts a Python float anew on every call
    d, d1, t1, t2, g, top, one, two = (np.array(v, float) for v in (
        p.delta, 1.0 - p.delta, p.theta1, p.theta2, p.gamma, n + 1, 1.0, 2.0))
    mul, sub = np.multiply, np.subtract

    def weights(x, y, out=(None,) * 6):
        o0, o1, o2, o3, s, r = out
        ym1 = sub(y, one, out=s)
        w0 = mul(x if d_one else mul(d, x, out=o0), y, out=o0)
        w1 = mul(mul(d1, x, out=o1), y, out=o1)
        w2 = np.divide(mul(y if t1_one else mul(t1, y, out=o2), ym1, out=o2), two, out=o2)
        if not t2_zero:
            w3 = mul(y if t2_one else mul(t2, y, out=o3), ym1, out=o3)
        # y - 1 is read for the last time: its buffer takes n + 1 - x - y
        rest = sub(sub(top, x, out=s), y, out=s)
        gy = y if g_one else mul(g, y, out=r)
        if t2_zero:
            return w0, w1, w2, mul(gy, rest, out=o3)
        return w0, w1, w2, np.add(w3, mul(gy, rest, out=r), out=o3)

    return weights


# --------------------------------------------------------------------------
# Presets: named models mapped onto the five-parameter family.
# --------------------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise ConstraintViolation(msg)


def _map_dk() -> ModelParams:
    return ModelParams(lam=1.0, gamma=1.0, theta1=1.0, theta2=0.0, delta=1.0)


def _map_mt() -> ModelParams:
    return ModelParams(lam=1.0, gamma=1.0, theta1=0.0, theta2=1.0, delta=1.0)


def _map_hayes() -> ModelParams:
    return ModelParams(lam=1.0, gamma=1.0, theta1=2.0, theta2=0.0, delta=1.0)


def _map_rho(rho: float) -> ModelParams:
    _require(0 <= rho <= 1, f"rho in [0, 1] violated (rho = {rho!r})")
    return ModelParams(lam=1.0, gamma=1.0, theta1=rho, theta2=1.0 - rho, delta=1.0)


def _map_apq_dk(alpha: float, p: float, q: float) -> ModelParams:
    _require(0 < alpha <= 1, f"alpha in (0, 1] violated (alpha = {alpha!r})")
    _require(0 < p <= 1, f"p in (0, 1] violated (p = {p!r})")
    _require(0 < q <= 1, f"q in (0, 1] violated (q = {q!r})")
    return ModelParams(
        lam=p,
        gamma=alpha,
        theta1=alpha * alpha * (2.0 - p),
        theta2=alpha * (1.0 - alpha) * (2.0 - p),
        delta=q,
    )


def _map_apq_mt(alpha: float, p: float, q: float) -> ModelParams:
    _require(0 < alpha <= 1, f"alpha in (0, 1] violated (alpha = {alpha!r})")
    _require(0 < p <= 1, f"p in (0, 1] violated (p = {p!r})")
    _require(0 < q <= 1, f"q in (0, 1] violated (q = {q!r})")
    return ModelParams(lam=p, gamma=alpha, theta1=0.0, theta2=alpha, delta=q)


def _map_pearce(p: float, q1: float, q2: float, r: float) -> ModelParams:
    _require(0 < p <= 1, f"p in (0, 1] violated (p = {p!r})")
    _require(q1 >= 0, f"q1 >= 0 violated (q1 = {q1!r})")
    _require(q2 >= 0, f"q2 >= 0 violated (q2 = {q2!r})")
    _require(q1 + q2 <= 1, f"q1 + q2 <= 1 violated (q1 + q2 = {q1 + q2!r})")
    _require(0 < r <= 1, f"r in (0, 1] violated (r = {r!r})")
    return ModelParams(lam=p, gamma=r / p, theta1=q2 / p, theta2=q1 / (2.0 * p), delta=1.0)


def _map_kawachi(alpha: float, beta: float, gamma: float, theta: float) -> ModelParams:
    _require(0 < alpha <= 1, f"alpha in (0, 1] violated (alpha = {alpha!r})")
    _require(0 <= beta <= 1, f"beta in [0, 1] violated (beta = {beta!r})")
    _require(0 < gamma <= 1, f"gamma in (0, 1] violated (gamma = {gamma!r})")
    _require(0 < theta <= 1, f"theta in (0, 1] violated (theta = {theta!r})")
    return ModelParams(
        lam=alpha, gamma=gamma / alpha, theta1=2.0 * beta / alpha, theta2=0.0, delta=theta
    )


@dataclass(frozen=True)
class PresetInfo:
    aux: tuple[str, ...]
    mapping: str
    mapper: Callable[..., ModelParams]


PRESETS: dict[str, PresetInfo] = {
    "dk": PresetInfo((), "lambda=1, gamma=1, theta1=1, theta2=0, delta=1", _map_dk),
    "mt": PresetInfo((), "lambda=1, gamma=1, theta1=0, theta2=1, delta=1", _map_mt),
    "hayes": PresetInfo((), "lambda=1, gamma=1, theta1=2, theta2=0, delta=1", _map_hayes),
    "rho": PresetInfo(("rho",), "lambda=gamma=delta=1, theta1=rho, theta2=1-rho", _map_rho),
    "apq_dk": PresetInfo(
        ("alpha", "p", "q"),
        "lambda=p, gamma=alpha, theta1=alpha^2(2-p), theta2=alpha(1-alpha)(2-p), delta=q",
        _map_apq_dk,
    ),
    "apq_mt": PresetInfo(
        ("alpha", "p", "q"),
        "lambda=p, gamma=alpha, theta1=0, theta2=alpha, delta=q",
        _map_apq_mt,
    ),
    "pearce": PresetInfo(
        ("p", "q1", "q2", "r"),
        "lambda=p, gamma=r/p, theta1=q2/p, theta2=q1/(2p), delta=1",
        _map_pearce,
    ),
    "kawachi": PresetInfo(
        ("alpha", "beta", "gamma", "theta"),
        "lambda=alpha, gamma=gamma/alpha, theta1=2*beta/alpha, theta2=0, delta=theta",
        _map_kawachi,
    ),
}


def preset_params(name: str, **aux) -> ModelParams:
    """Map a named preset (plus its auxiliary parameters) to ModelParams.

    Raises ConstraintViolation for unknown presets, out-of-range auxiliary
    parameters, or mapped parameters that violate the admissibility
    constraints (possible for extreme pearce/kawachi inputs).
    """
    info = PRESETS.get(name)
    if info is None:
        raise ConstraintViolation(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}"
        )
    missing = [a for a in info.aux if a not in aux]
    if missing:
        raise ConstraintViolation(f"preset {name!r} needs {', '.join(missing)}")
    extra = [k for k in aux if k not in info.aux]
    if extra:
        raise ConstraintViolation(f"preset {name!r} does not take {', '.join(extra)}")
    return info.mapper(**{k: float(v) for k, v in aux.items()})
