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

theta = theta1 + theta2 - gamma controls the shape of the asymptotics
and must lie in [0, 1]; theta1 + theta2 > 0 makes the chain absorb.
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


def _check(ok: bool, rule: str, name: str, value: float) -> None:
    """Raise ConstraintViolation("<rule> violated (<name> = <value>)") unless ok."""
    if not ok:
        raise ConstraintViolation(f"{rule} violated ({name} = {value!r})")


@dataclass(frozen=True)
class ModelParams:
    """The five admissible rate/probability parameters.

    lam     overall contact rate (> 0); only sets the time scale: only
            t_infinity, fluid_trajectory and iter_final_states compute with it
    gamma   spreader-stifler rate multiplier (> 0)
    theta1  both-stifle spreader-meeting multiplier (>= 0)
    theta2  one-stifles spreader-meeting multiplier (>= 0)
    delta   probability an informed ignorant starts spreading (0 < delta <= 1)

    theta = theta1 + theta2 - gamma is derived, never stored, and must lie
    in [0, 1] (up to a THETA_SNAP float-rounding allowance at the ends).
    theta1 + theta2 > 0 too (that allowance admits 0 at gamma <= THETA_SNAP),
    so that some move leaves every state with Y >= 1 and the chain absorbs.
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
        _check(self.lam > 0, "lambda > 0", "lambda", self.lam)
        _check(self.gamma > 0, "gamma > 0", "gamma", self.gamma)
        _check(self.theta1 >= 0, "theta1 >= 0", "theta1", self.theta1)
        _check(self.theta2 >= 0, "theta2 >= 0", "theta2", self.theta2)
        _check(0 < self.delta <= 1, "0 < delta <= 1", "delta", self.delta)
        raw = self.theta1 + self.theta2 - self.gamma
        _check(-THETA_SNAP <= raw <= 1 + THETA_SNAP, "0 <= theta <= 1",
               "theta = theta1 + theta2 - gamma", raw)
        _check(self.theta1 + self.theta2 > 0, "theta1 + theta2 > 0", "theta1 + theta2",
               self.theta1 + self.theta2)

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
            return cls(lam=obj["lambda"], gamma=obj["gamma"], theta1=obj["theta1"],
                       theta2=obj["theta2"], delta=obj["delta"])
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
    """rate_weights at population n under p, as weights(x, y) with the
    coefficients converted to float64 once, for a caller that evaluates it
    at many states.

    A coefficient of exactly 1 (delta in w0, theta1 in w2, theta2 and
    gamma in w3) is not multiplied, and a theta2 of exactly 0 drops the
    theta2 * y * (y - 1) term of w3.  On every state with y >= 1 and
    nonnegative integer counts both are exact, 1 * v = v and +0 + r = r
    for r >= 0, so the weights keep the bits of the formula as written.
    The folds are decided here, once, from the Python floats: comparing
    the 0-d coefficients on every call costs more than it saves.  Give it
    float64 counts, as rate_weights does: on integer counts a skipped
    coefficient leaves integer products, equal in value.

    At delta = 1, w1 is one fill with +0.0, the value (0 * x) * y takes
    on those states, in one call where the formula takes two."""
    d_one, t1_one, t2_one = p.delta == 1.0, p.theta1 == 1.0, p.theta2 == 1.0
    g_one, t2_zero = p.gamma == 1.0, p.theta2 == 0.0
    # 0-d arrays: numpy converts a Python float anew on every call
    d, d1, t1, t2, g, top, one, two = (np.array(v, float) for v in (
        p.delta, 1.0 - p.delta, p.theta1, p.theta2, p.gamma, n + 1, 1.0, 2.0))
    mul, sub = np.multiply, np.subtract

    def weights(x, y):
        ym1 = sub(y, one)
        w0 = mul(x if d_one else mul(d, x), y)
        w1 = np.zeros(w0.shape) if d_one else mul(mul(d1, x), y)
        w2 = np.divide(mul(y if t1_one else mul(t1, y), ym1), two)
        rest = sub(sub(top, x), y)
        gy = y if g_one else mul(g, y)
        if t2_zero:
            return w0, w1, w2, mul(gy, rest)
        return w0, w1, w2, np.add(mul(y if t2_one else mul(t2, y), ym1), mul(gy, rest))

    return weights


# --------------------------------------------------------------------------
# Presets: named models mapped onto the five-parameter family.  The range
# of each auxiliary parameter, as (rule, test), is written once, in
# _AUX_RANGE.  preset_params checks a preset's values against it in the
# preset's aux order and then maps them; pearce's mapper checks its
# cross-parameter rule q1 + q2 <= 1 first, and ModelParams checks the
# mapped values last (extreme pearce or kawachi inputs break theta's range).
# --------------------------------------------------------------------------


_AUX_RANGE = {
    **dict.fromkeys(("rho", "beta"), ("in [0, 1]", lambda v: 0 <= v <= 1)),
    **dict.fromkeys(("q1", "q2"), (">= 0", lambda v: v >= 0)),
    **dict.fromkeys(("alpha", "p", "q", "r", "gamma", "theta"),
                    ("in (0, 1]", lambda v: 0 < v <= 1)),
}


def _pearce(p: float, q1: float, q2: float, r: float) -> ModelParams:
    _check(q1 + q2 <= 1, "q1 + q2 <= 1", "q1 + q2", q1 + q2)
    return ModelParams(lam=p, gamma=r / p, theta1=q2 / p, theta2=q1 / (2.0 * p), delta=1.0)


@dataclass(frozen=True)
class PresetInfo:
    aux: tuple[str, ...]
    mapping: str
    mapper: Callable[..., ModelParams]


PRESETS: dict[str, PresetInfo] = {
    "dk": PresetInfo((), "lambda=1, gamma=1, theta1=1, theta2=0, delta=1",
                   lambda: ModelParams(lam=1.0, gamma=1.0, theta1=1.0, theta2=0.0, delta=1.0)),
    "mt": PresetInfo((), "lambda=1, gamma=1, theta1=0, theta2=1, delta=1",
                   lambda: ModelParams(lam=1.0, gamma=1.0, theta1=0.0, theta2=1.0, delta=1.0)),
    "hayes": PresetInfo((), "lambda=1, gamma=1, theta1=2, theta2=0, delta=1",
                      lambda: ModelParams(lam=1.0, gamma=1.0, theta1=2.0, theta2=0.0, delta=1.0)),
    "rho": PresetInfo(
        ("rho",),
        "lambda=gamma=delta=1, theta1=rho, theta2=1-rho",
        lambda rho: ModelParams(lam=1.0, gamma=1.0, theta1=rho, theta2=1.0 - rho, delta=1.0),
    ),
    "apq_dk": PresetInfo(
        ("alpha", "p", "q"),
        "lambda=p, gamma=alpha, theta1=alpha^2(2-p), theta2=alpha(1-alpha)(2-p), delta=q",
        lambda alpha, p, q: ModelParams(
            lam=p, gamma=alpha, theta1=alpha * alpha * (2.0 - p),
            theta2=alpha * (1.0 - alpha) * (2.0 - p), delta=q),
    ),
    "apq_mt": PresetInfo(
        ("alpha", "p", "q"),
        "lambda=p, gamma=alpha, theta1=0, theta2=alpha, delta=q",
        lambda alpha, p, q: ModelParams(lam=p, gamma=alpha, theta1=0.0, theta2=alpha, delta=q),
    ),
    "pearce": PresetInfo(
        ("p", "q1", "q2", "r"),
        "lambda=p, gamma=r/p, theta1=q2/p, theta2=q1/(2p), delta=1",
        _pearce,
    ),
    "kawachi": PresetInfo(
        ("alpha", "beta", "gamma", "theta"),
        "lambda=alpha, gamma=gamma/alpha, theta1=2*beta/alpha, theta2=0, delta=theta",
        lambda alpha, beta, gamma, theta: ModelParams(
            lam=alpha, gamma=gamma / alpha, theta1=2.0 * beta / alpha, theta2=0.0, delta=theta),
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
    values = {k: float(v) for k, v in aux.items()}
    for key in info.aux:
        rule, ok = _AUX_RANGE[key]
        _check(ok(values[key]), f"{key} {rule}", key, values[key])
    return info.mapper(**values)
