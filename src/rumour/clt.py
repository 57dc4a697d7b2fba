"""Gaussian fluctuation theory of the final state.

The sqrt(N)-scaled deviations of the final (ignorant, uninterested)
fractions from (x_inf, u_inf) converge to a centred bivariate normal.
This module computes the constants (kappa, A, B, C, D) and the 2x2
covariance Sigma in closed form, the underlying 3x3 matrix Lambda (the
covariance of the limiting Gaussian process in (x, u, y) coordinates at
the fluid absorption time), the deterministic fluid trajectory, and an
independent numerical evaluation of Lambda by integrating the Lyapunov
equation

    dL/dt = dF L + L dF' + G(v(t)),   L(0) = 0,

along the fluid trajectory up to t_inf, where dF is the drift Jacobian
and G the local fluctuation covariance.  The last route shares no algebra
with the closed forms and is the module's correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rumour.errors import IntegrationFailure
from rumour.limits import LimitResult, _q, _target
from rumour.model import ModelParams


@dataclass(frozen=True)
class CltConstants:
    """Constants of the fluctuation limit; kappa = 3*theta1 + 2*theta2 - 4*gamma."""

    kappa: float
    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class CovMatrix2:
    """Symmetric 2x2 covariance of the scaled final-state fluctuations."""

    s11: float
    s12: float
    s22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s12, self.s22]])

    def to_json_obj(self) -> list:
        return [[self.s11, self.s12], [self.s12, self.s22]]


@dataclass(frozen=True)
class FluidPoint:
    """Point on the deterministic large-N trajectory: x(t) = exp(-lambda t),
    u = (1-delta)(1-x), y = f_theta(x)."""

    t: float
    x: float
    u: float
    y: float


def clt_constants(p: ModelParams, lim: LimitResult) -> CltConstants:
    """Evaluate kappa, A, B, C and D.

    A's denominator gamma - (gamma+delta)*x_inf is positive because
    x_inf < gamma/(gamma+delta).  With x = x_inf, g = gamma, d = delta,
    t = theta and q as in limits (q(0) = log x, q(1) = -(1 - x)), D is one
    formula for every theta in [0, 1]:

        D = 2*(kappa*(g+d) - d) * x**(2t) * q(1 - 2t) + R / (2*(g + d*t)**2),
        R = kappa*(g+d)*(1 - x)*((g+d)*(g + 2t*(g+d))*x + g*(d + (3 - 2t)*g)).

    This is C*(1 - x)/(2*(2t - 1)*(g + d*t)**2) with 2t - 1 divided out.
    On the root x**t = (g*(1 - t) + (g+d)*t*x)/(g + d*t), so
    C*(1 - x) = 4*(d - kappa*(g+d))*(g + d*t)**2*(x - x**(2t)) + (2t - 1)*R,
    and x - x**(2t) = -(2t - 1)*x**(2t)*q(1 - 2t).
    """
    g, d = p.gamma, p.delta
    th = p.theta
    x = lim.x_inf
    kappa = 3.0 * p.theta1 + 2.0 * p.theta2 - 4.0 * g
    a = x / (g - (g + d) * x)
    b = g * d * lim.u_inf / (g + d * th)
    c = (
        (g + d) ** 2 * (4.0 * d * th * th - kappa * (g + 2.0 * d * th)) * x
        + kappa * g * (g + d) * (g + d * (2.0 * th - 1.0))
        - 4.0 * d * g * g * (1.0 - th) ** 2
    )
    r = kappa * (g + d) * (1.0 - x) * ((g + d) * (g + 2.0 * th * (g + d)) * x
                                       + g * (d + (3.0 - 2.0 * th) * g))
    dd = (2.0 * (kappa * (g + d) - d) * x ** (2.0 * th) * _q(1.0 - 2.0 * th, x, math.log(x))
          + r / (2.0 * (g + d * th) ** 2))
    return CltConstants(kappa=kappa, a=a, b=b, c=c, d=dd)


def sigma_matrix(consts: CltConstants, p: ModelParams, lim: LimitResult) -> CovMatrix2:
    """Closed-form Sigma from the constants:

        S11 = x(1-x) + A^2 D
        S12 = -(1-delta) S11 + A B
        S22 = (1-delta)^2 S11 + (1-delta)(delta(1-x) - 2 A B)
    """
    x = lim.x_inf
    d = p.delta
    s11 = x * (1.0 - x) + consts.a * consts.a * consts.d
    s12 = -(1.0 - d) * s11 + consts.a * consts.b
    s22 = (1.0 - d) ** 2 * s11 + (1.0 - d) * (d * (1.0 - x) - 2.0 * consts.a * consts.b)
    return CovMatrix2(s11=s11, s12=s12, s22=s22)


def lambda_matrix(p: ModelParams, lim: LimitResult, consts: CltConstants) -> np.ndarray:
    """3x3 covariance of the limiting Gaussian process at t_inf, in
    (x, u, y) coordinates.  Entries (1,3) and (3,1) vanish identically."""
    x, d, u = lim.x_inf, p.delta, lim.u_inf
    return np.array(
        [
            [x * (1.0 - x), -u * x, 0.0],
            [-u * x, u * ((1.0 - d) * x + d), -consts.b],
            [0.0, -consts.b, consts.d],
        ]
    )


def sigma_from_lambda(lam: np.ndarray, a: float, delta: float) -> CovMatrix2:
    """Project Lambda down to Sigma with M = [[1, 0, -A], [0, 1, A(1-delta)]];
    Sigma = M Lambda M'.  Must agree with sigma_matrix to rounding error."""
    m = np.array([[1.0, 0.0, -a], [0.0, 1.0, a * (1.0 - delta)]])
    s = m @ lam @ m.T
    return CovMatrix2(s11=s[0, 0], s12=s[0, 1], s22=s[1, 1])


# --------------------------------------------------------------------------
# Fluid trajectory, absorption time, and the Lyapunov-equation oracle.
# --------------------------------------------------------------------------


def fluid_trajectory(t_grid, p: ModelParams) -> list[FluidPoint]:
    """Evaluate the closed-form fluid trajectory on a grid of times on the
    clock tau, d tau = Y dt, where x = exp(-lambda tau); this is not the
    chain's clock t, which `simulate --mode exact-time` reports."""
    f = _target(p)[0]
    out = []
    for t in t_grid:
        x = math.exp(-p.lam * t)
        out.append(
            FluidPoint(
                t=float(t),
                x=x,
                u=(1.0 - p.delta) * (1.0 - x),
                y=f(x),
            )
        )
    return out


def t_infinity(p: ModelParams, lim: LimitResult) -> float:
    """Fluid absorption time -log(x_inf)/lambda, where y first hits 0, on
    the clock tau of fluid_trajectory (d tau = Y dt), not the chain's."""
    return -math.log(lim.x_inf) / p.lam


# Integrator tolerances of the Lyapunov-ODE oracle.
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12

# Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): the nodes of stages 2..7, the rows of stages 2..7 (the last row is
# the fifth-order solution, so stage 7 is the next step's stage 1), and the
# fifth- minus fourth-order weights.
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dopri5(rhs, y: np.ndarray, tf: float, h: float) -> np.ndarray:
    """y(tf) for y' = rhs(t, y) from y(0) = y, by the adaptive
    Dormand-Prince 5(4) pair with h as the first trial step.

    A step is accepted when the root mean square of its embedded error
    estimate, each component divided by ODE_ATOL + ODE_RTOL*max(|y|,
    |y_new|), is at most 1.  Either way the next trial step is
    h*0.9*err**(-1/5), the factor clipped to [0.2, 10], and no step passes
    tf, so the last one lands on it.  Raises IntegrationFailure on a
    non-finite error norm or after 10**5 trial steps.
    """
    k = np.empty((7, y.size))
    k[0] = rhs(0.0, y)
    stages = [(c, a[: i + 1], k[: i + 1], k[i + 1]) for i, (c, a) in enumerate(zip(_DP_C, _DP_A))]
    t = 0.0
    for _ in range(100_000):
        last = h >= tf - t
        if last:
            h = tf - t
        for c, a, ks, k_next in stages:
            y_new = y + h * (a @ ks)
            k_next[:] = rhs(t + c * h, y_new)
        scale = ODE_ATOL + ODE_RTOL * np.maximum(np.abs(y), np.abs(y_new))
        v = np.square(h * (_DP_E @ k) / scale)
        # np.mean's sum and division, without its Python-level wrapper
        err = math.sqrt(np.add.reduce(v) / v.size)
        if not math.isfinite(err):
            raise IntegrationFailure(f"non-finite error estimate at t = {t!r}")
        if err <= 1.0:
            if last:
                return y_new
            t, y, k[0] = t + h, y_new, k[6]
        h *= min(10.0, max(0.2, 0.9 * err**-0.2)) if err > 0.0 else 10.0
    raise IntegrationFailure(f"no step to t = {tf!r} met the tolerance in 10**5 trials")


def numerical_lambda_via_ode(p: ModelParams, lim: LimitResult) -> np.ndarray:
    """Integrate the Lyapunov equation for Lambda from 0 to t_inf.

    dF is constant; G is evaluated along the closed-form fluid trajectory.
    The result must match lambda_matrix to integrator accuracy; this is an
    independent check of the closed-form constants (notably C, D and the
    kappa bookkeeping).
    """
    g, d, la = p.gamma, p.delta, p.lam
    th = p.theta
    kappa = 3.0 * p.theta1 + 2.0 * p.theta2 - 4.0 * g
    tf = t_infinity(p, lim)
    f = _target(p)[0]

    dF = np.array(
        [
            [-la, 0.0, 0.0],
            [la * (1.0 - d), 0.0, 0.0],
            [la * (g + d), 0.0, -la * th],
        ]
    )
    # vec(dF L + L dF') = (dF x I + I x dF) vec(L) for row-major vec
    lyap = np.kron(dF, np.eye(3)) + np.kron(np.eye(3), dF)
    # G = [[la x, -la (1-d) x, -la d x], [., la (1-d) x, 0],
    #      [., 0, la (d-g) x + la (kappa - th + 2g) y + la g]] is gx*x plus
    # gy*y + gc in its last entry, each sum taken left to right as written;
    # the last entry in Python floats, the same double operations as numpy's
    gx8, gy, gc = la * (d - g), la * (kappa - th + 2.0 * g), la * g
    gx = np.array([la, -la * (1.0 - d), -la * d, -la * (1.0 - d), la * (1.0 - d), 0.0,
                   -la * d, 0.0, gx8])

    def rhs(t, flat):
        x = math.exp(-la * t)
        G = gx * x
        G[8] = gx8 * x + gy * f(x) + gc
        return lyap @ flat + G

    return _dopri5(rhs, np.zeros(9), tf, tf).reshape(3, 3)
