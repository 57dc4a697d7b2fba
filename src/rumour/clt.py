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
    x = lim.x_inf
    d = p.delta
    od = (1.0 - d) * (1.0 - x)
    return np.array(
        [
            [x * (1.0 - x), -od * x, 0.0],
            [-od * x, od * ((1.0 - d) * x + d), -consts.b],
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


def numerical_lambda_via_ode(p: ModelParams, lim: LimitResult) -> np.ndarray:
    """Integrate the Lyapunov equation for Lambda from 0 to t_inf.

    dF is constant; G is evaluated along the closed-form fluid trajectory.
    The result must match lambda_matrix to integrator accuracy; this is an
    independent check of the closed-form constants (notably C, D and the
    kappa bookkeeping).
    """
    # imported here: scipy.integrate costs most of a CLI start, and only
    # this function needs it
    from scipy.integrate import solve_ivp

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

    def rhs(t, flat):
        L = flat.reshape(3, 3)
        x = math.exp(-la * t)
        y = f(x)
        G = np.array(
            [
                [la * x, -la * (1.0 - d) * x, -la * d * x],
                [-la * (1.0 - d) * x, la * (1.0 - d) * x, 0.0],
                [
                    -la * d * x,
                    0.0,
                    la * (d - g) * x + la * (kappa - th + 2.0 * g) * y + la * g,
                ],
            ]
        )
        return (dF @ L + L @ dF.T + G).ravel()

    sol = solve_ivp(rhs, (0.0, tf), np.zeros(9), method="RK45", rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol.y[:, -1].reshape(3, 3)
