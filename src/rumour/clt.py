"""Gaussian fluctuation theory of the final state.

The sqrt(N)-scaled deviations of the final (ignorant, uninterested)
fractions from (x_inf, u_inf) converge to a centred bivariate normal.
This module computes the constants (kappa, A, B, C, D) and the 2x2
covariance Sigma in closed form, the underlying 3x3 matrix Lambda (the
covariance of the limiting Gaussian process in (x, u, y) coordinates at
the fluid absorption time), the deterministic fluid trajectory, and an
independent numerical evaluation of Lambda by integrating the Lyapunov
equation

    dL/dtau = dF L + L dF' + G(v(tau)),   L(0) = 0,

on Lambda's six distinct entries on the lambda-free clock s = lambda*tau,
where dF is the drift Jacobian and G the local fluctuation covariance; it
shares no algebra with the closed forms and is the module's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rumour.errors import DomainError, IntegrationFailure
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


def fluid_trajectory(t_grid, p: ModelParams) -> list[dict]:
    """The closed-form fluid trajectory on a grid of times, one row
    {"t", "x", "u", "y"} of floats per time: x = exp(-lambda t),
    u = (1 - delta)(1 - x) and y = f_theta(x).  t is on the clock tau,
    d tau = Y dt; this is not the chain's clock, which `simulate --mode
    exact-time` reports."""
    f = _target(p)[0]
    return [{"t": float(t), "x": x, "u": (1.0 - p.delta) * (1.0 - x), "y": f(x)}
            for t in t_grid for x in [math.exp(-p.lam * t)]]


def t_infinity(p: ModelParams, lim: LimitResult) -> float:
    """Fluid absorption time -log(x_inf)/lambda, where y first hits 0, on
    the clock tau of fluid_trajectory (d tau = Y dt), not the chain's or the
    ODE's s = lambda*tau; DomainError where it overflows, at lambda < ~1e-308."""
    t = -math.log(lim.x_inf) / p.lam
    if not math.isfinite(t):
        raise DomainError(f"t_inf = -log(x_inf)/lambda overflows at lambda = {p.lam!r}")
    return t


# Integrator tolerances of the Lyapunov-ODE oracle.
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12

# Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): the nodes of stages 2..7, the rows of stages 2..7 (the last row is
# the fifth-order solution, so stage 7 is the next step's stage 1), and the
# fifth- minus fourth-order weights.
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _dopri5(rhs, y, tf: float, h: float) -> list[float]:
    """y(tf) for y' = rhs(t, y) from y(0) = y, a sequence of floats, by the
    adaptive Dormand-Prince 5(4) pair with h as the first trial step.

    A step is accepted when the root mean square of its embedded error
    estimate, each component divided by ODE_ATOL + ODE_RTOL*max(|y_new|,
    |y|), is at most 1.  Either way the next trial step is
    h*0.9*err**(-1/5), the factor clipped to [0.2, 10], and no step passes
    tf, so the last one lands on it.  Raises IntegrationFailure on a
    non-finite error norm or after 10**5 trial steps.
    """
    c2, c3, c4, c5, c6, c7 = _DP_C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    k1, t = rhs(0.0, y), 0.0
    for _ in range(100_000):
        if last := h >= tf - t:
            h = tf - t
        k2 = rhs(t + c2 * h, [v + h * (a21 * p) for v, p in zip(y, k1)])
        k3 = rhs(t + c3 * h, [v + h * (a31 * p + a32 * q) for v, p, q in zip(y, k1, k2)])
        k4 = rhs(t + c4 * h, [v + h * (a41 * p + a42 * q + a43 * r)
                              for v, p, q, r in zip(y, k1, k2, k3)])
        k5 = rhs(t + c5 * h, [v + h * (a51 * p + a52 * q + a53 * r + a54 * s)
                              for v, p, q, r, s in zip(y, k1, k2, k3, k4)])
        k6 = rhs(t + c6 * h, [v + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * w)
                              for v, p, q, r, s, w in zip(y, k1, k2, k3, k4, k5)])
        y_new = [v + h * (a71 * p + a73 * r + a74 * s + a75 * w + a76 * z)
                 for v, p, r, s, w, z in zip(y, k1, k3, k4, k5, k6)]
        k7 = rhs(t + c7 * h, y_new)
        # max(nan, b) is nan, so a nan in y_new makes err nan
        est = [h * (e1 * p + e3 * r + e4 * s + e5 * w + e6 * z + e7 * q)
               / (ODE_ATOL + ODE_RTOL * max(abs(n), abs(v)))
               for v, n, p, r, s, w, z, q in zip(y, y_new, k1, k3, k4, k5, k6, k7)]
        err = math.sqrt(sum(e * e for e in est) / len(est))
        if not math.isfinite(err):
            raise IntegrationFailure(f"non-finite error estimate at t = {t!r}")
        if err <= 1.0:
            if last:
                return y_new
            t, y, k1 = t + h, y_new, k7
        h *= min(10.0, max(0.2, 0.9 * err**-0.2)) if err > 0.0 else 10.0
    raise IntegrationFailure(f"no step to t = {tf!r} met the tolerance in 10**5 trials")


def numerical_lambda_via_ode(p: ModelParams, lim: LimitResult) -> np.ndarray:
    """Integrate the Lyapunov equation for Lambda on its six distinct entries
    in Python floats, on s = lambda*tau from 0 to s_inf = -log(x_inf).  With
    a = 1-d, b = g+d, x = exp(-s), y = f_th(x) (d = delta, g = gamma, th =
    theta) and dF = [[-1, 0, 0], [a, 0, 0], [b, 0, -th]], dL/ds is

        xx' = x - 2 xx,   xu' = a(xx - x) - xu,   uu' = a(2 xu + x),
        xy' = b xx - (1 + th) xy - d x,   uy' = a xy + b xu - th uy,
        yy' = 2(b xy - th yy) + (d - g) x + (kappa - th + 2g) y + g.

    Returns the symmetric 3x3 float64 array.  It must match lambda_matrix
    to integrator accuracy: an independent check of the closed-form
    constants (notably C, D and the kappa bookkeeping).
    """
    g, d, th = p.gamma, p.delta, p.theta
    kappa = 3.0 * p.theta1 + 2.0 * p.theta2 - 4.0 * g
    sf = -math.log(lim.x_inf)
    f = _target(p)[0]
    a, b = 1.0 - d, g + d
    gx, gy = d - g, kappa - th + 2.0 * g

    def rhs(s, v):
        xx, xu, xy, uu, uy, yy = v
        x = math.exp(-s)
        return (x - 2.0 * xx, a * (xx - x) - xu,
                b * xx - (1.0 + th) * xy - d * x, a * (2.0 * xu + x),
                a * xy + b * xu - th * uy, 2.0 * (b * xy - th * yy) + gx * x + gy * f(x) + g)

    xx, xu, xy, uu, uy, yy = _dopri5(rhs, [0.0] * 6, sf, sf)
    return np.array([[xx, xu, xy], [xu, uu, uy], [xy, uy, yy]])
