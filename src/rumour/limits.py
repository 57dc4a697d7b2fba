"""Limiting fractions at absorption.

As N grows, the fraction of never-informed individuals converges to the
unique root in (0, 1) of one transcendental equation.  For every theta in
[0, 1] the defining function is

    f(x) = gamma*q(theta) - (gamma + delta)*x**theta*q(1 - theta),
    q(t) = (x**t - 1)/t = expm1(t*log(x))/t,  q(0) = log(x),  q(1) = -(1 - x).

For 0 < theta < 1 it equals ((gamma + delta*theta)*x**theta - (gamma +
delta)*theta*x - gamma*(1 - theta))/(theta*(1 - theta)); at the ends it is,
to the bit,

    f0(x) = (gamma + delta)*(1 - x) + gamma*log(x)              (theta = 0)
    f1(x) = -gamma*(1 - x) - (gamma + delta)*x*log(x)           (theta = 1)

Written with q, f divides by neither theta nor 1 - theta and keeps its
digits near x = 1, so no band of theta and no root near 1 needs a formula
of its own.  f is unimodal on (0, 1] with a negative left tail and a zero
at x = 1, so the root is the only sign change between the smallest normal
float and the interior maximiser, and bisection over the float grid finds
it with no tolerance to tune.  At theta in {0, 1} the root also has a
Lambert-W closed form, and at theta = 1/2 it is (gamma / (gamma + delta))**2;
those routes are kept independent of the bracketed solver so each can check
the other.  The root never depends on lambda.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from rumour.errors import DomainError, NoBracket, NotApplicable
from rumour.model import ModelParams

# theta within this distance of 0, 1/2 or 1 selects that closed form in
# x_infinity_closed_form; the solver's f has no such band.
THETA_EPS = 1e-9

_BRANCH_POINT = -math.exp(-1.0)  # -1/e


@dataclass(frozen=True)
class LimitResult:
    """Root of the final-size equation plus solver diagnostics.

    x_inf lies in (0, gamma/(gamma+delta)); u_inf = (1-delta)*(1-x_inf).
    """

    x_inf: float
    u_inf: float
    method: str  # bisection | lambert-w | closed-half
    residual: float
    iterations: int

    def to_json_obj(self) -> dict:
        return {
            "x_inf": self.x_inf,
            "u_inf": self.u_inf,
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def theta_branch(theta: float) -> int | None:
    """0 or 1 when theta sits at that boundary (within THETA_EPS), else None."""
    if abs(theta) <= THETA_EPS:
        return 0
    if abs(theta - 1.0) <= THETA_EPS:
        return 1
    return None


def _q(t: float, x: float, log_x: float) -> float:
    """(x**t - 1)/t, with its limits log(x) at t = 0 and -(1 - x) at t = 1."""
    if t == 0.0:
        return log_x
    if t == 1.0:
        return -(1.0 - x)
    return math.expm1(t * log_x) / t


def _target(p: ModelParams):
    """(f, bracket top) for any theta in [0, 1].

    f is the final-size function: one formula for every theta in [0, 1],
    equal to f0 and f1 at the ends.  It is defined on (0, 1]; for
    theta > 0 it takes its limit -gamma/theta at x = 0.  It raises
    DomainError for x < 0, and for x = 0 at theta = 0.

    The bracket top is the maximiser ((gamma + delta*theta)/(gamma +
    delta))**(1/(1 - theta)) = (1 - r*(1 - theta))**(1/(1 - theta)) with
    r = delta/(gamma + delta): pow is exact at theta = 0, log1p keeps the
    digits as theta nears 1, and at theta = 1 it is exp(-r).
    """
    g, d = p.gamma, p.delta
    th = p.theta
    u = 1.0 - th

    def f(x):
        if x < 0.0 or (x == 0.0 and th == 0.0):
            raise DomainError(f"f needs x > 0 at theta = {th!r}, got {x!r}")
        if x == 0.0:
            return -g / th
        log_x = math.log(x)
        return g * _q(th, x, log_x) - (g + d) * x**th * _q(u, x, log_x)

    r = d / (g + d)
    if u > 0.5:
        top = ((g + d * th) / (g + d)) ** (1.0 / u)
    elif u > 0.0:
        top = math.exp(math.log1p(-r * u) / u)
    else:
        top = math.exp(-r)
    return f, top


def _underflow(p: ModelParams) -> NoBracket:
    """A root below the smallest normal float would be subnormal, with
    fewer significant bits than relative accuracy needs."""
    return NoBracket(f"x_inf underflows: it lies below {sys.float_info.min!r} for {p}")


def solve_x_infinity(p: ModelParams) -> LimitResult:
    """Solve for the limiting ignorant fraction by bisection over the float
    grid.

    The bracket is [smallest normal float, interior maximiser]; f rises
    left of the maximiser, so it must be negative at the left end, or the
    root underflows and NoBracket is raised.  Each step halves the bracket
    in bit patterns, which for positive doubles sort as the values do, so
    at most 63 steps leave adjacent floats a < b with f(a) < 0 <= f(b).
    Of the two, the one with the smaller |f| is returned (b on a tie).

    Near x = 1 the root is within a few ulps of x: at gamma = 1 and theta
    in {0.1, 1/2, 0.9}, within 3.6 ulps of a 50-digit root for delta from
    1e-6 down to 1e-12.  Near 1 the bracket fails only when delta/gamma is
    below about 1e-15, where x_inf lies within twenty doubles of 1.
    """
    f, top = _target(p)
    a, b = sys.float_info.min, top
    fa, fb = f(a), f(b)
    if not fa < 0.0:
        raise _underflow(p)
    if not fb > 0.0:
        raise NoBracket(f"function not positive at its maximiser for {p}")

    ia, ib = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (a, b))
    iters = 0
    while ib - ia > 1:
        im = (ia + ib) // 2
        m = struct.unpack("<d", struct.pack("<q", im))[0]
        fm = f(m)
        if fm < 0.0:
            ia, a, fa = im, m, fm
        else:
            ib, b, fb = im, m, fm
        iters += 1

    x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    return LimitResult(
        x_inf=x,
        u_inf=u_infinity(p.delta, x),
        method="bisection",
        residual=abs(fx),
        iterations=iters,
    )


# --------------------------------------------------------------------------
# Lambert W (real branches W0 and W-1) by Halley iteration.
# --------------------------------------------------------------------------


def _halley(z: float, w: float) -> tuple[float, int]:
    for i in range(1, 61):
        ew = math.exp(w)
        fw = w * ew - z
        wp1 = w + 1.0
        if wp1 == 0.0:
            wp1 = 5e-324  # escape an exact branch-point iterate
        dw = fw / (ew * wp1 - (w + 2.0) * fw / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 2e-16 * (1.0 + abs(w)):
            return w, i
    return w, 60


def _lambert_w(z: float, branch: int, p2: float | None = None) -> tuple[float, int]:
    """(W(z), Halley steps) on the real branch 0 (W0) or -1 (W-1).  p2, if
    given, is 2*(1 + e*z) computed without z, whose own rounding error
    would otherwise decide the digits next to the branch point."""
    if branch == 0:
        if math.isnan(z) or z < _BRANCH_POINT:
            raise DomainError(f"W0 needs z >= -1/e, got {z!r}")
        if z == 0.0:
            return 0.0, 0
    elif math.isnan(z) or z < _BRANCH_POINT or z >= 0.0:
        raise DomainError(f"W-1 needs -1/e <= z < 0, got {z!r}")
    if (z == _BRANCH_POINT) if p2 is None else (p2 == 0.0):
        return -1.0, 0
    if z < 0.25 * _BRANCH_POINT:
        # series about the branch point: w = -1 + p - p^2/3 + 11 p^3/72
        if p2 is None:  # clamp float rounding just below the branch point
            p2 = max(2.0 * (1.0 + math.e * z), 0.0)
        p = math.sqrt(p2) if branch == 0 else -math.sqrt(p2)
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
        if p2 <= 1e-8:
            return w, 0  # series already at float accuracy
    elif branch == 0 and z < math.e:
        w = math.log1p(z)
    else:
        lz = math.log(abs(z))
        w = lz - math.log(abs(lz))
    return _halley(z, w)


def x_infinity_closed_form(p: ModelParams) -> LimitResult:
    """Closed-form limiting fraction, available at theta in {0, 1/2, 1}.

    With h = 1 + delta/gamma:

        theta = 0    x = -W0(-h exp(-h)) / h
        theta = 1    x = -1 / (h * W-1(-exp(-1/h)/h))
        theta = 1/2  x = (gamma / (gamma + delta))**2

    Raises NotApplicable for any other theta, and NoBracket when x lies
    below the normal float range, or where solve_x_infinity finds no
    bracket near 1: f not positive at the bracket's top (delta/gamma below
    about 1e-15), or x rounding to 1.
    """
    g, d = p.gamma, p.delta
    th = p.theta
    b = theta_branch(th)
    h = 1.0 + d / g
    if b is not None:
        if not math.isfinite(h):
            raise _underflow(p)  # x < 1/h lies below the float range
        # 2*(1 + e*z) = 2*(1 - (1 + s)*exp(-s)), by its series where that cancels
        s = d / g if b == 0 else -d / (g + d)
        p2 = 2.0 * (s * s * (0.5 - s * (1.0 / 3.0 - s * (0.125 - s / 30.0))) if abs(s) <= 1e-3
                    else 1.0 - (1.0 + s) * math.exp(-s))
    if b == 0:
        w, iters = _lambert_w(-h * math.exp(-h), 0, p2)
        x = -w / h
        method = "lambert-w"
    elif b == 1:
        w, iters = _lambert_w(-math.exp(-1.0 / h) / h, -1, p2)
        x = -1.0 / (h * w)
        method = "lambert-w"
    elif abs(th - 0.5) <= THETA_EPS:
        x = (g / (g + d)) ** 2
        iters = 0
        method = "closed-half"
    else:
        raise NotApplicable(f"no closed form at theta = {th}")
    if not x >= sys.float_info.min:
        raise _underflow(p)
    f, top = _target(p)
    if not (f(top) > 0.0 and x < 1.0):
        raise NoBracket(f"x_inf lies too close to 1 to bracket for {p}")
    return LimitResult(
        x_inf=x,
        u_inf=u_infinity(d, x),
        method=method,
        residual=abs(f(x)),
        iterations=iters,
    )


def u_infinity(delta: float, x_inf: float) -> float:
    """Limiting uninterested fraction (1 - delta) * (1 - x_inf)."""
    return (1.0 - delta) * (1.0 - x_inf)
