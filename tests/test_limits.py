import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
import scipy.special

from conftest import random_params, rng_for
from rumour.errors import DomainError, NoBracket, NotApplicable, RumourError
from rumour.limits import (
    solve_x_infinity,
    theta_branch,
    u_infinity,
    x_infinity_closed_form,
    _lambert_w,
    _target,
)
from rumour.model import ModelParams, preset_params

# printed to six figures in the literature for the classic models
X_INF_RHO = 0.203188
X_INF_HAYES = 0.284668
# the doubles nearest the roots, which mpmath at 40 digits puts at
# 0.2031878699799799538384790620624198791055 (DK, theta = 0) and
# 0.2846681370408384616802256767697191309865 (Hayes, theta = 1)
X_INF_DK_NEAREST = 0.20318786997997995
X_INF_HAYES_NEAREST = 0.2846681370408385
# frozen independent oracle values (scipy.special.lambertw)
W0_AT_2 = -0.40637573995996
WM1_HALF = -1.7564312086261695


def params_theta(gamma, delta, theta, lam=1.0):
    return ModelParams(lam=lam, gamma=gamma, theta1=gamma + theta, theta2=0.0, delta=delta)


def df_theta_eval(x, p):
    """Derivative in x of f, f0 or f1, by the branch that theta selects."""
    g, d, th = p.gamma, p.delta, p.theta
    b = theta_branch(th)
    if b == 0:
        return -(g + d) + g / x
    if b == 1:
        return g - (g + d) * (math.log(x) + 1.0)
    return ((g + d * th) * th * x ** (th - 1.0) - (g + d) * th) / (th * (1.0 - th))


def decimal_root(p):
    """x_inf, 0 < theta < 1, by bisection in 60-digit decimal arithmetic of
    f written as ((gamma + delta*theta)*x**theta - (gamma + delta)*theta*x
    - gamma*(1 - theta))/(theta*(1 - theta)).  Near x = 1 and next to theta
    in {0, 1} that form cancels some 25 digits, which leaves the root far
    below one ulp of a double."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        g, d, th = Decimal(p.gamma), Decimal(p.delta), Decimal(p.theta)

        def f(x):
            x_th = (th * x.ln()).exp()
            return ((g + d * th) * x_th - (g + d) * th * x - g * (1 - th)) / (th * (1 - th))

        a, b = Decimal("1e-300"), 1 - Decimal("1e-40")
        for _ in range(250):
            m = (a + b) / 2
            if f(m) < 0:
                a = m
            else:
                b = m
        return a


class TestFFunctions:
    def test_f_vanishes_at_one(self):
        rng = rng_for("f-at-one")
        for _ in range(100):
            p = random_params(rng, theta=float(rng.uniform(0.01, 0.99)))
            assert abs(_target(p)[0](1.0)) <= 1e-13 * max(1.0, p.gamma + p.delta)

    def test_f_at_zero_is_minus_gamma_over_theta(self):
        for theta in (0.4, 1.0):
            p = params_theta(gamma=1.3, delta=0.7, theta=theta)
            assert math.isclose(_target(p)[0](0.0), -1.3 / theta, rel_tol=1e-12)
            assert _target(p)[0](0.0) < 0

    def test_f_quarter_root_at_theta_half(self):
        p = params_theta(gamma=1.0, delta=1.0, theta=0.5)
        assert abs(_target(p)[0](0.25)) <= 1e-14

    def test_f0_f1_vanish_at_one(self):
        rng = rng_for("f01-at-one")
        for _ in range(50):
            p = random_params(rng)
            for th in (0.0, 1.0):
                q = params_theta(gamma=p.gamma, delta=p.delta, theta=th)
                assert _target(q)[0](1.0) == 0.0

    def test_f0_near_printed_root(self):
        p = preset_params("dk")
        assert abs(_target(p)[0](X_INF_RHO)) <= 5e-6

    def test_f1_near_printed_root(self):
        p = preset_params("hayes")
        assert abs(_target(p)[0](X_INF_HAYES)) <= 5e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            _target(preset_params("dk"))[0](0.0)
        for theta in (0.0, 0.5, 1.0):
            with pytest.raises(DomainError):
                _target(params_theta(gamma=1.0, delta=1.0, theta=theta))[0](-0.5)
            with pytest.raises(DomainError):
                _target(params_theta(gamma=1.0, delta=1.0, theta=theta))[0](-5e-324)


class TestArgmax:
    """The solver's bracket top is the interior maximiser of f."""

    def test_explicit_value_theta_half(self):
        p = params_theta(gamma=1.0, delta=1.0, theta=0.5)
        assert math.isclose(_target(p)[1], 0.5625, rel_tol=1e-14)

    def test_f_positive_at_argmax_sweep(self):
        # needed for safe bracketing, any valid interior-theta parameters
        rng = rng_for("argmax-positive")
        for _ in range(1000):
            p = random_params(rng, theta=float(rng.uniform(0.005, 0.995)))
            f, m = _target(p)
            assert 0.0 < m < 1.0
            assert f(m) > 0.0


class TestSolver:
    def test_rho_family_value(self):
        lim = solve_x_infinity(preset_params("rho", rho=0.3))
        assert abs(lim.x_inf - X_INF_RHO) <= 1e-5
        assert lim.u_inf == 0.0
        assert lim.method == "bisection"

    def test_hayes_value(self):
        lim = solve_x_infinity(preset_params("hayes"))
        assert abs(lim.x_inf - X_INF_HAYES) <= 1e-5

    def test_classic_roots_are_nearest_doubles(self):
        assert solve_x_infinity(preset_params("dk")).x_inf == X_INF_DK_NEAREST
        assert solve_x_infinity(preset_params("hayes")).x_inf == X_INF_HAYES_NEAREST

    def test_theta_half_explicit(self):
        p = params_theta(gamma=1.0, delta=1.0, theta=0.5)
        lim = solve_x_infinity(p)
        assert abs(lim.x_inf - 0.25) <= 1e-12

    def test_residual_and_inequality_sweep(self):
        rng = rng_for("solver-sweep")
        for _ in range(1000):
            p = random_params(rng)
            lim = solve_x_infinity(p)
            g, d = p.gamma, p.delta
            x = lim.x_inf
            assert 0.0 < x < g / (g + d)
            assert lim.residual <= 1e-12 * max(1.0, abs(df_theta_eval(x, p)))
            assert lim.u_inf == (1.0 - d) * (1.0 - x)
            # x and a neighbouring float bracket the sign change of f
            lo, hi = math.nextafter(x, 0.0), math.nextafter(x, 1.0)
            f = _target(p)[0]
            fx = f(x)
            assert f(lo) < 0.0 <= fx or fx < 0.0 <= f(hi)

    def test_boundary_theta_sweep(self):
        rng = rng_for("solver-boundary")
        for th in (0.0, 1.0):
            for _ in range(100):
                p = random_params(rng, theta=th)
                lim = solve_x_infinity(p)
                assert 0.0 < lim.x_inf < p.gamma / (p.gamma + p.delta)

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("gamma", [0.05, 0.03, 0.01, 0.005])
    def test_small_roots_relative_to_closed_form(self, theta, gamma):
        # at theta = 0, x_inf runs from 7.6e-10 down to 5.1e-88
        p = params_theta(gamma=gamma, delta=1.0, theta=theta)
        closed = x_infinity_closed_form(p).x_inf
        assert abs(solve_x_infinity(p).x_inf - closed) <= 1e-10 * closed

    def test_small_interior_roots_bracketed(self):
        for theta, gamma in ((0.02, 0.02), (0.05, 0.01), (0.3, 0.01), (0.5, 0.001)):
            p = params_theta(gamma=gamma, delta=1.0, theta=theta)
            x = solve_x_infinity(p).x_inf
            f = _target(p)[0]
            assert f(x * (1 - 1e-9)) < 0.0 < f(x * (1 + 1e-9))

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
    def test_roots_near_one_relative_to_distance(self, theta, delta):
        # 1 - x_inf is about 2 delta.  The reference bisects, to adjacent
        # floats, f0 or f1 written in s = 1 - x with log1p, which keeps the
        # cancellation near x = 1 out; f > 0 at s = delta, f < 0 at 1/2.
        g = 1.0
        if theta == 0.0:
            def f(s):
                return (g + delta) * s + g * math.log1p(-s)
        else:
            def f(s):
                return -g * s - (g + delta) * (1.0 - s) * math.log1p(-s)
        a, b = delta, 0.5
        assert f(a) > 0.0 > f(b)
        while a < 0.5 * (a + b) < b:
            m = 0.5 * (a + b)
            if f(m) > 0.0:
                a = m
            else:
                b = m
        p = params_theta(gamma=g, delta=delta, theta=theta)
        for solve in (solve_x_infinity, x_infinity_closed_form):
            x = solve(p).x_inf
            assert abs((1.0 - x) - a) <= 1e-7 * a, solve.__name__

    @pytest.mark.parametrize("delta", [1e-8, 1e-9, 1e-10])
    def test_interior_root_near_one_relative_to_distance(self, delta):
        # at theta = 1/2, x_inf = (1 + delta)**-2 exactly
        s = -math.expm1(-2.0 * math.log1p(delta))
        x = solve_x_infinity(params_theta(gamma=1.0, delta=delta, theta=0.5)).x_inf
        assert abs((1.0 - x) - s) <= 1e-7 * s

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_interior_roots_near_one_within_ulps(self, theta, delta):
        p = params_theta(gamma=1.0, delta=delta, theta=theta)
        x = solve_x_infinity(p).x_inf
        assert abs(Decimal(x) - decimal_root(p)) <= 4 * Decimal(math.ulp(x))

    @pytest.mark.parametrize("near", [1e-12, 1e-10, 2e-9, 1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_theta_next_to_boundary_within_ulps(self, near, end):
        # theta within a few 1e-9 of 0 or 1 gets the same f as any other
        # theta, not f0 or f1 of the nearby boundary
        p = params_theta(gamma=1.0, delta=1.0, theta=abs(end - near))
        x = solve_x_infinity(p).x_inf
        assert abs(Decimal(x) - decimal_root(p)) <= 6 * Decimal(math.ulp(x))

    def test_underflowing_root_raises(self):
        # x_inf = exp(-10001) at theta = 0, far below the float range
        p = params_theta(gamma=1e-4, delta=1.0, theta=0.0)
        with pytest.raises(RumourError, match="underflows"):
            solve_x_infinity(p)
        with pytest.raises(RumourError, match="underflows"):
            x_infinity_closed_form(p)
        # a subnormal gamma overflows h = 1 + delta/gamma on the closed-form
        # route; both routes still name the underflow
        for gamma in (1e-309, 1e-320):
            for theta in (0.0, 1.0):
                p = params_theta(gamma=gamma, delta=1.0, theta=theta)
                for solve in (solve_x_infinity, x_infinity_closed_form):
                    with pytest.raises(NoBracket, match="underflows"):
                        solve(p)

    @pytest.mark.parametrize("gamma, delta, theta",
                             [(3.0, 1e-16, 0.0), (1.0, 5e-17, 1.0), (1.0, 1e-16, 1.0),
                              (1.0, 1e-16, 0.0)])
    def test_root_rounding_to_one_raises(self, gamma, delta, theta):
        # x_inf lies within an ulp or two of 1, and f is not positive at the
        # bracket's top; both routes refuse the point
        p = params_theta(gamma=gamma, delta=delta, theta=theta)
        for solve in (solve_x_infinity, x_infinity_closed_form):
            with pytest.raises(NoBracket):
                solve(p)

    def test_lambda_independent_bitwise(self):
        ref = solve_x_infinity(
            ModelParams(lam=1.0, gamma=1.0, theta1=0.4, theta2=0.9, delta=0.8)
        )
        for lam in (0.5, 7.0, 123.0):
            p = ModelParams(lam=lam, gamma=1.0, theta1=0.4, theta2=0.9, delta=0.8)
            assert solve_x_infinity(p).x_inf == ref.x_inf


class TestLambertW:
    def test_branch_point_identities(self):
        assert _lambert_w(0.0, 0)[0] == 0.0
        assert _lambert_w(-math.exp(-1.0), 0)[0] == -1.0
        assert _lambert_w(-math.exp(-1.0), -1)[0] == -1.0

    def test_w0_at_minus_2e_minus_2(self):
        w = _lambert_w(-2.0 * math.exp(-2.0), 0)[0]
        assert abs(w - (-0.406376)) <= 1e-5
        assert abs(-w / 2.0 - X_INF_RHO) <= 1e-5
        assert abs(w - W0_AT_2) <= 1e-13

    def test_wm1_at_hayes_argument(self):
        z = -math.exp(-0.5) / 2.0
        w = _lambert_w(z, -1)[0]
        assert abs(w - WM1_HALF) <= 1e-13
        assert abs(w * math.exp(w) - z) <= 1e-15
        assert abs(-1.0 / (2.0 * w) - X_INF_HAYES) <= 1e-5

    def test_domains(self):
        with pytest.raises(DomainError):
            _lambert_w(-0.5, 0)
        with pytest.raises(DomainError):
            _lambert_w(-0.5, -1)
        with pytest.raises(DomainError):
            _lambert_w(0.0, -1)
        with pytest.raises(DomainError):
            _lambert_w(1e-3, -1)

    def test_w0_residual_fuzz(self):
        # strict 1e-14-relative bound where binary64 can represent it
        # (|w| <~ 90; beyond that the best w gives |f| ~ |z|*|w|*eps/2)
        rng = rng_for("w0-fuzz")
        e = math.exp(1.0)
        zs = list(rng.uniform(-1 / e, 2.0, size=400))
        zs += list(10.0 ** rng.uniform(-12, 40, size=200))
        zs += list(-(1 / e) * (1.0 - 10.0 ** rng.uniform(-14, -1, size=200)))
        for z in map(float, zs):
            w = _lambert_w(z, 0)[0]
            assert w >= -1.0
            assert abs(w * math.exp(w) - z) <= 1e-14 * max(abs(z), 1e-300)

    def test_wm1_residual_fuzz(self):
        rng = rng_for("wm1-fuzz")
        e = math.exp(1.0)
        zs = list(-(1 / e) * 10.0 ** rng.uniform(-35, 0, size=400))
        zs += list(-(1 / e) * (1.0 - 10.0 ** rng.uniform(-14, -1, size=200)))
        for z in map(float, zs):
            w = _lambert_w(z, -1)[0]
            assert w <= -1.0
            assert abs(w * math.exp(w) - z) <= 1e-14 * max(abs(z), 1e-300)

    def test_deep_tail_residual_within_ulps(self):
        # far out on either branch the attainable floor is a few ulps of w*e^w
        rng = rng_for("w-deep-tail")
        for z in map(float, 10.0 ** rng.uniform(40, 250, size=100)):
            w = _lambert_w(z, 0)[0]
            assert abs(w * math.exp(w) - z) <= 4e-16 * abs(w) * abs(z)
        for z in map(float, -(10.0 ** rng.uniform(-250, -35, size=100))):
            w = _lambert_w(z, -1)[0]
            assert abs(w * math.exp(w) - z) <= 4e-16 * abs(w) * abs(z)

    def test_against_scipy(self):
        rng = rng_for("w-scipy")
        e = math.exp(1.0)
        for z in map(float, rng.uniform(-1 / e, 10.0, size=200)):
            ours = _lambert_w(z, 0)[0]
            ref = float(scipy.special.lambertw(z, 0).real)
            assert math.isclose(ours, ref, rel_tol=1e-12, abs_tol=1e-14)
        for z in map(float, rng.uniform(-1 / e, -1e-6, size=200)):
            ours = _lambert_w(z, -1)[0]
            ref = float(scipy.special.lambertw(z, -1).real)
            assert math.isclose(ours, ref, rel_tol=1e-12, abs_tol=1e-14)


class TestClosedForms:
    def test_rho_family(self):
        lim = x_infinity_closed_form(preset_params("rho", rho=0.5))
        assert lim.method == "lambert-w"
        assert abs(lim.x_inf - X_INF_RHO) <= 1e-5

    def test_apq_mt_uses_h_one_plus_q_over_alpha(self):
        q, alpha = 0.6, 0.8
        p = preset_params("apq_mt", alpha=alpha, p=1, q=q)
        h = 1.0 + q / alpha
        expect = -_lambert_w(-h * math.exp(-h), 0)[0] / h
        assert math.isclose(x_infinity_closed_form(p).x_inf, expect, rel_tol=1e-14)

    def test_theta_half(self):
        p = params_theta(gamma=1.0, delta=1.0, theta=0.5)
        lim = x_infinity_closed_form(p)
        assert lim.method == "closed-half"
        assert lim.x_inf == 0.25

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            x_infinity_closed_form(params_theta(gamma=1.0, delta=1.0, theta=0.3))

    def test_branch_consistency_sweep(self):
        rng = rng_for("closed-vs-solver")
        for th in (0.0, 0.5, 1.0):
            for _ in range(200):
                p = random_params(rng, theta=th)
                closed = x_infinity_closed_form(p)
                solved = solve_x_infinity(p)
                assert abs(closed.x_inf - solved.x_inf) <= 1e-10

    def test_continuity_across_theta(self):
        for th0, near in ((0.0, (1e-9, 1e-8, 1e-7)),
                          (1.0, (1.0 - 1e-9, 1.0 - 1e-8)),
                          (0.5, (0.5 - 1e-8, 0.5 + 1e-8))):
            base = x_infinity_closed_form(params_theta(gamma=1.2, delta=0.8, theta=th0))
            for th in near:
                lim = solve_x_infinity(params_theta(gamma=1.2, delta=0.8, theta=th))
                assert abs(lim.x_inf - base.x_inf) <= 1e-6


class TestMonotonicityAndU:
    def test_theta_map_increasing(self):
        # theta -> (gamma/(gamma + delta*theta))**(1/theta) increases on (0, 1)
        rng = rng_for("monotone")
        grid = np.linspace(0.02, 0.98, 49)
        for _ in range(25):
            g = float(rng.uniform(0.1, 3.0))
            d = float(rng.uniform(0.1, 1.0))
            vals = [(g / (g + d * th)) ** (1.0 / th) for th in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_u_infinity(self):
        assert u_infinity(1.0, 0.3) == 0.0
        assert u_infinity(0.5, 0.5) == 0.25

    def test_u_infinity_11q(self):
        q = 0.4
        p = preset_params("apq_dk", alpha=1, p=1, q=q)
        lim = solve_x_infinity(p)
        h = 1.0 + q
        x = -_lambert_w(-h * math.exp(-h), 0)[0] / h
        assert math.isclose(lim.u_inf, (1 - q) * (1 - x), rel_tol=1e-9)
