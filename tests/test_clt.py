import math

import numpy as np
import pytest

from conftest import random_params, rng_for
from oracles import sigma_closed_form
from rumour.clt import (
    ODE_ATOL,
    ODE_RTOL,
    _dopri5,
    clt_constants,
    fluid_trajectory,
    lambda_matrix,
    numerical_lambda_via_ode,
    sigma_from_lambda,
    sigma_matrix,
    t_infinity,
)
from rumour.errors import IntegrationFailure, NotApplicable
from rumour.limits import LimitResult, solve_x_infinity
from rumour.model import ModelParams, preset_params

V_RHO0 = 0.272736
V_RHO_SLOPE = 0.0379364
V_HAYES = 0.427204


def full_sigma(p):
    lim = solve_x_infinity(p)
    consts = clt_constants(p, lim)
    return consts, lim, sigma_matrix(consts, p, lim)


class TestConstants:
    def test_kappa_rho_family(self):
        for rho in (0.0, 0.25, 0.5, 1.0):
            p = preset_params("rho", rho=rho)
            lim = solve_x_infinity(p)
            c = clt_constants(p, lim)
            assert math.isclose(c.kappa, rho - 2.0, rel_tol=0, abs_tol=1e-15)

    def test_kappa_hayes(self):
        p = preset_params("hayes")
        c = clt_constants(p, solve_x_infinity(p))
        assert c.kappa == 2.0

    def test_b_zero_when_delta_one(self):
        rng = rng_for("b-zero")
        for _ in range(50):
            p = random_params(rng, delta=1.0)
            c = clt_constants(p, solve_x_infinity(p))
            assert c.b == 0.0

    def test_a_positive(self):
        rng = rng_for("a-positive")
        for _ in range(300):
            p = random_params(rng)
            lim = solve_x_infinity(p)
            c = clt_constants(p, lim)
            assert c.a > 0.0
            assert p.gamma - (p.gamma + p.delta) * lim.x_inf > 0.0

    def test_c_identity_at_random_roots(self):
        # clt_constants' docstring: on the root,
        # C (1 - x) = 4 (d - kappa (g + d)) (g + d t)^2 (x - x^(2t)) + (2t - 1) R.
        # No other check reads C.  Over these points the worst relative
        # error against the summed magnitudes is about 2e-14.
        rng = rng_for("c-identity")
        for _ in range(300):
            p = random_params(rng)
            lim = solve_x_infinity(p)
            c = clt_constants(p, lim)
            g, d, t, k, x = p.gamma, p.delta, p.theta, c.kappa, lim.x_inf
            r = k * (g + d) * (1 - x) * ((g + d) * (g + 2 * t * (g + d)) * x
                                         + g * (d + (3 - 2 * t) * g))
            terms = (c.c * (1 - x), -4 * (d - k * (g + d)) * (g + d * t) ** 2 * (x - x ** (2 * t)),
                     -(2 * t - 1) * r)
            assert abs(math.fsum(terms)) <= 1e-12 * sum(map(abs, terms)), p


class TestSigmaValues:
    def test_rho_family_printed_values(self):
        for rho, expect in ((0.0, V_RHO0), (1.0, V_RHO0 + V_RHO_SLOPE),
                            (0.5, V_RHO0 + 0.5 * V_RHO_SLOPE)):
            _, _, s = full_sigma(preset_params("rho", rho=rho))
            assert abs(s.s11 - expect) <= 1e-5
            assert s.s12 == 0.0
            assert s.s22 == 0.0

    def test_hayes_printed_value(self):
        _, _, s = full_sigma(preset_params("hayes"))
        assert abs(s.s11 - V_HAYES) <= 1e-5

    def test_hayes_direct_formula(self):
        p = preset_params("hayes")
        lim = solve_x_infinity(p)
        x = lim.x_inf
        direct = x * (1 - x) * (1 - 3 * x + 3 * x * x) / (1 - 2 * x) ** 2
        _, _, s = full_sigma(p)
        assert math.isclose(s.s11, direct, rel_tol=1e-12)

    def test_delta_one_collapses_to_scalar(self):
        rng = rng_for("sigma-delta-one")
        for _ in range(50):
            _, _, s = full_sigma(random_params(rng, delta=1.0))
            assert s.s12 == 0.0
            assert s.s22 == 0.0
            assert s.s11 > 0.0


class TestClosedFormFamilies:
    def test_grid_agreement_with_general_path(self):
        grid = [round(0.1 * k, 1) for k in range(1, 11)]
        for q in grid:
            _, _, s = full_sigma(preset_params("apq_dk", alpha=1, p=1, q=q))
            ref = sigma_closed_form("11q_dk", q)
            assert abs(s.s11 - ref.s11) <= 1e-9
            assert abs(s.s12 - ref.s12) <= 1e-9
            assert abs(s.s22 - ref.s22) <= 1e-9
            _, _, s = full_sigma(preset_params("apq_mt", alpha=1, p=1, q=q))
            ref = sigma_closed_form("11q_mt", q)
            assert abs(s.s11 - ref.s11) <= 1e-9
            assert abs(s.s12 - ref.s12) <= 1e-9
            assert abs(s.s22 - ref.s22) <= 1e-9
        for alpha in grid:
            _, _, s = full_sigma(preset_params("apq_dk", alpha=alpha, p=1, q=1))
            assert abs(s.s11 - sigma_closed_form("a11_dk", alpha).s11) <= 1e-9
            _, _, s = full_sigma(preset_params("apq_mt", alpha=alpha, p=1, q=1))
            assert abs(s.s11 - sigma_closed_form("a11_mt", alpha).s11) <= 1e-9

    def test_a11_dk_at_alpha_one_is_rho_one(self):
        a = sigma_closed_form("a11_dk", 1.0)
        r = sigma_closed_form("rho", 1.0)
        assert abs(a.s11 - r.s11) <= 1e-9
        assert abs(a.s11 - (V_RHO0 + V_RHO_SLOPE)) <= 1e-5

    def test_11q_mt_at_q_one_is_rho_zero(self):
        s = sigma_closed_form("11q_mt", 1.0)
        assert abs(s.s11 - V_RHO0) <= 1e-5
        assert s.s12 == 0.0

    def test_11q_sign_of_cross_term(self):
        for q in (0.3, 0.5, 0.8):
            assert sigma_closed_form("11q_dk", q).s12 < 0.0
            assert sigma_closed_form("11q_mt", q).s12 < 0.0

    def test_unknown_family(self):
        with pytest.raises(NotApplicable):
            sigma_closed_form("general", 0.5)


class TestLambdaMatrix:
    def test_structure(self):
        rng = rng_for("lambda-structure")
        for _ in range(100):
            p = random_params(rng)
            lim = solve_x_infinity(p)
            c = clt_constants(p, lim)
            lam = lambda_matrix(p, lim, c)
            x = lim.x_inf
            assert lam[0, 2] == 0.0 and lam[2, 0] == 0.0
            assert lam[0, 0] == x * (1 - x)
            assert lam[1, 2] == -c.b and lam[2, 1] == -c.b
            assert lam[2, 2] == c.d
            assert np.array_equal(lam, lam.T)

    def test_delta_one_zeroes_second_row(self):
        p = preset_params("dk")
        lim = solve_x_infinity(p)
        lam = lambda_matrix(p, lim, clt_constants(p, lim))
        assert np.all(lam[1, :] == 0.0)
        assert np.all(lam[:, 1] == 0.0)

    def test_sigma_from_lambda_consistency_sweep(self):
        rng = rng_for("m-lambda-mt")
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            lim = solve_x_infinity(p)
            c = clt_constants(p, lim)
            s = sigma_matrix(c, p, lim)
            s2 = sigma_from_lambda(lambda_matrix(p, lim, c), c.a, p.delta)
            scale = max(1.0, abs(s.s11), abs(s.s12), abs(s.s22))
            worst = max(
                worst,
                abs(s.s11 - s2.s11) / scale,
                abs(s.s12 - s2.s12) / scale,
                abs(s.s22 - s2.s22) / scale,
            )
        assert worst <= 1e-9

    def test_delta_one_projection_drops_second_component(self):
        p = preset_params("mt")
        lim = solve_x_infinity(p)
        c = clt_constants(p, lim)
        s = sigma_from_lambda(lambda_matrix(p, lim, c), c.a, 1.0)
        assert s.s22 == 0.0

    def test_zero_a_keeps_upper_left_block(self):
        lam = np.arange(9.0).reshape(3, 3)
        lam = (lam + lam.T) / 2
        s = sigma_from_lambda(lam, 0.0, 0.3)
        assert (s.s11, s.s12, s.s22) == (lam[0, 0], lam[0, 1], lam[1, 1])


class TestPsdAndHalfBranch:
    def test_positive_semidefinite_sweep(self):
        rng = rng_for("psd")
        for _ in range(1000):
            p = random_params(rng)
            _, _, s = full_sigma(p)
            scale = max(1.0, s.s11, abs(s.s22))
            assert s.s11 >= 0.0
            assert s.s22 >= -1e-12 * scale
            assert s.s11 * s.s22 - s.s12 * s.s12 >= -1e-9 * scale * scale

    # (gamma, delta, theta1 - gamma) -> D, for theta1 = gamma + theta and
    # theta2 = 0.  Each value is C*(1 - x)/(2*(2 theta - 1)*(gamma +
    # delta*theta)**2) in mpmath at 60 digits, at the 60-digit root and at
    # the float theta and kappa that clt_constants sees, where the
    # cancellation in 2 theta - 1 does no harm; at theta = 1/2 it is
    # 2g(kappa*d*(2g + d) - 2g*(d - kappa*(g + d))*log(g/(g + d)))/(g + d)**2.
    D_60_DIGITS = {
        (1.0, 1.0, 0.49999995): 0.7500000329441553,
        (1.0, 1.0, 0.4999998): 0.7500001317766366,
        (1.0, 1.0, 0.49999): 0.7500065888803029,
        (1.0, 1.0, 0.5): 0.75,
        (1.0, 1.0, 0.500001): 0.7499993411174113,
        (0.8, 0.5, 0.49999995): 0.39432604743480215,
        (0.8, 0.5, 0.4999998): 0.3943260893447873,
        (0.8, 0.5, 0.49999): 0.39432882748014964,
        (0.8, 0.5, 0.5): 0.39432603346480877,
        (0.8, 0.5, 0.500001): 0.39432575406511683,
        (2.0, 0.3, 0.49999995): 0.12523196047653817,
        (2.0, 0.3, 0.4999998): 0.125231964909736,
        (2.0, 0.3, 0.49999): 0.1252322545458878,
        (2.0, 0.3, 0.5): 0.12523195899880563,
        (2.0, 0.3, 0.500001): 0.12523192944416056,
        (0.8, 0.5, 0.0): 0.5919638342012972,
        (0.8, 0.5, 0.25): 0.4763396806941099,
        (0.8, 0.5, 0.75): 0.3336506469423396,
        (0.8, 0.5, 1.0): 0.28726536351640936,
    }

    def test_half_branch_continuity(self):
        def mk(gamma, delta, th):
            return ModelParams(lam=1.0, gamma=gamma, theta1=gamma + th, theta2=0.0, delta=delta)

        for (gamma, delta, th), ref in self.D_60_DIGITS.items():
            consts, _, _ = full_sigma(mk(gamma, delta, th))
            assert abs(consts.d - ref) <= 1e-14 * ref, (gamma, delta, th)
        # Sigma a hair away from 1/2 against Sigma at 1/2
        for gamma, delta in ((1.0, 1.0), (0.8, 0.5), (2.0, 0.3)):
            _, _, ref = full_sigma(mk(gamma, delta, 0.5))
            for th in (0.5 - 1e-7, 0.5 + 1e-7):
                _, _, s = full_sigma(mk(gamma, delta, th))
                for a, b in ((s.s11, ref.s11), (s.s12, ref.s12), (s.s22, ref.s22)):
                    assert abs(a - b) <= 1e-4 * max(1.0, abs(b))


class TestFluidAndTime:
    def test_starts_at_unit_ignorants(self):
        rng = rng_for("fluid-start")
        for _ in range(30):
            p = random_params(rng)
            pt = fluid_trajectory([0.0], p)[0]
            assert pt.x == 1.0
            assert pt.u == 0.0
            assert abs(pt.y) <= 1e-14

    def test_hits_limit_at_t_inf(self):
        rng = rng_for("fluid-end")
        for _ in range(50):
            p = random_params(rng)
            lim = solve_x_infinity(p)
            tf = t_infinity(p, lim)
            pt = fluid_trajectory([tf], p)[0]
            assert abs(pt.x - lim.x_inf) <= 1e-10
            assert abs(pt.u - lim.u_inf) <= 1e-10
            assert abs(pt.y) <= 1e-10

    def test_initial_spreader_growth_rate(self):
        # finite-difference slope of y at 0 equals lambda * delta
        for p in (preset_params("dk"), preset_params("apq_dk", alpha=0.8, p=0.7, q=0.6)):
            h = 1e-7
            traj = fluid_trajectory([0.0, h], p)
            slope = (traj[1].y - traj[0].y) / h
            assert math.isclose(slope, p.lam * p.delta, rel_tol=1e-4)
            assert slope > 0.0

    def test_t_inf_value_and_scaling(self):
        p = preset_params("rho", rho=0.0)
        lim = solve_x_infinity(p)
        assert abs(t_infinity(p, lim) - (-math.log(0.203188))) <= 1e-5
        p2 = ModelParams(lam=2.0, gamma=1.0, theta1=0.0, theta2=1.0, delta=1.0)
        assert math.isclose(t_infinity(p2, lim), t_infinity(p, lim) / 2.0, rel_tol=1e-15)

    def test_t_inf_vanishes_as_x_inf_approaches_one(self):
        p = preset_params("dk")
        near = LimitResult(x_inf=1 - 1e-9, u_inf=0.0, method="bisection",
                           residual=0.0, iterations=0)
        assert 0.0 < t_infinity(p, near) < 2e-9


class TestDormandPrince:
    # y' = a*y + b, componentwise, decaying, flat and growing
    A = np.array([-3.0, -1.0, -0.5, -0.1, 0.0, 0.2, 0.5, 1.0, 2.0])
    B = np.array([1.0, -2.0, 0.5, 3.0, 1.0, -1.0, 0.25, 0.0, 2.0])
    Y0 = np.array([1.0, 0.0, -1.0, 2.0, 0.0, 1.0, 0.5, -0.5, 0.0])
    TF = 1.5

    def solve(self, h):
        times = []

        def rhs(t, y):
            times.append(t)
            return self.A * y + self.B

        return _dopri5(rhs, self.Y0.copy(), self.TF, h), times

    def exact(self):
        growth = np.array([math.expm1(a * self.TF) / a if a else self.TF for a in self.A])
        return self.Y0 * np.exp(self.A * self.TF) + self.B * growth

    @pytest.mark.parametrize("h", [1e-3, 1e-8])
    def test_endpoint_matches_exact_solution(self, h):
        y, _ = self.solve(h)
        exact = self.exact()
        assert np.all(np.abs(y - exact) <= 10.0 * (ODE_ATOL + ODE_RTOL * np.abs(exact)))

    def test_stops_exactly_at_tf(self):
        _, times = self.solve(1e-3)
        assert max(times) == times[-1] == self.TF

    def test_rejected_first_step(self):
        # one step over the whole interval misses the tolerance by far, so
        # the second trial restarts at t = 0 with a smaller step
        y, times = self.solve(self.TF)
        assert times[1] == 0.2 * self.TF and times[7] < times[1]
        exact = self.exact()
        assert np.all(np.abs(y - exact) <= 10.0 * (ODE_ATOL + ODE_RTOL * np.abs(exact)))
        assert np.abs(y - self.solve(1e-3)[0]).max() <= 1e-7

    def test_nan_rhs_raises_at_once(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return np.full(9, math.nan)

        with pytest.raises(IntegrationFailure):
            _dopri5(rhs, np.zeros(9), 1.0, 0.1)
        assert len(calls) == 7


# the presets plus theta in {0, 1/4, 1/2, 3/4, 1} at delta in {1, 0.6}
ODE_POINTS = [
    pytest.param(preset_params("mt"), id="mt"),
    pytest.param(preset_params("apq_dk", alpha=1, p=1, q=0.5), id="11q-dk-q0.5"),
    pytest.param(preset_params("dk"), id="dk"),
    pytest.param(preset_params("hayes"), id="hayes"),
    pytest.param(preset_params("kawachi", alpha=0.5, beta=0.3, gamma=0.5, theta=0.7),
                 id="kawachi"),
    pytest.param(preset_params("pearce", p=0.5, q1=0.2, q2=0.3, r=0.4), id="pearce"),
] + [
    pytest.param(ModelParams(lam=1.0, gamma=1.0, theta1=1.0 + th, theta2=0.0, delta=d),
                 id=f"theta{th}-delta{d}")
    for th in (0.0, 0.25, 0.5, 0.75, 1.0) for d in (1.0, 0.6)
]


class TestOdeCrossCheck:
    @pytest.mark.parametrize("p", ODE_POINTS)
    def test_matches_closed_form(self, p):
        lim = solve_x_infinity(p)
        c = clt_constants(p, lim)
        dev = np.abs(lambda_matrix(p, lim, c) - numerical_lambda_via_ode(p, lim)).max()
        assert dev <= 1e-6

    @pytest.mark.parametrize("p", [
        pytest.param(preset_params("dk"), id="dk"),
        pytest.param(preset_params("mt"), id="mt"),
        pytest.param(preset_params("hayes"), id="hayes"),
        pytest.param(preset_params("apq_dk", alpha=1, p=1, q=0.5), id="11q-dk-q0.5"),
        pytest.param(preset_params("apq_dk", alpha=0.8, p=0.7, q=0.6), id="apq-dk-.8-.7-.6"),
    ])
    def test_matches_closed_form_to_integrator_accuracy(self, p):
        # At ODE_RTOL/ODE_ATOL the stepper reaches 1.5-3.6e-11 here; a wrong
        # tableau entry (a65 = -5103/18657) still reaches 2.3e-8, which the
        # 1e-6 bound above lets through.
        lim = solve_x_infinity(p)
        c = clt_constants(p, lim)
        dev = np.abs(lambda_matrix(p, lim, c) - numerical_lambda_via_ode(p, lim)).max()
        assert dev <= 1e-9

    def test_zero_cross_entries_at_t_inf(self):
        p = preset_params("apq_dk", alpha=0.8, p=0.7, q=0.6)
        lim = solve_x_infinity(p)
        ode = numerical_lambda_via_ode(p, lim)
        assert abs(ode[0, 2]) <= 1e-6
        assert abs(ode[2, 0]) <= 1e-6
        assert abs(ode[0, 0] - lim.x_inf * (1 - lim.x_inf)) <= 1e-6
