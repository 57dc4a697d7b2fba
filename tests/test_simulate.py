import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_params, rng_for
from oracles import (exact_probs_by_slices, final_state_counts, goodness_of_fit,
                     minor_outbreak_leading, support)
from rumour.clt import CovMatrix2, clt_constants, sigma_matrix
from rumour.errors import TooLarge
from rumour.limits import LimitResult, solve_x_infinity
from rumour import simulate
from rumour.model import ModelParams, preset_params
from rumour.simulate import (
    McStats,
    exact_final_distribution,
    iter_final_states,
    monte_carlo,
    verify,
)


def with_lambda(p, lam):
    return ModelParams(lam=lam, gamma=p.gamma, theta1=p.theta1, theta2=p.theta2,
                       delta=p.delta)


def first_replication(n, params, seed, mode="jump-chain"):
    """Replication 0 of a Monte Carlo run with master_seed = seed."""
    return next(iter_final_states(n, 1, params, seed, mode=mode))


class TestRunOne:
    """Single replications."""

    def test_n1_dk_is_deterministic(self):
        p = preset_params("dk")
        for seed in range(10):
            b = first_replication(1, p, seed)
            assert (b.x[0], b.u[0], b.z[0]) == (0, 0, 2)
            assert b.jumps[0] == 2
            assert b.absorption_time is None

    def test_exact_time_carries_absorption_time(self):
        b = first_replication(50, preset_params("mt"), seed=3, mode="exact-time")
        assert b.absorption_time is not None and b.absorption_time[0] > 0.0

    def test_delta_one_no_uninterested(self):
        for name in ("dk", "mt", "hayes"):
            p = preset_params(name)
            for seed in range(5):
                assert first_replication(100, p, seed).u[0] == 0

    def test_conservation_and_jump_bound(self):
        rng = rng_for("run-one-bound")
        for seed in range(30):
            p = random_params(rng)
            n = int(rng.integers(1, 200))
            b = first_replication(n, p, seed)
            x, u, z = int(b.x[0]), int(b.u[0]), int(b.z[0])
            assert min(x, u, z) >= 0 and x <= n
            assert x + u + z == n + 1  # y = 0 at absorption
            assert b.jumps[0] <= 2 * n + 1

    def test_equals_first_replication_of_monte_carlo(self):
        p = preset_params("apq_dk", alpha=0.7, p=0.9, q=0.5)
        one = first_replication(40, p, seed=99)
        block = next(iter_final_states(40, 5, p, 99))
        assert int(block.x[0]) == int(one.x[0])
        assert int(block.u[0]) == int(one.u[0])
        assert int(block.jumps[0]) == int(one.jumps[0])

    def test_input_validation(self):
        p = preset_params("dk")
        with pytest.raises(ValueError):
            first_replication(0, p, seed=1)
        with pytest.raises(ValueError):
            next(iter_final_states(5, 1, p, 1, mode="fast"))
        with pytest.raises(ValueError, match="reps"):
            next(iter_final_states(5, -1, p, 1))
        with pytest.raises(ValueError, match="population"):
            exact_final_distribution(0, p)


class TestModesAndLambda:
    @pytest.mark.parametrize("p, n, reps, seed", [
        (preset_params("apq_dk", alpha=0.8, p=0.7, q=0.6), 60, 500, 1234),
        # N >= 1000 with few rows live: the window path that verify takes
        (preset_params("dk"), 2000, 8, 99),
        (ModelParams(lam=1.3, gamma=0.7, theta1=0.9, theta2=0.3, delta=0.6), 2000, 8, 99),
    ], ids=["apq_dk-steps", "dk-windows", "delta=0.6-windows"])
    def test_modes_share_final_states(self, p, n, reps, seed):
        assert (simulate._window_width(n, reps) > 1) == (n >= 1000)
        a = list(iter_final_states(n, reps, p, seed, mode="jump-chain"))
        b = list(iter_final_states(n, reps, p, seed, mode="exact-time"))
        assert len(a) == len(b)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.x, bb.x)
            assert np.array_equal(ba.u, bb.u)
            assert np.array_equal(ba.jumps, bb.jumps)
            assert ba.absorption_time is None
            assert bb.absorption_time is not None

    def test_jump_chain_final_states_lambda_invariant(self):
        base = preset_params("apq_mt", alpha=0.9, p=0.8, q=0.7)
        ref = list(iter_final_states(50, 400, base, 7))
        for lam in (0.5, 7.0):
            other = list(iter_final_states(50, 400, with_lambda(base, lam), 7))
            for ba, bb in zip(ref, other):
                assert np.array_equal(ba.x, bb.x)
                assert np.array_equal(ba.u, bb.u)

    def test_absorption_time_scales_like_inverse_lambda_in_mean(self):
        p = preset_params("mt")
        t1 = [b.absorption_time.sum() for b in
              iter_final_states(100, 300, p, 5, mode="exact-time")]
        t7 = [b.absorption_time.sum() for b in
              iter_final_states(100, 300, with_lambda(p, 7.0), 5, mode="exact-time")]
        assert math.isclose(sum(t1) / sum(t7), 7.0, rel_tol=1e-9)

    @pytest.mark.parametrize("p", [
        preset_params("dk"),
        ModelParams(lam=1.0, gamma=0.7, theta1=0.9, theta2=0.3, delta=0.6),
    ], ids=["dk", "delta=0.6"])
    @pytest.mark.parametrize("n, reps", [(50, 200), (1500, 20)], ids=["steps", "windows"])
    def test_absorption_time_is_lambda_one_time_over_lambda(self, p, n, reps):
        # The kernel sums lambda-free holding times and iter_final_states
        # divides them by lambda once, so T(lambda) is T(1) / lambda to the
        # last bit, also at 1e308, where lambda times a total weight overflows
        assert (simulate._window_width(n, reps) > 1) == (n >= 1000)
        ref = list(iter_final_states(n, reps, p, 3, mode="exact-time"))
        for lam in (0.5, 0.7, 7.0, 1e308):
            other = list(iter_final_states(n, reps, with_lambda(p, lam), 3, mode="exact-time"))
            assert len(other) == len(ref)
            for ba, bb in zip(ref, other):
                assert np.array_equal(bb.absorption_time, ba.absorption_time / lam), lam
                assert np.array_equal(ba.x, bb.x)
                assert np.array_equal(ba.u, bb.u)
                assert np.array_equal(ba.jumps, bb.jumps)


class TestMcStats:
    def test_one_chunk_in_flight(self, monkeypatch):
        # a chunk runs only when its block is requested, and the ignored
        # workers argument changes no block
        p = preset_params("dk")
        ref = list(iter_final_states(200, 4096, p, 7, 1, "jump-chain"))
        kernel = simulate._chunk_kernel
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(simulate, "_chunk_kernel", counted)
        blocks = iter_final_states(200, 4096, p, 7, 4, "jump-chain")
        got = [next(blocks)]
        assert len(calls) == 1
        got += blocks
        assert len(got) == len(ref) == 4
        for a, b in zip(got, ref):
            assert a.start == b.start and a.absorption_time is b.absorption_time is None
            for field in ("x", "u", "z", "jumps"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_chunk_memory_independent_of_n(self):
        # One full chunk at N = 5000 (419 rows): drawing its rows x (2N + 1)
        # uniforms whole would take 32 MiB; blocks of _BLOCK columns take
        # about 3.3 MiB each.
        dk = preset_params("dk")
        assert simulate._chunk_size(5000) == 419
        tracemalloc.start()
        try:
            block = next(iter_final_states(5000, 419, dk, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block.x) == 419
        assert peak < 8 * 2**20, peak / 2**20

    def test_fraction_scale_properties(self):
        p = preset_params("dk")
        s = monte_carlo(25, 400, p, master_seed=5)
        obj = s.to_json_obj()
        assert obj["sum_x"] == s.sx / 25
        assert obj["sum_xx"] == s.sxx / 625
        assert 0.0 < s.mean_x() < 1.0
        assert s.mean_u() == 0.0

    def test_cov_matches_numpy(self):
        p = preset_params("apq_dk", alpha=1, p=1, q=0.4)
        n, reps, seed = 80, 2000, 13
        xs, us = [], []
        for b in iter_final_states(n, reps, p, seed):
            xs.append(b.x)
            us.append(b.u)
        xf = np.concatenate(xs) / n
        uf = np.concatenate(us) / n
        ref = np.cov(np.vstack([xf, uf]) * math.sqrt(n))
        s = monte_carlo(n, reps, p, seed).cov_sqrt_n()
        assert math.isclose(s.s11, ref[0, 0], rel_tol=1e-10)
        assert math.isclose(s.s12, ref[0, 1], rel_tol=1e-10)
        assert math.isclose(s.s22, ref[1, 1], rel_tol=1e-10)

    def test_cov_needs_two_reps(self):
        s = monte_carlo(10, 1, preset_params("dk"), master_seed=1)
        with pytest.raises(ValueError):
            s.cov_sqrt_n()


def _reference_params() -> dict[str, ModelParams]:
    """The presets without auxiliary parameters and random points over
    theta and delta (None draws it)."""
    rng = rng_for("oracle-reference")
    cases = {name: preset_params(name) for name in ("dk", "mt", "hayes")}
    for theta in (0.0, 0.5, 1.0, None):
        for delta in (1.0, None):
            cases[f"theta={theta}-delta={delta}"] = random_params(rng, theta=theta, delta=delta)
    return cases


REFERENCE_PARAMS = _reference_params()


class TestExactDistribution:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17, 60, 240])
    @pytest.mark.parametrize("name", sorted(REFERENCE_PARAMS))
    def test_bitwise_equal_to_slice_reference(self, name, n, monkeypatch):
        monkeypatch.setattr(simulate, "EXACT_N_MAX", 240)
        p = REFERENCE_PARAMS[name]
        assert np.array_equal(exact_final_distribution(n, p), exact_probs_by_slices(n, p))

    # Richardson's 2 f(2n) - f(n) removes the 1/N term of N * p_minor; what
    # is left, the 1/N^2 term and the major outbreak's tail past the
    # threshold, measured -0.0001 to -0.011 at n = 240/480 (the delta = 0.6
    # point is the largest) and -0.014 for apq_dk at 480/960.  0.02 allows
    # those and stays far below every nonzero term of the formula (the
    # smallest, kawachi's gamma (1 - delta) / delta^2, is 0.54).
    MINOR_TOL = 0.02

    @pytest.mark.parametrize("p, n", [
        (preset_params("dk"), 240),
        (preset_params("hayes"), 240),
        (preset_params("mt"), 240),
        (preset_params("kawachi", alpha=0.9, beta=0.4, gamma=0.8, theta=0.7), 240),
        (ModelParams(lam=1.3, gamma=0.7, theta1=0.9, theta2=0.3, delta=0.6), 240),
        pytest.param(preset_params("apq_dk", alpha=1, p=1, q=0.5), 480,
                     marks=pytest.mark.slow),
    ], ids=["dk", "hayes", "mt", "kawachi", "point", "apq_dk"])
    def test_minor_outbreak_atom_matches_leading_term(self, p, n, monkeypatch):
        # the atom near X = N: mass on X_final > N (1 + x_inf) / 2, the
        # threshold perfbench's minor_threshold uses
        monkeypatch.setattr(simulate, "EXACT_N_MAX", 2 * n)
        x_inf = solve_x_infinity(p).x_inf

        def n_p_minor(m):
            probs = exact_final_distribution(m, p)
            return m * probs[np.arange(m + 1) > 0.5 * m * (1.0 + x_inf)].sum()

        extrapolated = 2.0 * n_p_minor(2 * n) - n_p_minor(n)
        assert abs(extrapolated - minor_outbreak_leading(p)) <= self.MINOR_TOL

    def test_n1_dk_hand_enumeration(self):
        d = exact_final_distribution(1, preset_params("dk"))
        assert dict(support(d)) == {(0, 0): 1.0}

    def test_n2_mt_hand_enumeration(self):
        # (2,1) -> (1,2); then p0 = 1/2 -> (0,3) -> all stifle (X=0),
        # p3 = 1/2 -> (1,1); then p0 = 1/2 -> (0,2) (X=0), p3 = 1/2 -> X=1
        d = exact_final_distribution(2, preset_params("mt"))
        sup = dict(support(d))
        assert set(sup) == {(0, 0), (1, 0)}
        assert math.isclose(sup[(0, 0)], 0.75, abs_tol=1e-15)
        assert math.isclose(sup[(1, 0)], 0.25, abs_tol=1e-15)

    def test_n2_dk_hand_enumeration(self):
        # (2,1) -> (1,2); p0 = 2/3 -> (0,3) -> X=0; p2 = 1/3 -> absorbed X=1
        d = exact_final_distribution(2, preset_params("dk"))
        sup = dict(support(d))
        assert math.isclose(sup[(0, 0)], 2.0 / 3.0, abs_tol=1e-15)
        assert math.isclose(sup[(1, 0)], 1.0 / 3.0, abs_tol=1e-15)

    def test_first_jump_always_informs(self):
        d = exact_final_distribution(2, preset_params("mt"))
        assert (2, 0) not in dict(support(d))

    def test_mass_sums_to_one(self):
        rng = rng_for("oracle-mass")
        for _ in range(25):
            p = random_params(rng)
            n = int(rng.integers(1, 25))
            d = exact_final_distribution(n, p)
            assert abs(d.sum() - 1.0) <= 1e-12

    def test_bitwise_lambda_invariance(self):
        base = preset_params("apq_dk", alpha=0.6, p=0.7, q=0.8)
        ref = exact_final_distribution(12, base)
        for lam in (0.5, 7.0):
            other = exact_final_distribution(12, with_lambda(base, lam))
            assert np.array_equal(ref, other)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            exact_final_distribution(61, preset_params("dk"))

    def test_finite_size_bias_recorded_not_asserted(self):
        # exact mean at N = 40 versus the N -> infinity limit; the gap is
        # the finite-size bias, printed for the record
        p = preset_params("rho", rho=0.0)
        mean_x = exact_final_distribution(40, p).sum(axis=1) @ np.arange(41) / 40
        lim = solve_x_infinity(p)
        print(f"N=40 exact mean X/N = {mean_x:.6f}  vs  x_inf = {lim.x_inf:.6f} "
              f"(bias {mean_x - lim.x_inf:+.2e})")

    def test_uninterested_marginal_when_delta_below_one(self):
        q = 0.5
        d = exact_final_distribution(8, preset_params("apq_dk", alpha=1, p=1, q=q))
        assert any(u > 0 for (_, u), _ in support(d))
        assert abs(d.sum() - 1.0) <= 1e-12


class TestGoodnessOfFit:
    def test_simulation_agrees_with_oracle(self):
        p = preset_params("mt")
        d = exact_final_distribution(3, p)
        counts = final_state_counts(3, 100_000, p, master_seed=31)
        g = goodness_of_fit(counts, d)
        assert g.pvalue >= 1e-3

    def test_binomial_bands_per_cell(self):
        # each final-X frequency within 4 binomial standard deviations
        p = preset_params("mt")
        reps = 1_000_000
        d = exact_final_distribution(3, p)
        counts = final_state_counts(3, reps, p, master_seed=17)
        for key, prob in support(d):
            freq = counts.get(key, 0) / reps
            band = 4.0 * math.sqrt(prob * (1.0 - prob) / reps)
            assert abs(freq - prob) <= band, (key, freq, prob)

    def test_detects_wrong_dynamics(self):
        # simulate dk but test against mt: must reject decisively
        counts = final_state_counts(6, 50_000, preset_params("dk"), master_seed=23)
        d = exact_final_distribution(6, preset_params("mt"))
        g = goodness_of_fit(counts, d)
        assert g.pvalue < 1e-6

    def test_single_cell_support(self):
        p = preset_params("dk")
        counts = final_state_counts(1, 1000, p, master_seed=3)
        g = goodness_of_fit(counts, exact_final_distribution(1, p))
        assert g.dof == 0 and g.pvalue == 1.0

    def test_stray_mass_rejected(self):
        d = exact_final_distribution(2, preset_params("mt"))
        g = goodness_of_fit({(0, 0): 70, (1, 0): 25, (2, 0): 5}, d)
        assert g.pvalue == 0.0


class TestVerify:
    def test_delta_one_exact_zero_entries(self):
        p = preset_params("dk")
        lim = solve_x_infinity(p)
        sigma = sigma_matrix(clt_constants(p, lim), p, lim)
        stats = monte_carlo(500, 2000, p, master_seed=41)
        rep = verify(stats, lim, sigma)
        emp = rep.sigma_emp
        assert emp.s12 == 0.0 and emp.s22 == 0.0
        assert rep.to_json_obj()["u_mean_z"] == 0.0
        assert rep.to_json_obj()["mean_u"] == 0.0

    def test_sensitivity_to_wrong_sigma(self):
        p = preset_params("mt")
        lim = solve_x_infinity(p)
        sigma = sigma_matrix(clt_constants(p, lim), p, lim)
        stats = monte_carlo(2000, 4000, p, master_seed=43)
        assert verify(stats, lim, sigma).passed
        wrong = CovMatrix2(2.0 * sigma.s11, sigma.s12, sigma.s22)
        assert not verify(stats, lim, wrong).passed

    @pytest.mark.slow
    def test_hayes_desk_scale_variance(self):
        # N = reps = 1e4; seed 200 documented (free of the early-extinction
        # atom that inflates the sample variance by ~N(1-x)^2/reps per hit)
        p = preset_params("hayes")
        lim = solve_x_infinity(p)
        sigma = sigma_matrix(clt_constants(p, lim), p, lim)
        stats = monte_carlo(10_000, 10_000, p, master_seed=200)
        rep = verify(stats, lim, sigma)
        assert rep.passed
        assert abs(rep.sigma_emp.s11 - 0.427204) <= 0.05 * 0.427204

    def test_report_object_exact(self):
        # Hand-built statistics, no seed: four replications of N = 4 ending
        # with x = [1, 1, 1, 2] ignorants.  Key order is part of the output.
        def ordered(obj):
            if isinstance(obj, dict):
                return [(k, ordered(v)) for k, v in obj.items()]
            return obj

        def check(emp, theory, abs_err, rel_err, allowed, ok):
            return {"emp": emp, "theory": theory, "abs_err": abs_err, "rel_err": rel_err,
                    "allowed": allowed, "ok": ok}

        # u = [0, 0, 0, 0] against a theory with s12 = s22 = 0: zero entries
        # match exactly (rel_err 0) and the u-mean deviates by 0 of 0.
        stats = McStats(reps=4, n=4, master_seed=0, sx=5, su=0, sxx=7, sxu=0, suu=0)
        lim = LimitResult(0.25, 0.0, "bisection", 0.0, 0)
        rep = verify(stats, lim, CovMatrix2(0.25, 0.0, 0.0))
        assert ordered(rep.to_json_obj()) == ordered({
            "n": 4, "reps": 4, "x_inf": 0.25, "u_inf": 0.0, "mean_x": 0.3125, "mean_u": 0.0,
            "x_mean_z": 0.5, "u_mean_z": 0.0,
            "sigma_emp": [[0.0625, 0.0], [0.0, 0.0]],
            "sigma_theory": [[0.25, 0.0], [0.0, 0.0]],
            "checks": {
                "s11": check(0.0625, 0.25, 0.1875, 0.75, 0.816496580927726, True),
                "s12": check(0.0, 0.0, 0.0, 0.0, 0.0, True),
                "s22": check(0.0, 0.0, 0.0, 0.0, 0.0, True),
            },
            "pass": True,
        })
        assert rep.passed

        # u = [0, 1, 1, 2] against a theory with s11 = 0: the nonzero
        # empirical s11 has rel_err inf and fails, the deviating x-mean has
        # z = inf, and the verdict fails.
        stats = McStats(reps=4, n=4, master_seed=0, sx=5, su=4, sxx=7, sxu=6, suu=6)
        lim = LimitResult(0.25, 0.5, "bisection", 0.0, 0)
        rep = verify(stats, lim, CovMatrix2(0.0, 0.0625, 0.25))
        twelfth, sixth = 0.08333333333333333, 0.16666666666666666
        assert ordered(rep.to_json_obj()) == ordered({
            "n": 4, "reps": 4, "x_inf": 0.25, "u_inf": 0.5, "mean_x": 0.3125, "mean_u": 0.25,
            "x_mean_z": math.inf, "u_mean_z": -2.0,
            "sigma_emp": [[0.0625, twelfth], [twelfth, sixth]],
            "sigma_theory": [[0.0, 0.0625], [0.0625, 0.25]],
            "checks": {
                "s11": check(0.0625, 0.0, 0.0625, math.inf, 0.0, False),
                "s12": check(twelfth, 0.0625, 0.02083333333333333, 0.33333333333333326,
                             0.14433756729740643, True),
                "s22": check(sixth, 0.25, 0.08333333333333334, 0.33333333333333337,
                             0.816496580927726, True),
            },
            "pass": False,
        })
        assert not rep.passed

    def test_needs_replications(self):
        p = preset_params("dk")
        lim = solve_x_infinity(p)
        sigma = sigma_matrix(clt_constants(p, lim), p, lim)
        with pytest.raises(ValueError):
            verify(McStats.empty(10, 0), lim, sigma)
