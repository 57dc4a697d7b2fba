import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_params, rng_for
from oracles import rate_weights_reference
from rumour.errors import ConstraintViolation
from rumour.model import PRESETS, ModelParams, preset_params, rate_weights, rate_weights_fn


class TestValidation:
    def test_dk_like_is_valid_with_theta_zero(self):
        p = ModelParams(1, 1, 1, 0, 1)
        assert p.theta == 0.0

    def test_hayes_like_is_valid_with_theta_one(self):
        p = ModelParams(1, 1, 2, 0, 1)
        assert p.theta == 1.0

    def test_theta_below_range_rejected(self):
        with pytest.raises(ConstraintViolation, match="theta"):
            ModelParams(1, 1, 0, 0, 1)  # theta = -1

    @pytest.mark.parametrize(
        "kwargs,pat",
        [
            (dict(lam=0, gamma=1, theta1=1, theta2=0, delta=1), "lambda"),
            (dict(lam=1, gamma=0, theta1=1, theta2=0, delta=1), "gamma"),
            (dict(lam=1, gamma=1, theta1=-0.1, theta2=0.1, delta=1), "theta1"),
            (dict(lam=1, gamma=1, theta1=1.1, theta2=-0.1, delta=1), "theta2"),
            (dict(lam=1, gamma=1, theta1=1, theta2=0, delta=0), "delta"),
            (dict(lam=1, gamma=1, theta1=1, theta2=0, delta=1.5), "delta"),
            (dict(lam=1, gamma=1, theta1=2.5, theta2=0, delta=1), "theta"),
        ],
    )
    def test_each_constraint_named(self, kwargs, pat):
        with pytest.raises(ConstraintViolation, match=pat):
            ModelParams(**kwargs)

    def test_theta_snaps_to_boundary_within_1e12(self):
        p = ModelParams(lam=1, gamma=1, theta1=0.5, theta2=0.5 - 1e-13, delta=1)
        assert p.theta == 0.0
        p = ModelParams(lam=1, gamma=1, theta1=2.0, theta2=1e-13, delta=1)
        assert p.theta == 1.0

    def test_theta_outside_snap_rejected(self):
        with pytest.raises(ConstraintViolation):
            ModelParams(lam=1, gamma=1, theta1=0.5, theta2=0.5 - 1e-9, delta=1)
        with pytest.raises(ConstraintViolation):
            ModelParams(lam=1, gamma=1, theta1=2.0, theta2=1e-9, delta=1)

    def test_first_broken_rule_reported(self):
        # lambda, gamma, theta1, theta2 and delta in that order, theta
        # last: every subset of broken ranges, each with theta broken too
        good = dict(lam=1.0, gamma=1.0, theta1=4.0, theta2=0.0, delta=1.0)
        bad = dict(lam=0.0, gamma=0.0, theta1=-1.0, theta2=-1.0, delta=0.0)
        rules = dict(lam="lambda > 0 violated (lambda", gamma="gamma > 0 violated (gamma",
                     theta1="theta1 >= 0 violated (theta1", theta2="theta2 >= 0 violated (theta2",
                     delta="0 < delta <= 1 violated (delta")
        for k in range(len(good) + 1):
            for broken in itertools.combinations(good, k):
                kwargs = good | {name: bad[name] for name in broken}
                with pytest.raises(ConstraintViolation) as err:
                    ModelParams(**kwargs)
                raw = kwargs["theta1"] + kwargs["theta2"] - kwargs["gamma"]
                assert not 0 <= raw <= 1
                want = (f"{rules[broken[0]]} = {bad[broken[0]]!r})" if broken else
                        f"0 <= theta <= 1 violated (theta = theta1 + theta2 - gamma = {raw!r})")
                assert str(err.value) == want, broken

    def test_theta_recomputed_not_stored(self):
        p = ModelParams(lam=1, gamma=0.7, theta1=0.4, theta2=0.6, delta=0.5)
        assert p.theta == 0.4 + 0.6 - 0.7


class TestTransitionRates:
    """rate_weights: the lambda-free weights; a rate is lambda * weight."""

    def test_dk_state_example(self):
        p = preset_params("dk")
        w = rate_weights(10, 3, 12, p)
        assert w == (30.0, 0.0, 3.0, 0.0)
        assert p.lam * sum(w) == 33.0

    def test_hayes_state_example(self):
        p = preset_params("hayes")
        assert rate_weights(5, 2, 7, p) == (10.0, 0.0, 2.0, 2.0)

    def test_absorbing_state_all_zero(self):
        rng = rng_for("absorbing")
        for _ in range(20):
            p = random_params(rng)
            assert sum(rate_weights(4, 0, 8, p)) == 0.0

    def test_total_zero_iff_y_zero(self):
        p = preset_params("mt")
        for y in range(1, 4):
            assert sum(rate_weights(3, y, 7, p)) > 0

    def test_homogeneous_in_lambda(self):
        # the weights never read lambda; rates lambda * w scale with it and
        # jump-chain probabilities do not move
        rng = rng_for("lambda-homogeneity")
        for _ in range(200):
            base = random_params(rng, lam=1.0)
            c = float(rng.uniform(0.1, 10.0))
            scaled = ModelParams(
                lam=c, gamma=base.gamma, theta1=base.theta1,
                theta2=base.theta2, delta=base.delta,
            )
            n = int(rng.integers(2, 40))
            y = int(rng.integers(1, n))
            x = int(rng.integers(0, n + 1 - y))
            rng.integers(0, n + 2 - x - y)  # u: the weights do not depend on it
            w1 = rate_weights(x, y, n, base)
            wc = rate_weights(x, y, n, scaled)
            assert w1 == wc
            r1 = [base.lam * w for w in w1]
            rc = [scaled.lam * w for w in wc]
            for a, b in zip(r1, rc):
                assert math.isclose(c * a, b, rel_tol=1e-12, abs_tol=0.0)
            if sum(r1) > 0:
                for a, b in zip(r1, rc):
                    assert math.isclose(a / sum(r1), b / sum(rc), rel_tol=1e-12, abs_tol=1e-15)

    def test_delta_one_never_creates_uninterested(self):
        rng = rng_for("delta-one")
        for _ in range(100):
            p = random_params(rng, delta=1.0)
            n = int(rng.integers(2, 30))
            y = int(rng.integers(1, n))
            x = int(rng.integers(0, n + 1 - y))
            assert rate_weights(x, y, n, p)[1] == 0.0

    def test_elementwise_on_arrays(self):
        rng = rng_for("weights-arrays")
        p = random_params(rng)
        n = 30
        xs = rng.integers(0, n + 1, 50)
        ys = rng.integers(0, n + 2 - xs)
        arrays = rate_weights(xs, ys, n, p)
        for i in range(len(xs)):
            assert tuple(a[i] for a in arrays) == rate_weights(int(xs[i]), int(ys[i]), n, p)

    def test_folds_match_unfolded_reference(self):
        # rate_weights_fn skips coefficients of exactly 1 and a theta2 of
        # exactly 0.  Every combination of folds, and coefficients one ulp
        # either side of 1 or the least subnormal in place of 0, which must
        # not be folded, against the scalar reference at every state with
        # y >= 1, bit for bit.  The weights read only the four
        # coefficients, so combinations that theta in [0, 1] rules out are
        # built as namespaces.
        rng = rng_for("weights-folds")
        near_one = (1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))
        near_zero = (0.0, math.ulp(0.0))

        def draw():
            return float(rng.uniform(0.05, 3.0))

        n = 12
        xs, ys = map(np.array, zip(*[(x, y) for x in range(n + 1) for y in range(1, n + 2 - x)]))
        for d, t1, t2, g in itertools.product(
                (*near_one, float(rng.uniform(0.05, 1.0))), (*near_zero, *near_one, draw()),
                (*near_zero, *near_one, draw()), (*near_one, draw())):
            p = SimpleNamespace(delta=d, theta1=t1, theta2=t2, gamma=g)
            want = np.array([rate_weights_reference(x, y, n, p)
                             for x, y in zip(xs.tolist(), ys.tolist())]).T
            weights = rate_weights_fn(n, p)
            for counts in (xs, ys), (xs.astype(float), ys.astype(float)):
                for got in rate_weights(*counts, n, p), weights(*counts):
                    got = np.array([np.asarray(w, float) for w in got])
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                        p, counts[0].dtype)


HALVES = dict(alpha=0.5, p=0.5, q=0.5)
# TINY / 2^-1074 = 2^84 is finite, so a preset that divides by a parameter
# stays admissible at the float just above 0.
TINY = 2.0**-990

# Each range check of a preset mapper: (preset, parameter, low end, high
# end, the open end or None, the other auxiliary values).  An end is None
# where the parameter has no bound of its own there.  The other values
# keep theta in [0, 1] at the value just inside each end.
PRESET_RANGES = [
    ("rho", "rho", 0.0, 1.0, None, {}),
    *[(name, aux, 0.0, 1.0, "low", {k: v for k, v in HALVES.items() if k != aux})
      for name in ("apq_dk", "apq_mt") for aux in HALVES],
    # theta = (q2 + q1 / 2 - r) / p
    ("pearce", "p", 0.0, 1.0, "low", dict(q1=0.0, q2=TINY, r=TINY)),
    ("pearce", "q1", 0.0, None, None, dict(p=1.0, q2=0.5, r=0.5)),
    ("pearce", "q2", 0.0, None, None, dict(p=1.0, q1=1.0, r=0.5)),
    ("pearce", "r", 0.0, 1.0, "low", dict(p=1.0, q1=0.0, q2=1.0)),
    # theta = (2 beta - gamma) / alpha; at beta = 0 it is -gamma / alpha,
    # admissible only inside the snap of 1e-12 to 0
    ("kawachi", "alpha", 0.0, 1.0, "low", dict(beta=TINY / 2, gamma=TINY, theta=0.5)),
    ("kawachi", "beta", 0.0, None, None, dict(alpha=1.0, gamma=2.0**-50, theta=0.5)),
    ("kawachi", "beta", None, 1.0, None, dict(alpha=1.0, gamma=1.0, theta=0.5)),
    ("kawachi", "gamma", 0.0, 1.0, "low", dict(alpha=1.0, beta=0.5, theta=0.5)),
    ("kawachi", "theta", 0.0, 1.0, "low", dict(alpha=1.0, beta=0.5, gamma=1.0)),
]


def range_ends():
    """Each end of PRESET_RANGES: (preset, parameter, the value just
    inside, the value just outside, the other auxiliary values)."""
    for preset, name, low, high, open_end, others in PRESET_RANGES:
        for end, bound, inward in (("low", low, math.inf), ("high", high, -math.inf)):
            if bound is None:
                continue
            if end == open_end:
                inside, outside = math.nextafter(bound, inward), bound
            else:
                inside, outside = bound, math.nextafter(bound, -inward)
            yield pytest.param(preset, name, inside, outside, others,
                               id=f"{preset}-{name}-{end}")


class TestPresets:
    def test_apq_dk_basic_is_dk(self):
        assert preset_params("apq_dk", alpha=1, p=1, q=1) == preset_params("dk")
        assert preset_params("apq_dk", alpha=1, p=1, q=1).theta == 0.0

    def test_apq_mt_basic_is_mt(self):
        assert preset_params("apq_mt", alpha=1, p=1, q=1) == preset_params("mt")

    def test_rho_zero_equals_apq_mt_111(self):
        assert preset_params("rho", rho=0) == preset_params("apq_mt", alpha=1, p=1, q=1)

    def test_rho_one_equals_dk(self):
        assert preset_params("rho", rho=1) == preset_params("dk")

    def test_hayes_mapping(self):
        p = preset_params("hayes")
        assert (p.lam, p.gamma, p.theta1, p.theta2, p.delta) == (1, 1, 2, 0, 1)
        assert p.theta == 1.0

    def test_11q_variants_differ_only_in_theta_split(self):
        q = 0.37
        dk = preset_params("apq_dk", alpha=1, p=1, q=q)
        mt = preset_params("apq_mt", alpha=1, p=1, q=q)
        assert (dk.theta1, dk.theta2) == (1.0, 0.0)
        assert (mt.theta1, mt.theta2) == (0.0, 1.0)
        assert dk.theta == mt.theta == 0.0
        assert (dk.lam, dk.gamma, dk.delta) == (mt.lam, mt.gamma, mt.delta)

    def test_apq_dk_general_mapping(self):
        alpha, p_, q = 0.8, 0.7, 0.6
        p = preset_params("apq_dk", alpha=alpha, p=p_, q=q)
        assert p.lam == p_
        assert p.gamma == alpha
        assert p.delta == q
        assert math.isclose(p.theta1, alpha * alpha * (2 - p_))
        assert math.isclose(p.theta2, alpha * (1 - alpha) * (2 - p_))
        assert math.isclose(p.theta, alpha * (1 - p_))

    def test_pearce_mapping(self):
        p = preset_params("pearce", p=0.5, q1=0.2, q2=0.3, r=0.4)
        assert (p.lam, p.delta) == (0.5, 1.0)
        assert math.isclose(p.gamma, 0.8)
        assert math.isclose(p.theta1, 0.6)
        assert math.isclose(p.theta2, 0.2)

    def test_pearce_extreme_rejected(self):
        # maps to theta = (q2 + q1/2 - r) / p = 1.6, out of range
        with pytest.raises(ConstraintViolation):
            preset_params("pearce", p=0.5, q1=0.0, q2=1.0, r=0.2)

    def test_kawachi_mapping(self):
        p = preset_params("kawachi", alpha=0.5, beta=0.5, gamma=0.5, theta=1.0)
        assert (p.lam, p.gamma, p.theta1, p.theta2, p.delta) == (0.5, 1.0, 2.0, 0.0, 1.0)
        assert p.theta == 1.0

    def test_aux_out_of_range(self):
        with pytest.raises(ConstraintViolation, match="rho"):
            preset_params("rho", rho=1.5)
        with pytest.raises(ConstraintViolation, match="alpha"):
            preset_params("apq_dk", alpha=0, p=1, q=1)

    @pytest.mark.parametrize("preset, name, inside, outside, others", range_ends())
    def test_aux_range_ends(self, preset, name, inside, outside, others):
        # the value just inside an end is taken; the value just outside and
        # NaN are refused by the preset's own check ("alpha in (0, 1]
        # violated (alpha = 0.0)", not ModelParams' "gamma > 0 violated")
        preset_params(preset, **others, **{name: inside})
        for bad in (outside, math.nan):
            with pytest.raises(ConstraintViolation) as err:
                preset_params(preset, **others, **{name: bad})
            msg = str(err.value)
            assert msg.startswith((f"{name} in ", f"{name} >= 0 ")), msg
            assert msg.endswith(f"({name} = {bad!r})"), msg

    @pytest.mark.parametrize("preset, good, bad", [
        ("apq_dk", dict(alpha=0.5, p=0.5, q=0.5), dict(alpha=0.0, p=1.5, q=0.0)),
        ("apq_mt", dict(alpha=0.5, p=0.5, q=0.5), dict(alpha=1.5, p=0.0, q=1.5)),
        ("pearce", dict(p=1.0, q1=0.5, q2=0.5, r=0.5), dict(p=0.0, q1=-1.0, q2=-1.0, r=0.0)),
        ("kawachi", dict(alpha=1.0, beta=0.5, gamma=1.0, theta=0.5),
         dict(alpha=0.0, beta=1.5, gamma=0.0, theta=1.5)),
    ])
    def test_first_broken_aux_range_reported(self, preset, good, bad):
        # every subset of broken ranges names the first in the preset's
        # aux order: apq's alpha, then p, then q; kawachi's beta before
        # gamma
        assert tuple(good) == PRESETS[preset].aux
        for k in range(1, len(good) + 1):
            for broken in itertools.combinations(good, k):
                with pytest.raises(ConstraintViolation) as err:
                    preset_params(preset, **good | {name: bad[name] for name in broken})
                first = broken[0]
                assert str(err.value).startswith((f"{first} in ", f"{first} >= 0 ")), broken
                assert str(err.value).endswith(f"({first} = {bad[first]!r})"), broken

    def test_pearce_ranges_before_q1_plus_q2(self):
        # a single parameter's range is named before the cross-parameter
        # rule q1 + q2 <= 1
        with pytest.raises(ConstraintViolation) as err:
            preset_params("pearce", p=1.0, q1=1.0, q2=0.5, r=0.0)
        assert str(err.value) == "r in (0, 1] violated (r = 0.0)"

    def test_pearce_q1_plus_q2_at_most_one(self):
        # q1 + q2 = 1 is taken; the float just above 1 is refused
        preset_params("pearce", p=1.0, q1=0.5, q2=0.5, r=0.5)
        above = math.nextafter(1.0, 2.0)
        with pytest.raises(ConstraintViolation) as err:
            preset_params("pearce", p=1.0, q1=0.5, q2=above - 0.5, r=0.5)
        assert f"(q1 + q2 = {above!r})" in str(err.value)

    def test_unknown_and_missing(self):
        with pytest.raises(ConstraintViolation, match="unknown preset"):
            preset_params("nope")
        with pytest.raises(ConstraintViolation, match="needs"):
            preset_params("apq_dk", alpha=1)
        with pytest.raises(ConstraintViolation, match="does not take"):
            preset_params("dk", alpha=1)

    def test_registry_names(self):
        assert set(PRESETS) == {
            "dk", "mt", "hayes", "rho", "apq_dk", "apq_mt", "pearce", "kawachi",
        }


class TestSerialization:
    def test_round_trip(self):
        p = ModelParams(lam=0.7, gamma=0.8, theta1=0.832, theta2=0.208, delta=0.6)
        obj = p.to_json_obj()
        assert list(obj) == ["lambda", "gamma", "theta1", "theta2", "delta"]
        assert ModelParams.from_json_obj(obj) == p

    def test_missing_key(self):
        with pytest.raises(ConstraintViolation, match="delta"):
            ModelParams.from_json_obj({"lambda": 1, "gamma": 1, "theta1": 1, "theta2": 0})
