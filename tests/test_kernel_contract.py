"""Kernel contract: the lockstep simulation kernel walks each row of
uniforms as a scalar loop over model.rate_weights would, bit for bit.

These tests need no luck with a seed: they walk a path of the chain,
choosing each transition among those with positive weight, and hand the
kernel the uniform at the midpoint of the chosen transition's interval,
computed from rate_weights.  The kernel must then follow the same path to
the same final state and jump count and, in exact-time mode, accumulate
the same absorption time to the last bit.  Paths of different lengths in
one call absorb at different steps, which checks that every row's
results land at its own index.

The summed absorption time can hide a one-ulp change in one step's total
weight, so a second check sees every step's total on its own: along paths
drawn from the chain's own law, one kernel row per step whose holding
uniforms are zero except at that step.
"""

import math

import numpy as np
import pytest

from conftest import random_params, rng_for
from rumour.model import preset_params, rate_weights
from rumour.simulate import _chunk_kernel

MOVES = ((-1, 0, 1), (-1, 1, 0), (0, 0, -2), (0, 0, -1))  # on (x, u, y)


def walk(n, p, rng, chain_law=False):
    """A path to absorption: (selection uniforms, holding uniforms, total
    weight of each step, final x, final u).  Each transition is drawn
    uniformly among those with positive weight, or with probability
    proportional to its weight when chain_law is set."""
    x, u, y = n, 0, 1
    u_sel, u_hold, wsums = [], [], []
    while y > 0:
        w = rate_weights(x, y, n, p)
        wsum = w[0] + w[1] + w[2] + w[3]
        bounds = (0.0, w[0], w[0] + w[1], w[0] + w[1] + w[2], wsum)
        if chain_law:
            k = int(rng.choice(4, p=np.array(w) / wsum))
        else:
            k = int(rng.choice([i for i in range(4) if w[i] > 0.0]))
        u_sel.append(0.5 * (bounds[k] + bounds[k + 1]) / wsum)
        u_hold.append(float(rng.uniform(0.0, 1.0)))
        wsums.append(wsum)
        dx, du, dy = MOVES[k]
        x, u, y = x + dx, u + du, y + dy
    return u_sel, u_hold, wsums, x, u


def holding_time(p, hold, wsum):
    return -math.log1p(-hold) / (p.lam * wsum)


def path_time(p, u_hold, wsums):
    t = 0.0
    for hold, wsum in zip(u_hold, wsums):
        t += holding_time(p, hold, wsum)
    return t


def run_kernel(n, p, sel_rows, hold_rows, want_time):
    """Run the kernel on the given rows of uniforms (each padded with 0.5
    to the 2n + 1 a replication may use); return its per-row outputs, with
    times None in jump-chain mode."""
    m = 2 * n + 1
    rows = len(sel_rows)
    sel = np.full((rows, m), 0.5)
    hold = np.full((rows, m), 0.5)
    for r in range(rows):
        sel[r, : len(sel_rows[r])] = sel_rows[r]
        hold[r, : len(hold_rows[r])] = hold_rows[r]
    xs, us, js, ts = _chunk_kernel(n, p, sel, hold if want_time else None)
    return xs.tolist(), us.tolist(), js.tolist(), ts.tolist() if want_time else None


def parameter_cases():
    rng = rng_for("kernel-contract-params")
    cases = [(name, preset_params(name)) for name in ("dk", "mt", "hayes")]
    for theta in (0.0, 0.5, 1.0, None):
        for delta in (1.0, None):
            for i in range(3):
                cases.append((f"theta={theta}-delta={delta}-{i}",
                              random_params(rng, theta=theta, delta=delta)))
    return cases


@pytest.mark.parametrize("want_time", [False, True], ids=["jump-chain", "exact-time"])
def test_kernel_follows_rate_weights(want_time):
    rng = rng_for("kernel-contract-paths")
    for name, p in parameter_cases():
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55):
            u_sel, u_hold, wsums, x, u = walk(n, p, rng)
            xs, us, js, ts = run_kernel(n, p, [u_sel], [u_hold], want_time)
            assert (xs[0], us[0], js[0]) == (x, u, len(u_sel)), (name, n)
            assert ts == ([path_time(p, u_hold, wsums)] if want_time else None), (name, n)


@pytest.mark.parametrize("want_time", [False, True], ids=["jump-chain", "exact-time"])
def test_kernel_rows_of_different_lengths(want_time):
    rng = rng_for("kernel-contract-rows")
    n = 21
    for name, p in parameter_cases():
        paths = [walk(n, p, rng) for _ in range(12)]
        assert len({len(path[0]) for path in paths}) > 1, name
        xs, us, js, ts = run_kernel(n, p, [path[0] for path in paths],
                                    [path[1] for path in paths], want_time)
        assert (ts is not None) == want_time
        for r, (u_sel, u_hold, wsums, x, u) in enumerate(paths):
            assert (xs[r], us[r], js[r]) == (x, u, len(u_sel)), (name, r)
            assert not want_time or ts[r] == path_time(p, u_hold, wsums), (name, r)


def test_kernel_total_weight_per_step():
    # delta < 1: with delta = 1 every ordering of delta * x * y rounds alike
    rng = rng_for("kernel-contract-steps")
    cases = [(name, p) for name, p in parameter_cases() if p.delta < 1.0]
    for name, p in cases:
        for n in (20, 60, 200):
            u_sel, u_hold, wsums, x, u = walk(n, p, rng, chain_law=True)
            steps = len(u_sel)
            holds = [[0.0] * steps for _ in range(steps)]
            for k in range(steps):
                holds[k][k] = u_hold[k]
            xs, us, js, ts = run_kernel(n, p, [u_sel] * steps, holds, True)
            assert xs == [x] * steps and us == [u] * steps and js == [steps] * steps
            want = [holding_time(p, h, w) for h, w in zip(u_hold, wsums)]
            bad = [k for k in range(steps) if ts[k] != want[k]]
            assert not bad, (name, n, bad[:5])
