"""Kernel contract: the simulation kernel's inline rate weights are
model.rate_weights, bit for bit.

The kernel keeps its own copy of the four weights for speed.  This test
needs no luck with a seed: it walks a path of the chain, choosing each
transition among those with positive weight, and hands the kernel the
uniform at the midpoint of the chosen transition's interval, computed
from rate_weights.  The kernel must then follow the same path to the same
final state and jump count and, in exact-time mode, accumulate the same
absorption time to the last bit.
"""

import math

import numpy as np
import pytest

from conftest import random_params, rng_for
from rumour.model import preset_params, rate_weights
from rumour.simulate import _chunk_kernel

MOVES = ((-1, 0, 1), (-1, 1, 0), (0, 0, -2), (0, 0, -1))  # on (x, u, y)


def walk(n, p, rng):
    """A path to absorption: (selection uniforms, holding uniforms,
    final x, final u, absorption time) with the time summed as the kernel
    must sum it."""
    x, u, y = n, 0, 1
    u_sel, u_hold = [], []
    t = 0.0
    while y > 0:
        w = rate_weights(x, y, n, p)
        wsum = w[0] + w[1] + w[2] + w[3]
        bounds = (0.0, w[0], w[0] + w[1], w[0] + w[1] + w[2], wsum)
        k = int(rng.choice([i for i in range(4) if w[i] > 0.0]))
        u_sel.append(0.5 * (bounds[k] + bounds[k + 1]) / wsum)
        hold = float(rng.uniform(0.0, 1.0))
        u_hold.append(hold)
        t += -math.log1p(-hold) / (p.lam * wsum)
        dx, du, dy = MOVES[k]
        x, u, y = x + dx, u + du, y + dy
    return u_sel, u_hold, x, u, t


def run_kernel(n, p, u_sel, u_hold, want_time):
    m = 2 * n + 1
    sel = np.full((1, m), 0.5)
    sel[0, : len(u_sel)] = u_sel
    hold = np.full((1, m), 0.5)
    hold[0, : len(u_hold)] = u_hold
    out_x = np.empty(1, np.int64)
    out_u = np.empty(1, np.int64)
    out_j = np.empty(1, np.int64)
    out_t = np.empty(1, np.float64)
    _chunk_kernel(n, p.delta, p.gamma, p.theta1, p.theta2, p.lam, sel,
                  hold if want_time else np.empty((0, 0)), want_time,
                  out_x, out_u, out_j, out_t)
    return int(out_x[0]), int(out_u[0]), int(out_j[0]), float(out_t[0])


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
            u_sel, u_hold, x, u, t = walk(n, p, rng)
            got = run_kernel(n, p, u_sel, u_hold, want_time)
            assert got[:3] == (x, u, len(u_sel)), (name, n)
            if want_time:
                assert got[3] == t, (name, n)
            else:
                assert got[3] == 0.0
