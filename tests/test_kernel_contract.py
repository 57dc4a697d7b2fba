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

Midpoints cannot see a one-ulp change in a threshold, so a third check
puts the selection uniforms on the edges of the chosen move's interval:
u * wsum rounds to the threshold below the move, which the move must
own, or to the float just under the threshold above it.  A threshold
one ulp too high then loses the first kind of step to the move below,
and one ulp too low loses the second kind to the move above.

The kernel reads its uniforms in column blocks, every one through the
same reader.  Every case runs at the default block width and again at
widths 3 and 7, so later reads fall in the middle of paths, and must give
the same results at each.  At each block width it runs with the window
width the kernel picks and again with widths forced from the single step
to wider than any block, so every check above also walks the window path,
with windows cut short by block edges and rows absorbing inside them.
Forced widths that run the same instructions there run once (see
distinct_widths).
Checks of many rows run once more with the kernel's own choice of width
and its thresholds lowered, so that rows absorb in single steps and the
windows that follow read the blocks at the survivors' rows.
The test reader puts NaN in every block row that is not live, so every
case also checks that the kernel reads only the live rows.  The Philox
block reader is checked against the whole-matrix draw it replaces,
writing every live row r into row r of one reused buffer.
"""

import functools
import math

import numpy as np
import pytest

from conftest import random_params, rng_for
from rumour import simulate
from rumour.model import ModelParams, preset_params, rate_weights
from rumour.simulate import _chunk_kernel, _philox_rows

BLOCKS = (simulate._BLOCK, 3, 7)

# Window widths forced on the kernel, besides the one _window_width picks:
# the single step, short windows, and windows wider than any block.
WIDTHS = (1, 2, 5, 64, 4 * simulate._BLOCK)

# In place of a width: windows at any n once at most 4 rows are live, the
# single step before, so the step hands the window rows absorbed in it.
HANDOFF = "hand-off"


def distinct_widths(widths, block, n):
    """The widths that run distinct executions at block width block and
    population n.  A forced width w walks windows of min(w, cols) jumps,
    where cols, the columns left in the block less one, is at most
    min(block, 2n + 1) - 1: forced widths with the same min(w, that cap)
    run the same instructions, and only the first of them is kept.  None
    and HANDOFF are always kept."""
    cap = min(block, 2 * n + 1) - 1
    seen = set()
    for width in widths:
        if width in (None, HANDOFF):
            yield width
        elif min(width, cap) not in seen:
            seen.add(min(width, cap))
            yield width


def force_width(mp, width):
    """Patch the kernel to a width from WIDTHS, to HANDOFF, or, for None,
    to nothing."""
    if width == HANDOFF:
        mp.setattr(simulate, "_WINDOW_N", 1)
        mp.setattr(simulate, "_WINDOW_ROWS", 4)
    elif width is not None:
        mp.setattr(simulate, "_window_width", lambda n, live, width=width: width)


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


def holding_time(hold, wsum):
    # on the kernel's lambda-free clock: lambda times the chain's time
    return -math.log1p(-hold) / wsum


def path_time(u_hold, wsums):
    t = 0.0
    for hold, wsum in zip(u_hold, wsums):
        t += holding_time(hold, wsum)
    return t


def reader(sel, hold):
    """The kernel's read over explicit uniform arrays, simulate._BLOCK
    columns at a time: row r of each block is row r of the arrays for
    every live row r, and NaN in every other row, so a kernel that read a
    row no longer live would leave its path (NaN selects no move below
    w3, and makes the time NaN)."""
    def read(live, step):
        cols = slice(step, step + simulate._BLOCK)

        def block(u):
            out = np.full(u[:, cols].shape, np.nan)
            out[live] = u[live, cols]
            return out
        return block(sel), None if hold is None else block(hold)
    return read


def run_kernel(n, p, sel_rows, hold_rows, want_time, widths=(None,) + WIDTHS):
    """Run the kernel on the given rows of uniforms (each padded with 0.5
    to the 2n + 1 a replication may use) at every block width in BLOCKS
    and every window width in widths (see force_width) that runs a
    distinct execution there (see distinct_widths); check that they all
    agree and return the per-row outputs, with times None in jump-chain
    mode."""
    m = 2 * n + 1
    rows = len(sel_rows)
    sel = np.full((rows, m), 0.5)
    hold = np.full((rows, m), 0.5)
    for r in range(rows):
        sel[r, : len(sel_rows[r])] = sel_rows[r]
        hold[r, : len(hold_rows[r])] = hold_rows[r]
    results = {}
    for block in BLOCKS:
        for width in distinct_widths(widths, block, n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulate, "_BLOCK", block)
                force_width(mp, width)
                read = reader(sel, hold if want_time else None)
                xs, us, js, ts = _chunk_kernel(n, p, rows, read)
            results[block, width] = (xs.tolist(), us.tolist(), js.tolist(),
                                     ts.tolist() if want_time else None)
    first = results[BLOCKS[0], None]
    assert all(r == first for r in results.values()), \
        [key for key, r in results.items() if r != first]
    return first


def parameter_cases():
    rng = rng_for("kernel-contract-params")
    cases = [(name, preset_params(name)) for name in ("dk", "mt", "hayes")]
    # theta2 = 0 with delta < 1, and theta1 = 0 with delta < 1
    cases += [("kawachi", preset_params("kawachi", alpha=0.7, beta=0.3, gamma=0.5, theta=0.6)),
              ("apq_mt", preset_params("apq_mt", alpha=0.6, p=0.8, q=0.7))]
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
            assert ts == ([path_time(u_hold, wsums)] if want_time else None), (name, n)


@pytest.mark.parametrize("want_time", [False, True], ids=["jump-chain", "exact-time"])
def test_kernel_rows_of_different_lengths(want_time):
    rng = rng_for("kernel-contract-rows")
    n = 21
    for name, p in parameter_cases():
        paths = [walk(n, p, rng) for _ in range(12)]
        assert len({len(path[0]) for path in paths}) > 1, name
        xs, us, js, ts = run_kernel(n, p, [path[0] for path in paths],
                                    [path[1] for path in paths], want_time,
                                    (None,) + WIDTHS + (HANDOFF,))
        assert (ts is not None) == want_time
        for r, (u_sel, u_hold, wsums, x, u) in enumerate(paths):
            assert (xs[r], us[r], js[r]) == (x, u, len(u_sel)), (name, r)
            assert not want_time or ts[r] == path_time(u_hold, wsums), (name, r)


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
            want = [holding_time(h, w) for h, w in zip(u_hold, wsums)]
            bad = [k for k in range(steps) if ts[k] != want[k]]
            assert not bad, (name, n, bad[:5])


def uniform_on(target, wsum):
    """A uniform u in [0, 1) with u * wsum == target in float arithmetic,
    searched within four ulps of target / wsum, or None if there is none."""
    lo = hi = target / wsum
    near = [lo]
    for _ in range(4):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
        near += [lo, hi]
    return next((u for u in near if 0.0 <= u < 1.0 and u * wsum == target), None)


def edge_walk(n, p, rng):
    """A path drawn from the chain's law whose selection uniforms sit on an
    edge of the chosen move's interval wherever uniform_on finds one: on
    the threshold below the move, or on the float just under the threshold
    above it.  Steps with neither take the interval's midpoint.  Returns
    walk's five results, then the number of steps on an edge and the
    largest y on the path."""
    x, u, y = n, 0, 1
    u_sel, u_hold, wsums, on_edge, top_y = [], [], [], 0, 1
    while y > 0:
        w = [float(v) for v in rate_weights(x, y, n, p)]
        wsum = w[0] + w[1] + w[2] + w[3]
        bounds = (0.0, w[0], w[0] + w[1], w[0] + w[1] + w[2], wsum)
        k = int(rng.choice(4, p=np.array(w) / wsum))
        edges = [bounds[k]] if k > 0 else []
        if k < 3:
            edges.append(math.nextafter(bounds[k + 1], 0.0))
        rng.shuffle(edges)
        found = [s for s in (uniform_on(e, wsum) for e in edges) if s is not None]
        on_edge += bool(found)
        sel = found[0] if found else 0.5 * (bounds[k] + bounds[k + 1]) / wsum
        assert bounds[k] <= sel * wsum < bounds[k + 1]
        u_sel.append(sel)
        u_hold.append(float(rng.uniform(0.0, 1.0)))
        wsums.append(wsum)
        dx, du, dy = MOVES[k]
        x, u, y = x + dx, u + du, y + dy
        top_y = max(top_y, y)
    return u_sel, u_hold, wsums, x, u, on_edge, top_y


def edge_cases():
    """(name, params, n, least peak of y the path must reach)."""
    # a low stifling rate lets the spreaders reach the thousands
    slow = ModelParams(lam=1.3, gamma=0.05, theta1=0.05, theta2=0.0, delta=1.0)
    slow_u = ModelParams(lam=0.7, gamma=0.05, theta1=0.03, theta2=0.04, delta=0.6)
    big = [("dk", preset_params("dk"), 2000, 300), ("hayes", preset_params("hayes"), 2000, 200),
           ("apq_dk", preset_params("apq_dk", alpha=1.0, p=1.0, q=0.5), 2000, 100),
           ("slow", slow, 3000, 1000), ("slow-delta", slow_u, 3000, 1000)]
    return big + [(name, p, 34, 1) for name, p in parameter_cases()]


@functools.cache
def edge_paths():
    """edge_walk over edge_cases, drawn once for both modes."""
    rng = rng_for("kernel-contract-edges")
    return [(name, p, n, least_top_y, edge_walk(n, p, rng))
            for name, p, n, least_top_y in edge_cases()]


@pytest.mark.parametrize("want_time", [False, True], ids=["jump-chain", "exact-time"])
def test_kernel_thresholds_to_the_last_bit(want_time):
    for name, p, n, least_top_y, path in edge_paths():
        u_sel, u_hold, wsums, x, u, on_edge, top_y = path
        assert top_y >= least_top_y, (name, top_y)
        assert on_edge >= 0.5 * len(u_sel), (name, on_edge, len(u_sel))
        xs, us, js, ts = run_kernel(n, p, [u_sel], [u_hold], want_time)
        assert (xs[0], us[0], js[0]) == (x, u, len(u_sel)), name
        assert ts == ([path_time(u_hold, wsums)] if want_time else None), name


@pytest.mark.parametrize("block", BLOCKS)
def test_philox_reader_matches_whole_matrix(block, monkeypatch):
    # Row r of chunk c reads uniforms r*m ... r*m + m - 1 of the chunk's
    # stream, in blocks from any column, for any subset of rows, into row
    # r of the same buffer.
    monkeypatch.setattr(simulate, "_BLOCK", block)
    rng = rng_for("kernel-contract-philox")
    rows = 9
    for seed, c, stream in ((1729, 0, 0), (5, 3, 1)):
        for m in (block - 1, block, block + 1, block + 2, 2 * block + 3, 2 * block + 4,
                  2 * block + 5, 2 * block + 6):
            if m < 1:
                continue
            seq = np.random.SeedSequence(entropy=(seed, c, stream))
            whole = np.random.Generator(np.random.Philox(seq)).random((rows, m))
            buf = np.empty((rows, min(m, block)))
            read = _philox_rows(seed, c, stream, rows, m, buf)
            everyone = np.arange(rows)
            got = read(everyone, 0)
            assert np.shares_memory(got, buf)
            assert np.array_equal(got, whole[:, :block]), (m, block)
            for step in range(0, m, block):
                live = np.sort(rng.choice(rows, size=int(rng.integers(1, rows + 1)),
                                          replace=False))
                got = read(live, step)
                assert np.shares_memory(got, buf)
                assert got.shape == (rows, min(block, m - step))
                assert np.array_equal(got[live], whole[live, step:step + block]), \
                    (m, block, step)


@pytest.mark.parametrize("mode", ["jump-chain", "exact-time"])
def test_chunks_same_at_every_block_width(mode, monkeypatch):
    # The whole pipeline, Philox reader and kernel, gives the same results
    # whatever the block width and the window width, including rows read
    # in one call (width >= 2n + 1) against rows read many times, and the
    # step handing its survivors to windows.
    p = preset_params("apq_dk", alpha=0.8, p=0.7, q=0.6)
    results = []
    for block in (simulate._BLOCK, 3, 7, 64):
        for width in distinct_widths((None,) + WIDTHS + (HANDOFF,), block, 40):
            monkeypatch.setattr(simulate, "_BLOCK", block)
            force_width(monkeypatch, width)
            blocks = list(simulate.iter_final_states(40, 120, p, 17, mode=mode))
            monkeypatch.undo()
            results.append([(b.start, b.x.tolist(), b.u.tolist(), b.jumps.tolist(),
                             None if b.absorption_time is None else b.absorption_time.tolist())
                            for b in blocks])
    assert all(r == results[0] for r in results)


@pytest.mark.parametrize("mode", ["jump-chain", "exact-time"])
def test_reused_buffers_leak_into_no_block(mode, monkeypatch):
    # Every chunk reads into the same buffers, so a block that kept a view
    # of them would change when the next chunk runs: the blocks collected
    # at the end must equal copies taken, in a first run, as each was
    # yielded.  Width 7 at N = 40 reads each row many times, and N = 40
    # makes chunks of 1024 rows.
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    p = preset_params("apq_dk", alpha=0.8, p=0.7, q=0.6)

    def fields(b):
        return (b.start, b.x.tolist(), b.u.tolist(), b.z.tolist(), b.jumps.tolist(),
                None if b.absorption_time is None else b.absorption_time.tolist())

    copies = [fields(b) for b in simulate.iter_final_states(40, 2100, p, 17, mode=mode)]
    blocks = list(simulate.iter_final_states(40, 2100, p, 17, mode=mode))
    assert len(blocks) == 3
    assert [fields(b) for b in blocks] == copies
