"""Exact stochastic simulation of the rumour chain and its verification.

Simulation is exact (no leaping): every jump is drawn from the embedded
chain, with probabilities proportional to the four transition rates.  Two
modes exist.  Jump-chain mode draws transitions only; exact-time mode
additionally accumulates exponential holding times.  Holding-time draws
live in a separate random stream, so both modes visit identical state
sequences for the same seed.  The kernel reads lambda-free weights and
times, and iter_final_states divides times by lambda once, so the final
state's law is bitwise lambda-free and T(lambda) is bitwise T(1) / lambda.

Reproducibility: replications are partitioned into fixed-size chunks
(size depends only on the population parameter), and chunk c draws its
uniforms from counter-based Philox streams keyed by (master_seed, c, 0)
for transition selection and (master_seed, c, 1) for holding times.
Replication r owns m = 2N + 1 consecutive uniforms of each stream, row
r - chunk_start of the chunk's rows x m matrix in row-major order; each
jump decrements X or Y, so no replication needs more.  The matrix is
never drawn whole: Philox is counter-based, so the kernel reads column
blocks of at most _BLOCK uniforms for its live rows, each from its offset
in the stream, into one buffer per stream that is allocated once per run
and reused by every block of every chunk.  Row r of every block is row r
of the chunk, so the kernel indexes the blocks by its live rows
themselves, and the rows no longer live keep stale uniforms that it
never reads.  Memory per stream stays at rows x min(m, _BLOCK) doubles
whatever N is.  Chunks run in order on the
calling thread, one at a time, and accumulated statistics are exact
integers, so no floating-point reduction order can leak in.

The kernel is a numpy lockstep walk: each step advances every live
replication of a chunk by one jump, with weights from model.rate_weights,
so each path is bit-identical to a one-row-at-a-time walk.  A step
makes about 21 numpy calls for dk and about 33 in general, so numpy's
fixed cost per call, not arithmetic, sets its price however few rows are
live.  When few rows are live the kernel therefore walks windows: each
round of calls moves every row by up to a thousand jumps in new arrays,
guessing the window's moves and correcting them from the states they
lead through until none changes: the step's bits (see _chunk_kernel).
The step and the windows compute their moves in one function, and read
each move from one table of (dx, dy) and each holding time from one
formula.  A dk replication at N = 10^4 takes about 0.95 ms, against 1.28
ms one step at a time, and four at N = 10^6 take about 1.3 s, against
38.6 s.

For small populations, exact_final_distribution returns the exact joint
law of the final (X, U) as the array probs[x, u], by propagating
probability mass through the jump-chain DAG.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from rumour.clt import CovMatrix2
from rumour.errors import TooLarge
from rumour.limits import LimitResult
from rumour.model import ModelParams, rate_weights, rate_weights_fn

# There is no jitted backend; the name stays for callers that report one.
HAVE_NUMBA = False

MODES = ("jump-chain", "exact-time")

# Rows per chunk: _CHUNK_DOUBLES // (2N + 2), at most _MAX_CHUNK.  Part of
# the stream contract (it fixes which replications share a stream), not a
# memory budget.
_CHUNK_DOUBLES = 1 << 22
_MAX_CHUNK = 1024

# Uniforms per row the kernel reads at a time.
_BLOCK = 1024

# The kernel walks windows of _WINDOW_CELLS // live jumps per row at
# populations of at least _WINDOW_N when at most
# max(_WINDOW_ROWS, n // _WINDOW_SPAN) rows are live (see _window_width).
_WINDOW_N = 1000
_WINDOW_ROWS = 128
_WINDOW_SPAN = 20
_WINDOW_CELLS = 12288

# Largest population the exact oracle accepts; its time is O(n^3).
EXACT_N_MAX = 60


# The moves' (dx, dy), row k for the move code k = a + b + c (see
# _chunk_kernel): w3 (y - 1), w2 (y - 2), w1 (x - 1, u + 1) and w0
# (x - 1, y + 1).  With delta = 1, k = a + c codes rows 0, 1 and 3.
_MOVES = np.array([(0.0, -1.0), (0.0, -2.0), (-1.0, 0.0), (-1.0, 1.0)])
# A window packs each move's (dx, dy) into dy + _PACK * dx.
_PACK = float(1 << 20)


def _window_width(n: int, live: int) -> int:
    """Jumps per window of the lockstep kernel with live rows at population
    n; 1 is the single step.  A window's rounds cost about as much per jump
    and row as the step does per row, and save the step's fixed cost per
    call, but redo the rows whose moves changed: more of them when more
    rows are live and, at small n, where the states move fast.  Measured
    on dk chunks (CHANGES.md), windows of _WINDOW_CELLS // live jumps win
    at up to 128 live rows at every n from 200 to 10^5 and at 209-256 rows
    from n = 5000 on, and lose at 256 rows for n <= 1000 and at 384 rows
    and more.  Below _WINDOW_N they gain little (1.2x at 128 rows and
    n = 200, against 1.6x at n = 2000) for the memory their arrays add to
    the tail of every chunk: end to end, windows from n = 200 on cost
    the simulate-small-n benchmark 2.8 % of its replications per second
    (lower in 9 of 10 pairs) and 1.1 MiB of peak memory (CHANGES.md)."""
    if n < _WINDOW_N or live > max(_WINDOW_ROWS, n // _WINDOW_SPAN):
        return 1
    return _WINDOW_CELLS // live


def _chunk_kernel(n: int, params: ModelParams, rows: int, read):
    """Walk rows replications to absorption in lockstep; row r's j-th jump
    reads column j of its uniforms.  At step 0 and every _BLOCK steps
    after, read(live, step) returns the (selection, holding) pair of
    blocks of rows rows, from column step on, whose row r holds row r's
    uniforms for every r in live (increasing); the other rows may hold
    anything, and are never read.  holding is None in jump-chain mode.
    Every gather from the blocks indexes a view of their columns by live
    rows, as block[:, cols][live]: block[:, cols].take(live, axis=0)
    would first copy the whole strided slab of all rows, and
    block[live, cols] gathers a single column half as fast.  Returns
    per-row final x, final u, jumps and lambda-free absorption times
    lambda*T (None in jump-chain mode).

    Each step's cost is mostly numpy's fixed cost per call, so the step
    is written for few calls: the model's coefficients are 0-d arrays and
    those of exactly 1 or a theta2 of 0 are folded out, the thresholds are
    summed in place, the move is one int8 code k, whose dy the step reads
    from _MOVES.  With delta = 1 the step drops the w1 threshold, the
    flag b and the w0 count, and w1 is one fill, about 21 calls in all for
    dk against about 33 in general.  moves computes the codes and total
    weights for the step and the window alike.

    When _window_width(n, live) gives width > 1, a window advances every
    live row by width jumps, or to its absorption, in a few rounds of
    those calls, each on new arrays of its rows by width + 1 columns.  It
    guesses every move from the row's state at the window's start,
    rebuilds the states the moves lead through as exact prefix sums of
    their codes, dy + _PACK * dx read from _MOVES by k, recomputes every
    move from those states, and repeats on the rows whose moves changed
    before they absorb.  Move j is right once moves 0 ... j - 1 are, so
    each round settles at least one more jump.  A code is a function of k
    alone, so a row whose moves a round leaves unchanged up to its
    absorption, or the window's end, has walked the very states and
    thresholds of the single step: the same bits from the same uniforms.
    Past its absorption the states are junk and the flags need not be in
    order, but each k still reads some code, and no output reads them.  In
    exact-time mode a last pass adds the jumps' holding times in order, by
    the step's formula from the settled weights: the step's bits again.
    A window ends before the last column of its block of uniforms.  In a
    dk chunk of 209 rows at N = 10^4, a window of 58 jumps takes about
    0.6 ms in 2.1 rounds on average, where 58 steps take about 1.3 ms
    (2-core VM, Python 3.11, numpy 2.4)."""
    out_x = np.empty(rows, np.int64)
    out_u = np.empty(rows, np.int64)
    out_j = np.empty(rows, np.int64)
    out_t = np.zeros(rows)
    live = np.arange(rows)
    # float64 counts, as rate_weights takes them.  rec counts the w0
    # moves, the ignorants recruited as spreaders; every other ignorant
    # informed became uninterested, so u = n - x - rec.  With delta = 1
    # there is no w1 move (w1 = 0 * x * y = 0): c1 = w0 + w1 is w0, flag b
    # is flag a, and rec = n - x, so u = 0 and rec is not kept.
    delta1 = params.delta == 1.0
    dxs, dys = (_MOVES[[0, 1, 3]] if delta1 else _MOVES).T.copy()
    codes = dys + _PACK * dxs
    x = np.full(rows, float(n))
    rec = np.zeros(rows)
    y = np.ones(rows)
    t = np.zeros(rows)
    weights = rate_weights_fn(n, params)

    def moves(xs, ys, u):
        # The move codes k of the states xs, ys with the uniforms u, their
        # total weights, and the flags a (w0) and b (w0 or w1).  The
        # thresholds are running sums in place, added in the order
        # ((w0 + w1) + w2) + w3 evaluates; with delta = 1, w0 + w1 is w0.
        w0, c1, c2, wsum = weights(xs, ys)
        if delta1:
            c1 = w0
        else:
            c1 += w0
        c2 += c1
        wsum += c2
        v = np.multiply(u, wsum)
        a, c = np.less(v, w0), np.less(v, c2)
        # Nondecreasing thresholds: a implies b implies c, so k = a + b + c
        # is 3 on a (w0), 2 on b ^ a (w1), 1 on c ^ b (w2) and 0 on ~c (w3),
        # the rows of _MOVES; the flags' bytes read as int8 0/1, so k sums
        # them without a cast.  With delta = 1, b is a and k = a + c is 2
        # on a, 1 on c ^ a and 0 on ~c.
        k = np.add(a.view(np.int8), c.view(np.int8))
        if delta1:
            return k, wsum, a, a
        b = np.less(v, c1)
        k += b.view(np.int8)
        return k, wsum, a, b

    def holding(h, wsum):
        # Minus the lambda-free holding times, log1p(-h) / wsum, of the
        # jumps with uniforms h.  math.log1p, not np.log1p: numpy's SIMD
        # log1p rounds differently in about 7 % of draws.
        logs = np.fromiter(map(math.log1p, np.negative(h).tolist()), float, h.size)
        return np.divide(logs, wsum, out=logs)

    def window(sel, hold, col, width):
        """Advance each live row width jumps, or to its absorption, from
        column col of the blocks; return each row's jumps taken."""
        size = live.size
        # one column more than the window: the flags of the state after
        # its last jump are computed, and never read
        cols = slice(col, col + width + 1)

        def pack(k):
            # column j sums the codes of the moves k before jump j; flat, k
            # is one cell behind packed
            packed = np.empty(k.shape)
            codes.take(k.ravel()[:-1], out=packed.ravel()[1:], mode="clip")
            packed[:, 0] = 0.0
            return np.cumsum(packed, axis=1, out=packed)

        # The guess: every move from the row's state at the window's start.
        k = moves(x[:, None], y[:, None], sel[:, cols][live])[0]
        # The rows still walked, their places among the window's rows and
        # in the chunk, and their states at its start; each row's state
        # after its last jump, and its moves and weights, once settled.
        act, at, x0, y0 = np.arange(size), live, x, y
        taken, ends = np.empty(size, np.int64), np.empty((2, size))
        settled, wsums = np.empty((size, width + 1), np.int8), np.empty((size, width + 1))
        # Each round settles at least one more jump of every row it walks.
        for _ in range(width + 1):
            # |sum dy| <= 2 width < _PACK / 2, so rounding splits the packed
            # sums exactly into xs and ys, the states before each jump
            ys = pack(k)
            xs = np.rint(ys * (1.0 / _PACK))
            ys -= xs * _PACK
            ys += y0[:, None]
            xs += x0[:, None]
            new, wsum = moves(xs, ys, sel[:, cols][at])[:2]
            # A row is settled when no move changed up to its absorption,
            # or the window's end: its walked states are then the chain's.
            # After its absorption they are junk.  last is the jump after
            # which y is 0, or the window's last jump, and the first
            # changed move is found past the window's end if none changed.
            hit = ys[:, 1:] == 0
            hit[:, -1] = True
            last = hit.argmax(axis=1)
            diff = new != k
            diff[:, -1] = True
            moved = np.less_equal(diff.argmax(axis=1), last)
            done = ~moved
            here, ended = act[done], last[done] + 1
            taken[here] = ended
            ends[:, here] = xs[done, ended], ys[done, ended]
            settled[here] = new[done]
            if hold is not None:
                wsums[here] = wsum[done]
            if not moved.any():
                break
            act, x0, y0, k = act[moved], x0[moved], y0[moved], new[moved]
            at = live[act]
        else:
            raise AssertionError("a window of the lockstep kernel did not settle")
        x[:], y[:] = ends
        valid = np.less(np.arange(width), taken[:, None])
        if not delta1:
            recruits = settled[:, :-1] == 3
            rec[:] += np.logical_and(recruits, valid, out=recruits).sum(axis=1)  # k = 3: w0
        if hold is not None:
            # the holding times of the jumps walked, subtracted (holding
            # returns minus them) in jump order from the time so far
            cols = slice(col, col + width)
            ts = np.zeros((size, width + 1))
            ts[:, 0] = t
            ts[:, 1:][valid] = holding(hold[:, cols][live][valid], wsums[:, :-1][valid])
            t[:] = np.subtract.accumulate(ts, axis=1, out=ts)[:, -1]
        return taken

    step = 0
    hold = None
    while live.size:
        col = step % _BLOCK
        if not col:
            sel, hold = read(live, step)
        width = min(_window_width(n, live.size), sel.shape[1] - col - 1)
        if width > 1:
            jumps = step + window(sel, hold, col, width)
            step += width
        else:
            k, wsum, a, b = moves(x, y, sel[:, col][live])
            if hold is not None:
                t -= holding(hold[:, col][live], wsum)
            step += 1
            jumps = step
            x -= b
            if not delta1:
                rec += a
            y += dys.take(k, mode="clip")
        if np.count_nonzero(y) < live.size:
            done = y == 0
            gone = live[done]
            out_x[gone] = x[done]
            out_u[gone] = 0 if delta1 else n - x[done] - rec[done]
            out_j[gone] = jumps[done] if width > 1 else jumps
            out_t[gone] = t[done]
            keep = ~done
            live, x, rec, y, t = live[keep], x[keep], rec[keep], y[keep], t[keep]
    return out_x, out_u, out_j, out_t if hold is not None else None


@dataclass(frozen=True)
class ReplicationBlock:
    """Final states of replications [start, start + len) in index order."""

    start: int
    x: np.ndarray
    u: np.ndarray
    z: np.ndarray
    jumps: np.ndarray
    absorption_time: np.ndarray | None


def _chunk_size(n: int) -> int:
    return max(1, min(_MAX_CHUNK, _CHUNK_DOUBLES // (2 * n + 2)))


def _philox_rows(master_seed, chunk_index, stream, rows, m, buf):
    """read(live, step) returns a rows x k block, where
    k = min(_BLOCK, m - step), whose row r is columns step ... step + k - 1
    of row r of the chunk's rows x m matrix of uniforms
    Generator(Philox(SeedSequence((master_seed, chunk_index, stream))))
    .random((rows, m)) for every r in live (increasing), without drawing
    the rest of the matrix.  The other rows keep whatever they held, but
    when m <= _BLOCK the one read, at step 0, draws every row in one
    call.  Each block is the top left of buf, which has at least rows
    rows and exactly min(_BLOCK, m) columns, and is a view of it valid
    until the next read."""
    seq = np.random.SeedSequence(entropy=(master_seed, chunk_index, stream))
    bitgen = np.random.Philox(seq)
    gen = np.random.Generator(bitgen)
    state = bitgen.state

    def seek(draw):
        # Philox makes four draws per counter value and steps the counter
        # before it makes them: draw d comes from counter d // 4 + 1.
        state["state"]["counter"][0] = draw // 4
        state["buffer_pos"] = 4
        bitgen.state = state
        if draw % 4:
            gen.random(draw % 4)

    def read(live, step):
        out = buf[:rows, :min(_BLOCK, m - step)]
        if m <= _BLOCK:
            seek(0)
            return gen.random(out=out)  # whole rows in one call
        for r in live.tolist():
            seek(r * m + step)
            gen.random(out=out[r])
        return out

    return read


def iter_final_states(
    n: int,
    reps: int,
    params: ModelParams,
    master_seed: int,
    workers: int = 1,
    mode: str = "jump-chain",
) -> Iterator[ReplicationBlock]:
    """Stream replication results in chunk order, running each chunk on the
    calling thread when its block is requested, so one chunk is in flight
    at a time.  workers is accepted and ignored; it goes once no caller passes it."""
    if n < 1:
        raise ValueError(f"population parameter must be >= 1, got {n}")
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    size, m = _chunk_size(n), 2 * n + 1
    shape = (min(reps, size), min(m, _BLOCK))
    sel_buf = np.empty(shape)
    hold_buf = np.empty(shape) if mode == "exact-time" else None
    for c, start in enumerate(range(0, reps, size)):
        rows = min(size, reps - start)
        sel = _philox_rows(master_seed, c, 0, rows, m, sel_buf)
        hold = _philox_rows(master_seed, c, 1, rows, m, hold_buf) if hold_buf is not None else None
        x, u, jumps, times = _chunk_kernel(n, params, rows, lambda live, step: (
            sel(live, step), hold(live, step) if hold else None))
        yield ReplicationBlock(start=start, x=x, u=u, z=n + 1 - x - u, jumps=jumps,
                               absorption_time=None if times is None else times / params.lam)


@dataclass
class McStats:
    """Sufficient statistics over replications.

    Accumulators are exact integers over final *counts*, so the fold is
    bitwise reproducible whatever the order of blocks; the JSON form
    reports the fraction-scale sums (sum_x = S_X / n and so on).
    """

    reps: int
    n: int
    master_seed: int
    sx: int = 0
    su: int = 0
    sxx: int = 0
    sxu: int = 0
    suu: int = 0

    @classmethod
    def empty(cls, n: int, master_seed: int) -> "McStats":
        return cls(reps=0, n=n, master_seed=master_seed)

    def add_block(self, block: ReplicationBlock) -> None:
        x, u = block.x, block.u
        self.reps += len(x)
        self.sx += int(x.sum())
        self.su += int(u.sum())
        self.sxx += int(np.dot(x, x))
        self.sxu += int(np.dot(x, u))
        self.suu += int(np.dot(u, u))

    def mean_x(self) -> float:
        return self.sx / (self.reps * self.n)

    def mean_u(self) -> float:
        return self.su / (self.reps * self.n)

    def cov_sqrt_n(self) -> CovMatrix2:
        """Sample covariance of sqrt(N) * (X/N, U/N) over replications.

        Computed from the integer accumulators, so the only rounding is the
        final division.  Needs reps >= 2.
        """
        r = self.reps
        if r < 2:
            raise ValueError("covariance needs at least two replications")
        den = r * self.n * (r - 1)
        return CovMatrix2(
            s11=(r * self.sxx - self.sx * self.sx) / den,
            s12=(r * self.sxu - self.sx * self.su) / den,
            s22=(r * self.suu - self.su * self.su) / den,
        )

    def to_json_obj(self) -> dict:
        return {
            "reps": self.reps,
            "n": self.n,
            "master_seed": self.master_seed,
            "sum_x": self.sx / self.n,
            "sum_u": self.su / self.n,
            "sum_xx": self.sxx / self.n**2,
            "sum_xu": self.sxu / self.n**2,
            "sum_uu": self.suu / self.n**2,
        }


def monte_carlo(n: int, reps: int, params: ModelParams, master_seed: int) -> McStats:
    """Run reps independent replications and fold them into McStats.

    (master_seed, n, params, reps) fully determine the result.  It takes
    no mode: both modes walk the same final states from the selection
    stream, so it walks them in jump-chain mode, which draws no holding
    times.  `rumour verify` thus prints the same verdict and numbers in
    either mode, and only echoes its --mode.
    """
    stats = McStats.empty(n, master_seed)
    for block in iter_final_states(n, reps, params, master_seed):
        stats.add_block(block)
    return stats


def write_replications_csv(fh, blocks: Iterable[ReplicationBlock]) -> None:
    """Stream per-replication final states to CSV (rep order).  The
    absorption_time column is empty in jump-chain mode."""
    w = csv.writer(fh)
    w.writerow(["rep", "x_final", "u_final", "z_final", "absorption_time"])
    for b in blocks:
        t = b.absorption_time
        # times one by one: a list of the column's floats would sit beside
        # the reused block buffers, at the run's memory peak
        times = repeat("") if t is None else map(repr, map(float, t))
        w.writerows(zip(range(b.start, b.start + len(b.x)), b.x.tolist(), b.u.tolist(),
                        b.z.tolist(), times))


# --------------------------------------------------------------------------
# Exact final-state distribution for small populations.
# --------------------------------------------------------------------------


def exact_final_distribution(n: int, params: ModelParams) -> np.ndarray:
    """The joint law of (X_final, U_final) as the (n + 1) x (n + 2) float64
    array probs[x, u], 0 <= x <= n and 0 <= u <= n + 1.

    Pull probability mass through the jump-chain DAG, one level at a time.

    Every move lowers the level L = 2X + Y: by 1 when a spreader informs
    an ignorant (w0) or one spreader stops (w3), by 2 when an ignorant
    turns uninterested (w1) or two spreaders stop (w2).  So all states of
    level L are filled in one vectorised step from levels L + 1 and L + 2,
    from the initial state (n, 1) at L = 2n + 1 down to L = 0.  Each state
    sums its incoming shares as ((w1 + w0) + w2) + w3, the order in which
    a serial walk in decreasing (X, then Y) adds them, so the result is
    bitwise that walk's.  Every state with Y >= 1 has a move (theta1 +
    theta2 > 0), so all mass ends at Y = 0.  The computation never touches
    lambda, so the result is bitwise lambda-invariant.  There are 2n + 1
    steps of O(n^2) work, so time is O(n^3); memory is O(n^2), with three
    levels live.  EXACT_N_MAX guards against accidental huge inputs.
    """
    if n < 1:
        raise ValueError(f"population parameter must be >= 1, got {n}")
    if n > EXACT_N_MAX:
        raise TooLarge(f"exact distribution wants n <= {EXACT_N_MAX}, got {n}")
    # q[k][L, x] is the probability of move k from state (x, L - 2x): set
    # on the states with Y >= 1 (2x < L <= n + 1 + x), zero elsewhere,
    # including the spare level 2n + 2 and x = n + 1 that the pulls read.
    lv, xv = np.arange(2 * n + 2)[:, None], np.arange(n + 1)
    lv, xv = np.nonzero((lv > 2 * xv) & (lv <= n + 1 + xv))
    ws = rate_weights(xv, lv - 2 * xv, n, params)
    w = ws[0] + ws[1] + ws[2] + ws[3]
    q = np.zeros((4, 2 * n + 3, n + 2))
    for qk, wk in zip(q, ws):
        qk[lv, xv] = wk / w
    q0, q1, q2, q3 = q
    probs = np.zeros((n + 1, n + 2))
    # levels[L % 3][x, u] is the mass of state (x, L - 2x, u); rows off
    # the level stay zero
    levels = np.zeros((3, n + 2, n + 2))
    levels[(2 * n + 1) % 3, n, 0] = 1.0
    for lev in range(2 * n, -1, -1):
        one, two, cur = levels[(lev + 1) % 3], levels[(lev + 2) % 3], levels[lev % 3]
        lo, hi = max(0, lev - n - 1), min(n, lev // 2)
        # cur last held level lev + 3, whose rows reach at most hi + 2
        cur[hi + 1:hi + 3] = 0.0
        s, t = slice(lo, hi + 1), slice(lo + 1, hi + 2)
        c = cur[s]
        # ((w1 + w0) + w2) + w3 share by share; one addition commutes, so
        # the w0 share may come first
        np.multiply(q0[lev + 1, t, None], one[t], out=c)
        c[:, 1:] += q1[lev + 2, t, None] * two[t, :-1]
        c += q2[lev + 2, s, None] * two[s]
        c += q3[lev + 1, s, None] * one[s]
        if lev % 2 == 0:
            probs[lev // 2] = cur[lev // 2]
    return probs


# --------------------------------------------------------------------------
# Theory-versus-simulation verification.
# --------------------------------------------------------------------------


# Acceptance bands: means at MEAN_Z_MAX standard errors; covariance
# entries at max(COV_REL_TOL relative, COV_Z_MAX Wishart standard errors).
MEAN_Z_MAX = 4.0
COV_REL_TOL = 0.05
COV_Z_MAX = 4.0


@dataclass(frozen=True)
class VerificationReport:
    """Verdict of `verify`; `to_json_obj()` is the printed report."""

    passed: bool
    sigma_emp: CovMatrix2
    obj: dict

    def to_json_obj(self) -> dict:
        return self.obj


def _mean_z(dev: float, var_theory: float, n: int, reps: int) -> float:
    se = math.sqrt(var_theory / (n * reps)) if var_theory > 0.0 else 0.0
    if se == 0.0:
        return 0.0 if dev == 0.0 else math.inf
    return dev / se


def verify(stats: McStats, lim: LimitResult, sigma: CovMatrix2) -> VerificationReport:
    """Standardise the empirical means against (x_inf, u_inf) and compare
    the empirical covariance of the sqrt(N)-fluctuations entry-wise with
    the theoretical Sigma.  Fewer than two replications raise ValueError
    in McStats.cov_sqrt_n."""
    emp = stats.cov_sqrt_n()
    n, r = stats.n, stats.reps
    checks = {}
    for name, e, t, vii, vjj in (
        ("s11", emp.s11, sigma.s11, sigma.s11, sigma.s11),
        ("s12", emp.s12, sigma.s12, sigma.s11, sigma.s22),
        ("s22", emp.s22, sigma.s22, sigma.s22, sigma.s22),
    ):
        wishart_se = math.sqrt((vii * vjj + t * t) / (r - 1))
        allowed = max(COV_REL_TOL * abs(t), COV_Z_MAX * wishart_se)
        err = abs(e - t)
        rel = err / abs(t) if t != 0.0 else (0.0 if err == 0.0 else math.inf)
        checks[name] = {"emp": e, "theory": t, "abs_err": err, "rel_err": rel,
                        "allowed": allowed, "ok": err <= allowed}

    mean_x, mean_u = stats.mean_x(), stats.mean_u()
    obj = {
        "n": n, "reps": r, "x_inf": lim.x_inf, "u_inf": lim.u_inf,
        "mean_x": mean_x, "mean_u": mean_u,
        "x_mean_z": _mean_z(mean_x - lim.x_inf, sigma.s11, n, r),
        "u_mean_z": _mean_z(mean_u - lim.u_inf, sigma.s22, n, r),
        "sigma_emp": emp.to_json_obj(), "sigma_theory": sigma.to_json_obj(),
        "checks": checks,
    }
    obj["pass"] = (abs(obj["x_mean_z"]) <= MEAN_Z_MAX and abs(obj["u_mean_z"]) <= MEAN_Z_MAX
                   and all(c["ok"] for c in checks.values()))
    return VerificationReport(passed=obj["pass"], sigma_emp=emp, obj=obj)
