"""Test oracles.

Specialised closed-form covariances for the classic sub-families are
independent oracles for the general CLT path in rumour.clt: each family
computes its own x_inf through the Lambert-W route, so it shares nothing
with the bracketed solver or the general constants.

A Pearson chi-square test compares Monte Carlo final-state histograms
with the exact small-N distribution of rumour.simulate, and a
slice-by-slice walk of the jump-chain DAG is the bit-level reference for
that distribution.  The leading term of the minor-outbreak probability
is a seed-free, closed-form check of the exact law's atom near X = N.
A scalar evaluation of the transition weights is the
bit-level reference for rumour.model.rate_weights.  A recursive JSON
renderer is the byte-level reference for rumour.jsonio.dumps.
"""

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.stats import chi2 as _chi2_dist

from rumour.clt import CovMatrix2
from rumour.errors import NotApplicable
from rumour.limits import _lambert_w
from rumour.model import ModelParams, rate_weights
from rumour.simulate import iter_final_states


def _x_w0(h: float) -> float:
    return -_lambert_w(-h * math.exp(-h), 0)[0] / h


def sigma_closed_form(family: str, value: float | None = None) -> CovMatrix2:
    """Specialised Sigma (or scalar variance) for a named sub-family.

    family is one of:
        "rho"      value = rho;   one-parameter bridge between mt and dk
        "hayes"    value unused
        "11q_dk"   value = q;     dk dynamics with uninterested allowed
        "11q_mt"   value = q;     mt dynamics with uninterested allowed
        "a11_dk"   value = alpha; geometric-stifling dk variant
        "a11_mt"   value = alpha; geometric-stifling mt variant

    Scalar-variance families (delta = 1) return (v, 0, 0).
    """
    if family == "rho":
        rho = float(value)
        x = _x_w0(2.0)
        v = x * (1.0 - x) * (1.0 - 2.0 * x + 2.0 * rho * x * x) / (1.0 - 2.0 * x) ** 2
        return CovMatrix2(v, 0.0, 0.0)
    if family == "hayes":
        h = 2.0
        x = -1.0 / (h * _lambert_w(-math.exp(-1.0 / h) / h, -1)[0])
        v = x * (1.0 - x) * (1.0 - 3.0 * x + 3.0 * x * x) / (1.0 - 2.0 * x) ** 2
        return CovMatrix2(v, 0.0, 0.0)
    if family in ("11q_dk", "11q_mt"):
        q = float(value)
        x = _x_w0(1.0 + q)
        u = (1.0 - q) * (1.0 - x)
        if family == "11q_dk":
            den = 2.0 * (1.0 - (1.0 + q) * x) ** 2
            s11 = x * (1.0 - x) * (2.0 - (3.0 + q * q) * x + (1.0 + q) ** 2 * x * x) / den
            s12 = (
                x
                * u
                * (-2.0 * (1.0 - q) + (1.0 - q) * (3.0 + q) * x - (1.0 + q) ** 2 * x * x)
                / den
            )
            s22 = (
                u
                * (
                    2.0 * q
                    + 2.0 * (1.0 - 5.0 * q) * x
                    + (-3.0 + 9.0 * q + 3.0 * q * q - q**3) * x * x
                    + (1.0 - q) * (1.0 + q) ** 2 * x**3
                )
                / den
            )
        else:
            den = (1.0 - (1.0 + q) * x) ** 2
            s11 = x * (1.0 - x) * (1.0 - (1.0 + q * q) * x) / den
            s12 = -x * u * u / den
            s22 = (
                u
                * (q + (1.0 - 5.0 * q) * x + (-1.0 + 4.0 * q + q * q) * x * x)
                / den
            )
        return CovMatrix2(s11, s12, s22)
    if family in ("a11_dk", "a11_mt"):
        al = float(value)
        x = _x_w0(1.0 + 1.0 / al)
        if family == "a11_dk":
            v = (
                x
                * (1.0 - x)
                * (
                    2.0 * al * al
                    + (2.0 * (1.0 - al) - al * (1.0 + al) ** 2) * x
                    + al * (1.0 + al) ** 2 * x * x
                )
                / (2.0 * (al - (1.0 + al) * x) ** 2)
            )
        else:
            v = (
                x
                * (1.0 - x)
                * (al * al - (al * al + 2.0 * al - 1.0) * x)
                / (al - (1.0 + al) * x) ** 2
            )
        return CovMatrix2(v, 0.0, 0.0)
    raise NotApplicable(f"no specialised covariance for family {family!r}")


def final_state_counts(
    n: int, reps: int, params: ModelParams, master_seed: int
) -> dict[tuple[int, int], int]:
    """Histogram of final (X, U) over replications."""
    counts: dict[tuple[int, int], int] = {}
    stride = n + 2
    for block in iter_final_states(n, reps, params, master_seed):
        keys, cnt = np.unique(block.x * stride + block.u, return_counts=True)
        for k, c in zip(keys.tolist(), cnt.tolist()):
            xu = (k // stride, k % stride)
            counts[xu] = counts.get(xu, 0) + c
    return counts


def support(probs: np.ndarray) -> list[tuple[tuple[int, int], float]]:
    """The nonzero cells ((x, u), p) of an exact law probs[x, u], in
    increasing (x, u) order."""
    xs, us = np.nonzero(probs)
    return list(zip(zip(xs.tolist(), us.tolist()), probs[xs, us].tolist()))


def exact_probs_by_slices(n: int, params: ModelParams) -> np.ndarray:
    """probs[x, u] of the exact final-state law, pushed through the DAG one
    X-slice at a time in decreasing (X, then Y) order: moves within slice
    X run serially in Y, then the moves to X - 1 apply to the whole slice.
    This walk fixes the order in which each cell's shares are added, so
    rumour.simulate.exact_final_distribution must match it bit for bit.
    No size cap; time O(n^3), memory O(n^2).
    """
    probs = np.zeros((n + 1, n + 2))
    # cur[y, u] is the mass of slice x
    cur = np.zeros((n + 2, n + 2))
    cur[1, 0] = 1.0
    for x in range(n, -1, -1):
        top = n + 1 - x
        w0, w1, w2, w3 = rate_weights(x, np.arange(1, top + 1), n, params)
        w = w0 + w1 + w2 + w3
        # w = 0 only where no move is possible: that mass stays put
        p0, p1, p2, p3 = (np.divide(wk, w, out=np.zeros_like(w), where=w > 0)
                          for wk in (w0, w1, w2, w3))
        for y in range(top, 0, -1):
            v = cur[y]
            # at y = 1, p2 = 0: the zero share wraps to row n + 1, which is
            # empty or already processed
            cur[y - 2] += p2[y - 1] * v
            cur[y - 1] += p3[y - 1] * v
        probs[x] = cur[0]
        if x:
            # the w1 share lands in each cell before the w0 share
            live = cur[1:top + 1]
            cur = np.zeros_like(cur)
            cur[1:top + 1, 1:] = p1[:, None] * live[:, :-1]
            cur[2:top + 2] += p0[:, None] * live
    return probs


def minor_outbreak_leading(p: ModelParams) -> float:
    """lim N * p_minor(N) = theta1 / (2 delta) + gamma (1 - delta) / delta^2,
    where p_minor is the probability that the rumour dies while almost
    everyone is still ignorant.

    While X = N - O(1), each jump is a w0 (probability delta) or a w1
    (1 - delta), up to O(1/N).  A first-order extinction is one O(1/N)
    event that takes Y to 0, and there are two routes to it:
    - at Y = 1 after k w1 moves, w3 = gamma k against a total of about N;
      Y = 1 spends one jump at each k and reaches k with probability
      (1 - delta)^k, which sums to gamma (1 - delta) / (delta^2 N);
    - at Y = 2, w2 = theta1 (both stop) against a total of about 2N, over
      1 / delta expected jumps, which gives theta1 / (2 delta N).
    Every other route needs two such events, which makes it O(1/N^2); so
    mt (theta1 = 0, delta = 1) has almost no atom.
    """
    return p.theta1 / (2.0 * p.delta) + p.gamma * (1.0 - p.delta) / p.delta**2


def rate_weights_reference(x, y, n: int, p) -> tuple[float, float, float, float]:
    """The four weights of rumour.model.rate_weights at one state, in Python
    floats, with every coefficient multiplied and every term added left to
    right as its docstring writes them: the unfolded reference for the
    folds rate_weights_fn makes.  p needs only delta, theta1, theta2 and
    gamma."""
    x, y = float(x), float(y)
    return (p.delta * x * y,
            (1.0 - p.delta) * x * y,
            p.theta1 * y * (y - 1.0) / 2.0,
            p.theta2 * y * (y - 1.0) + p.gamma * y * (n + 1 - x - y))


def dumps_reference(obj) -> str:
    """rumour.jsonio.dumps rendered element by element, as it renders
    everything that is not a table: the slow reference for its table path."""
    return _render_reference(obj, 0) + "\n"


def _render_reference(obj, level: int) -> str:
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}  {json.dumps(k if type(k) is str else str(k))}: "
                 f"{_render_reference(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render_reference(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return f"{x:.17g}"
        return "NaN" if math.isnan(x) else "Infinity" if x > 0 else "-Infinity"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj)!r} deterministically")


# goodness_of_fit pools cells whose expected count is below this.
GOF_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class GofResult:
    chi2: float
    dof: int
    pvalue: float
    cells: int  # cells kept individually (expected count >= threshold)


def goodness_of_fit(counts: Mapping[tuple[int, int], int], probs: np.ndarray) -> GofResult:
    """Pearson chi-square of observed final-state counts against the exact
    law probs[x, u], pooling cells whose expected count falls below
    GOF_MIN_EXPECTED."""
    total = sum(counts.values())
    cells = support(probs)
    support_keys = {k for k, _ in cells}
    stray = sum(c for k, c in counts.items() if k not in support_keys)
    if stray:
        # observed mass on an impossible state: reject outright
        return GofResult(chi2=math.inf, dof=max(1, len(cells) - 1), pvalue=0.0, cells=len(cells))

    chi2 = 0.0
    kept = 0
    pooled_exp = 0.0
    pooled_obs = 0
    for key, prob in cells:
        exp = prob * total
        obs = counts.get(key, 0)
        if exp >= GOF_MIN_EXPECTED:
            chi2 += (obs - exp) ** 2 / exp
            kept += 1
        else:
            pooled_exp += exp
            pooled_obs += obs
    ncells = kept
    if pooled_exp > 0.0 or pooled_obs > 0:
        chi2 += (pooled_obs - pooled_exp) ** 2 / max(pooled_exp, 1e-300)
        ncells += 1
    dof = ncells - 1
    if dof < 1:
        return GofResult(chi2=chi2, dof=0, pvalue=1.0, cells=kept)
    return GofResult(chi2=chi2, dof=dof, pvalue=float(_chi2_dist.sf(chi2, dof)), cells=kept)
