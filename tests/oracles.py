"""Specialised closed-form covariances for the classic sub-families.

Independent oracles for the general CLT path in rumour.clt: each family
computes its own x_inf through the Lambert-W route, so it shares nothing
with the bracketed solver or the general constants.
"""

import math

from rumour.clt import CovMatrix2
from rumour.errors import NotApplicable
from rumour.limits import lambert_w0, lambert_wm1


def _x_w0(h: float) -> float:
    return -lambert_w0(-h * math.exp(-h)) / h


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
        x = -1.0 / (h * lambert_wm1(-math.exp(-1.0 / h) / h))
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
