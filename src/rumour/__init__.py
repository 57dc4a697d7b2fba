"""General stochastic rumour model with ignorant / uninterested / spreader /
stifler classes: exact asymptotic limits, CLT covariance, and reproducible
Monte Carlo verification.

The names in __all__ are the library API; everything else is imported from
its submodule (rumour.model, rumour.limits, rumour.clt, rumour.simulate,
rumour.errors, rumour.cli).
"""

from rumour import jsonio
from rumour.clt import clt_constants, numerical_lambda_via_ode, sigma_from_lambda, sigma_matrix
from rumour.limits import solve_x_infinity, x_infinity_closed_form
from rumour.model import ModelParams, preset_params
from rumour.simulate import McStats, iter_final_states, monte_carlo, verify, write_replications_csv

__all__ = [
    "ModelParams",
    "preset_params",
    "solve_x_infinity",
    "x_infinity_closed_form",
    "clt_constants",
    "sigma_matrix",
    "sigma_from_lambda",
    "numerical_lambda_via_ode",
    "McStats",
    "iter_final_states",
    "monte_carlo",
    "verify",
    "write_replications_csv",
    "jsonio",
]

__version__ = "0.1.0"
