"""Finite-difference oracles shared by the test modules.

Deliberately independent of the library's own finite-difference
fallback: central differences with a per-coordinate relative step.
"""

import numpy as np

from eqopt.nlp import ObjectiveOracle


def chain_rule_oracle(oracle):
    """The same callbacks without a pull-back, so ``restrict`` composes them."""
    return ObjectiveOracle(oracle.dim, oracle.value, oracle.gradient, oracle.hessian)


def fd_gradient(value, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * (1 + abs(x[i]))
        out[i] = (value(x + e) - value(x - e)) / (2 * e[i])
    return out


def fd_hessian(gradient, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * (1 + abs(x[i]))
        out[:, i] = (gradient(x + e) - gradient(x - e)) / (2 * e[i])
    return 0.5 * (out + out.T)
