"""Gaussian quadrature rules for the eigenvalue weights.

Each rule absorbs its weight function, fractional powers included: the
eigenvalue-reduced Hermitian integrals need them to converge at spectral
rather than algebraic rate.

* ``jacobi_01``: weight u^p (1-u)^q on (0,1)
* ``genlaguerre``: weight u^p exp(-u) on (0,inf)
* ``hermite_scaled``: weight exp(-u^2/2) on R, weights sum to sqrt(2*pi)
"""

import numpy as np
import scipy.special as _sp

from .errors import UnsupportedCount

MAX_COUNT = 512


def _require_count(count: int):
    if not (1 <= count <= MAX_COUNT):
        raise UnsupportedCount(f"count must be in [1, {MAX_COUNT}], got {count}")


def jacobi_01(count: int, p: float, q: float):
    """Nodes/weights for weight u^p (1-u)^q on (0,1).

    Exact for polynomials of degree <= 2*count - 1 against that weight.
    """
    _require_count(count)
    if p <= -1 or q <= -1:
        raise ValueError("jacobi exponents must exceed -1")
    # roots_jacobi: weight (1-x)^alpha (1+x)^beta on (-1,1); x = 2u - 1
    x, w = _sp.roots_jacobi(count, q, p)
    nodes = 0.5 * (x + 1.0)
    weights = w * 0.5 ** (p + q + 1)
    return nodes, weights


def genlaguerre(count: int, p: float):
    """Nodes/weights for weight u^p exp(-u) on (0,inf)."""
    _require_count(count)
    if p <= -1:
        raise ValueError("laguerre exponent must exceed -1")
    return _sp.roots_genlaguerre(count, p)


def hermite_scaled(count: int):
    """Nodes/weights for weight exp(-u^2/2) on R."""
    _require_count(count)
    x, w = _sp.roots_hermite(count)
    # physicists' weight exp(-x^2) rescaled to exp(-u^2/2)
    return np.sqrt(2.0) * x, np.sqrt(2.0) * w
