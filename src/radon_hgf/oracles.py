"""Classical special functions used as independent ground truth.

Everything here is self-contained (scalar Lanczos gamma, direct power
series) and shares no evaluation path with the integrators, so the
acceptance comparisons are genuinely two-sided.
"""

import cmath
from dataclasses import dataclass

from .errors import PoleHit, PoleInC, SlowConvergence

# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy around
# 1e-13 on the right half plane; reflection handles Re(z) < 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = 2.5066282746310002


def _near_nonpositive_int(z: complex, tol: float = 1e-12) -> bool:
    if abs(z.imag) > tol:
        return False
    k = round(z.real)
    return k <= 0 and abs(z.real - k) <= tol


def gamma(z) -> complex:
    """Scalar gamma function, Lanczos with reflection."""
    z = complex(z)
    if _near_nonpositive_int(z):
        raise PoleHit(f"gamma pole at {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return cmath.pi / (cmath.sin(cmath.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        x += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * x


def beta(a, b) -> complex:
    return gamma(a) * gamma(b) / gamma(a + b)


@dataclass(frozen=True)
class SeriesConfig:
    max_terms: int = 10**4
    tail_tolerance: float = 1e-14

    def __post_init__(self):
        if self.max_terms < 1 or self.tail_tolerance <= 0:
            raise ValueError("series configuration must be positive")


def gauss_2f1(a, b, c, x, cfg: SeriesConfig = SeriesConfig()) -> complex:
    """Power series sum_m (a)_m (b)_m / ((c)_m m!) x^m, |x| <= 0.9."""
    a, b, c, x = complex(a), complex(b), complex(c), complex(x)
    if _near_nonpositive_int(c):
        raise PoleInC(f"c = {c} is a nonpositive integer")
    if abs(x) > 0.9:
        raise SlowConvergence("series truncation is unsafe for |x| > 0.9")
    term = 1.0 + 0.0j
    acc = term
    small = 0
    for m in range(cfg.max_terms):
        term *= (a + m) * (b + m) / ((c + m) * (m + 1)) * x
        acc += term
        if abs(term) < cfg.tail_tolerance * max(1.0, abs(acc)):
            small += 1
            if small >= 2:
                return acc
        else:
            small = 0
    raise SlowConvergence("2F1 series did not settle within max_terms")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def lauricella_fd(a, bs, c, xs, cfg: SeriesConfig = SeriesConfig()) -> complex:
    """Multi-series sum over (m_1, ..., m_p) with Pochhammer weights.

    Summed by total degree with a rectangular cutoff; all |x_i| <= 0.7 so
    the layer sums decay geometrically.
    """
    a, c = complex(a), complex(c)
    bs = tuple(complex(b) for b in bs)
    xs = tuple(complex(x) for x in xs)
    if len(bs) != len(xs):
        raise ValueError("one exponent per variable required")
    if _near_nonpositive_int(c):
        raise PoleInC(f"c = {c} is a nonpositive integer")
    if any(abs(x) > 0.7 for x in xs):
        raise SlowConvergence("series truncation is unsafe for |x_i| > 0.7")
    p = len(xs)
    if p == 0:
        return 1.0 + 0.0j

    # (q)_m tables, extended on demand
    def poch_table(q, upto):
        vals = [1.0 + 0.0j]
        for m in range(upto):
            vals.append(vals[-1] * (q + m))
        return vals

    max_deg = max(2, int(cfg.max_terms ** (1.0 / p)))
    pa = poch_table(a, p * max_deg + 1)
    pc = poch_table(c, p * max_deg + 1)
    pb = [poch_table(b, max_deg + 1) for b in bs]
    fact = poch_table(1.0, max_deg + 1)  # (1)_m = m!

    acc = 0.0 + 0.0j
    small = 0
    for total in range(max_deg + 1):
        layer = 0.0 + 0.0j
        for m in _compositions(total, p):
            term = pa[total] / (pc[total])
            for j in range(p):
                term *= pb[j][m[j]] / fact[m[j]] * xs[j] ** m[j]
            layer += term
        acc += layer
        if abs(layer) < cfg.tail_tolerance * max(1.0, abs(acc)):
            small += 1
            if small >= 3:
                return acc
        else:
            small = 0
    raise SlowConvergence("multi-series did not settle within the degree cap")


def gamma_r_closed(r: int, a) -> complex:
    """pi^{r(r-1)/2} prod_{i=1}^r Gamma(a - i + 1)."""
    a = complex(a)
    acc = cmath.pi ** (r * (r - 1) / 2.0)
    for i in range(1, r + 1):
        acc *= gamma(a - i + 1)
    return acc


def beta_r_closed(r: int, a, b) -> complex:
    """Gamma_r(a) Gamma_r(b) / Gamma_r(a + b)."""
    return gamma_r_closed(r, a) * gamma_r_closed(r, b) / gamma_r_closed(r, complex(a) + complex(b))
