"""Exact moments of the beamformed received powers without path loss, the
path-loss mean/variance envelope bounds, and the two moment inequalities
they rest on, each evaluated exactly from a distribution family's raw
moments.

Channel model: fading magnitudes are Rayleigh with parameter mu, so the
squared magnitude is exponential with mean 2*mu.  Phases are uniform on
[0, 2*pi).  Rates are in bits per channel use with unit noise power, and the
path loss law is d**(-gamma) with unit constant.

``P_l`` is the coherently combined power at the receiver and ``P_e`` the
incoherent power at one eavesdropper, both normalized by the transmit power
(``p_t = 1``) and with all distances set to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rayleigh_moment(mu: float, p: int) -> float:
    """E{H^p} for H Rayleigh with parameter mu: (2*mu)**(p/2) * Gamma(1 + p/2)."""
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if p < 0:
        raise ValueError(f"moment order must be >= 0, got {p}")
    return (2.0 * mu) ** (p / 2.0) * math.gamma(1.0 + p / 2.0)


def mean_pl_nopath(n_r: int, mu: float) -> float:
    """E{P_l}/P_T with unit distances: (n_r - 1)*E{H^2}**2 + E{H^4}."""
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    m2 = rayleigh_moment(mu, 2)
    m4 = rayleigh_moment(mu, 4)
    return (n_r - 1) * m2 * m2 + m4


def mean_pe_nopath(mu: float) -> float:
    """E{P_e}/P_T with unit distances: E{H^2}**2 (independent of n_r)."""
    m2 = rayleigh_moment(mu, 2)
    return m2 * m2


def var_pl_nopath(n_r: int, mu: float) -> float:
    """Var{P_l}/P_T**2 with unit distances, full expansion.

    The four terms are the diagonal fourth-moment part, the off-diagonal
    square part (each unordered pair {k,q} appears twice in the ordered
    double sum, and the reversed pair carries the same product, hence the
    factor 2n(n-1)), the three-index cross part and the
    diagonal/off-diagonal covariance part of the squared sum of n_r i.i.d.
    squared magnitudes.
    """
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    n = float(n_r)
    m2 = rayleigh_moment(mu, 2)
    m4 = rayleigh_moment(mu, 4)
    m6 = rayleigh_moment(mu, 6)
    m8 = rayleigh_moment(mu, 8)
    return (
        n * (m8 - m4 * m4)
        + 2 * n * (n - 1) * (m4 * m4 - m2 ** 4)
        + 4 * n * (n - 1) * (n - 2) * (m4 * m2 * m2 - m2 ** 4)
        + 4 * n * (n - 1) * (m6 * m2 - m4 * m2 * m2)
    ) / (n * n)


def var_pe_nopath(n_r: int, mu: float) -> float:
    """Var{P_e}/P_T**2 with unit distances:
    ((n_r - 1)/n_r)*E{H^2}**4 + (1/n_r)*(E{H^4}**2 - E{H^2}**4)."""
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    n = float(n_r)
    m2 = rayleigh_moment(mu, 2)
    m4 = rayleigh_moment(mu, 4)
    return (n - 1) / n * m2 ** 4 + (m4 * m4 - m2 ** 4) / n


def mu4_pl_nopath(n_r: int) -> float:
    """Fourth central moment of P_l/P_T with unit distances, in units of
    (2*mu)**8: with S = sum_i h_i**2 ~ Gamma(n_r, 1) in units of 2*mu,
    P_l = S**2/n_r, and the raw moments E{S**k} = n(n+1)...(n+k-1) give
    48n**2 + 912n + 4908 + 11592/n + 12588/n**2 + 5040/n**3."""
    n = float(n_r)
    return (48 * n * n + 912 * n + 4908 + 11592 / n + 12588 / (n * n)
            + 5040 / (n * n * n))


def mu4_pe_nopath(n_r: int) -> float:
    """Fourth central moment of P_e/P_T with unit distances, in units of
    (2*mu)**8: P_e = Exp(1)*S/n_r with S as in ``mu4_pl_nopath``, which
    gives 9 + 84/n + 216/n**2 + 144/n**3."""
    n = float(n_r)
    return 9 + 84 / n + 216 / (n * n) + 144 / (n * n * n)


@dataclass(frozen=True)
class PowerBounds:
    """Envelope bounds on the first two moments of the received powers when
    relays lie in the disc of radius a_l and the eavesdropper is at least
    a_e - a_l from every relay (all normalized by p_t or p_t**2)."""

    mean_pl_lower: float
    mean_pe_upper: float
    var_pl_upper: float
    var_pe_upper: float


def power_moment_bounds(gamma: float, d_tr: float, eta: float, nu: float,
                        n_r: int, a_l: float, a_e: float) -> PowerBounds:
    """The four distance-envelope bounds on mean/variance of P_l and P_e."""
    if d_tr <= a_l:
        raise ValueError(f"receiver must lie outside the relay disc: d_tr={d_tr} <= a_l={a_l}")
    if a_e <= a_l:
        raise ValueError(f"a_e={a_e} must exceed a_l={a_l}")
    near = d_tr - a_l
    far = d_tr + a_l
    gap = a_e - a_l
    return PowerBounds(
        mean_pl_lower=eta * n_r * far ** (-2 * gamma),
        mean_pe_upper=eta * gap ** (-gamma) * near ** (-gamma),
        var_pl_upper=nu * nu * n_r * near ** (-4 * gamma),
        var_pe_upper=nu * nu * gap ** (-2 * gamma) * near ** (-2 * gamma),
    )


# ---------------------------------------------------------------------------
# Distribution families for the inequality predicates
# ---------------------------------------------------------------------------

class RayleighDist:
    """Rayleigh magnitude with parameter mu."""

    def __init__(self, mu: float):
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = mu

    def moment(self, p: int) -> float:
        return rayleigh_moment(self.mu, p)


class TwoPointDist:
    """Takes value ``lo`` with probability 1-p_hi and ``hi`` with p_hi."""

    def __init__(self, lo: float, hi: float, p_hi: float):
        if lo < 0 or hi < 0:
            raise ValueError("support must be nonnegative")
        if not 0 < p_hi < 1:
            raise ValueError("p_hi must be in (0, 1)")
        self.lo, self.hi, self.p_hi = lo, hi, p_hi

    def moment(self, p: int) -> float:
        return (1 - self.p_hi) * self.lo ** p + self.p_hi * self.hi ** p


class UniformMixtureDist:
    """Mixture of uniform intervals on the nonnegative axis."""

    def __init__(self, intervals, weights):
        intervals = [(float(a), float(b)) for a, b in intervals]
        weights = np.asarray(weights, dtype=float)
        if len(intervals) != len(weights) or len(intervals) == 0:
            raise ValueError("need matching, nonempty intervals and weights")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        for a, b in intervals:
            if not 0 <= a < b:
                raise ValueError(f"invalid interval ({a}, {b})")
        self.intervals = intervals
        self.weights = weights / weights.sum()

    def moment(self, p: int) -> float:
        total = 0.0
        for (a, b), w in zip(self.intervals, self.weights):
            total += w * (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))
        return total


def random_distribution(rng: np.random.Generator):
    """One random instance of the three families for the randomized
    inequality suites: a Rayleigh law, a two-point law, or a mixture of one
    to three uniform intervals, with parameters drawn from ``rng``."""
    kind = rng.integers(3)
    if kind == 0:
        return RayleighDist(rng.uniform(0.1, 3.0))
    if kind == 1:
        lo = rng.uniform(0.0, 1.0)
        return TwoPointDist(lo, lo + rng.uniform(0.1, 3.0),
                            rng.uniform(0.05, 0.95))
    k = int(rng.integers(1, 4))
    edges = np.sort(rng.uniform(0.0, 3.0, 2 * k))
    intervals = [(edges[2 * i], edges[2 * i + 1] + 0.01) for i in range(k)]
    return UniformMixtureDist(intervals, rng.uniform(0.2, 1.0, k))


def third_moment_gap(dist) -> float:
    """E{H^3} - E{H^2}E{H}, exact from the family's moments; nonnegative for
    any nonnegative random variable with positive mean."""
    return dist.moment(3) - dist.moment(2) * dist.moment(1)


def weighted_variance_exact(a: float, b: float, dist):
    """Exact (var_lhs, var_rhs) from the family's moments up to order 4.

    Expansion of Var[(a*X + b*Y)**2] for i.i.d. X, Y in raw moments m1..m4:
    (a**4 + b**4)*(m4 - m2**2) + 4*a**2*b**2*(m2**2 - m1**4)
    + 4*a*b*(a**2 + b**2)*m1*(m3 - m1*m2).

    The cap var_lhs <= var_rhs holds because each of m4 - m2**2,
    m2**2 - m1**4 and m1*(m3 - m1*m2) is >= 0, and for a <= b each left
    coefficient (a**4 + b**4, 4*a**2*b**2, 4*a*b*(a**2 + b**2)) is at most
    its right one (2*b**4, 4*b**4, 8*b**4).
    """
    if not 0 < a <= b:
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    m1, m2, m3, m4 = (dist.moment(p) for p in (1, 2, 3, 4))

    def var_quad(aa, bb):
        return ((aa ** 4 + bb ** 4) * (m4 - m2 * m2)
                + 4 * aa * aa * bb * bb * (m2 * m2 - m1 ** 4)
                + 4 * aa * bb * (aa * aa + bb * bb) * m1 * (m3 - m1 * m2))

    return var_quad(a, b), b ** 4 * var_quad(1.0, 1.0)
