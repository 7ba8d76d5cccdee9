"""Network geometry: the square deployment region, Poisson sampling and the
areas of the dyadic annuli used to bound eavesdropper rates per distance
band."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkConfig:
    """Physical constants and extent of one network instance.

    Powers are linear (unit noise variance at every receiver), lengths share
    one abstract unit, densities are nodes per unit area.  The deployment
    region is a square of side ``sqrt(n_legit / lambda_l)`` centered on the
    transmitter.
    """

    p_t: float          # transmit power
    mu: float           # Rayleigh fading parameter, E{H^2} = 2*mu
    gamma: float        # path loss exponent, >= 2
    d_tr: float         # transmitter-receiver distance
    lambda_l: float     # legitimate node density
    lambda_e: float     # eavesdropper density
    n_legit: int        # expected number of legitimate nodes (sets extent)

    def __post_init__(self):
        if not (self.p_t > 0 and math.isfinite(self.p_t)):
            raise ValueError(f"p_t must be positive and finite, got {self.p_t}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (self.gamma >= 2 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be >= 2, got {self.gamma}")
        if not (self.d_tr > 0 and math.isfinite(self.d_tr)):
            raise ValueError(f"d_tr must be positive, got {self.d_tr}")
        if not (self.lambda_l > 0 and math.isfinite(self.lambda_l)):
            raise ValueError(f"lambda_l must be positive, got {self.lambda_l}")
        if not (self.lambda_e >= 0 and math.isfinite(self.lambda_e)):
            raise ValueError(f"lambda_e must be >= 0, got {self.lambda_e}")
        if self.n_legit < 1:
            raise ValueError(f"n_legit must be >= 1, got {self.n_legit}")

    @property
    def side(self) -> float:
        """Side of the square deployment region."""
        return math.sqrt(self.n_legit / self.lambda_l)


def sample_ppp(density: float, side: float, rng: np.random.Generator) -> np.ndarray:
    """Sample a homogeneous Poisson point process on the centered square.

    Together with ``beamform.select_relays`` this is the brute-force
    reference that the relay-disc shortcut of
    ``montecarlo.sample_realization`` is tested against.

    Parameters
    ----------
    density : intensity in points per unit area, >= 0
    side : side length of the square (centered at the origin)
    rng : caller-owned random generator

    Returns
    -------
    (n, 2) array of positions; n is Poisson with mean density*side**2.
    """
    if not (math.isfinite(density) and density >= 0):
        raise ValueError(f"density must be finite and >= 0, got {density}")
    if not (math.isfinite(side) and side > 0):
        raise ValueError(f"side must be finite and > 0, got {side}")
    n = rng.poisson(density * side * side)
    return (rng.random((n, 2)) - 0.5) * side


def layer_area(k: int, a_e: float) -> float:
    """Area of the k-th annulus: 3*pi*2**(2*(k-1))*a_e**2."""
    if k < 1:
        raise ValueError(f"layer index must be >= 1, got {k}")
    if a_e <= 0:
        raise ValueError(f"a_e must be positive, got {a_e}")
    return 3.0 * math.pi * 4.0 ** (k - 1) * a_e * a_e


def num_layers(side: float, a_e: float) -> int:
    """Number of annuli needed to cover the square out to its circumradius
    side/sqrt(2): smallest K with 2**K*a_e >= side/sqrt(2), at least 1."""
    if side <= 0 or a_e <= 0:
        raise ValueError("side and a_e must be positive")
    circum = side / math.sqrt(2.0)
    return max(1, math.ceil(math.log2(circum / a_e)))
