"""Network geometry: the physical constants and the square deployment
region."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


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
        # an integer, as a plan's relay and eavesdropper counts, whose side
        # is a float: a NaN side stalls sampling, 10**400 overflows it
        if not (type(self.n_legit) is int
                and 1 <= self.n_legit <= sys.float_info.max
                and math.isfinite(self.n_legit / self.lambda_l)):
            raise ValueError("n_legit must be an integer >= 1 whose square "
                             f"side is finite, got {self.n_legit!r}")

    @property
    def side(self) -> float:
        """Side of the square deployment region."""
        return math.sqrt(self.n_legit / self.lambda_l)
